import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qaplandscape import (
    cli,
    component_variances,
    generate_instance,
    serialize_qaplib,
    spectral,
)
from qaplandscape.cli import run_cli
from qaplandscape.spectral import AutocorrReport, component_weights
from conftest import perturb_kind

SAMPLE = "3\n0 1 2\n1 0 3\n2 3 0\n0 5 5\n5 0 5\n5 5 0\n"


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.dat"
    path.write_text(SAMPLE)
    return str(path)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInstanceLoading:
    def test_requires_exactly_one_source(self, capsys, sample_file):
        code, _, err = run(capsys, "decompose", "--perm", "0,1,2")
        assert code == 1 and "instance source" in err
        code, _, err = run(
            capsys, "decompose", "--instance", sample_file,
            "--gen", "3,1,0,9", "--perm", "0,1,2",
        )
        assert code == 1 and "instance source" in err

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys, "decompose", "--instance", "/no/such/file", "--perm", "0,1,2"
        )
        assert code == 1 and "cannot read" in err

    def test_bad_gen_argument(self, capsys):
        code, _, err = run(capsys, "stats", "--gen", "3,1")
        assert code == 1 and "N,SEED,LO,HI" in err
        code, _, err = run(capsys, "stats", "--gen", "3,x,0,9")
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (["decompose", "--gen", "5,1,0,9", "--n", "7", "--perm", "0,1,2,3,4"],
         "cannot be combined with --gen"),
        (["stats", "--gen", "5,1,0,9", "--lo", "3"], "need --n"),
        (["stats", "--gen", "5,1,0,9", "--hi", "4"], "need --n"),
        (["stats", "--instance", "sample.dat", "--lo", "1"], "need --n"),
    ], ids=["n-with-gen", "lo-with-gen", "hi-with-gen", "lo-with-instance"])
    def test_generator_shorthand_is_not_dropped(self, capsys, monkeypatch, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was built from conflicting flags")

        monkeypatch.setattr(cli, "generate_instance", refuse)
        monkeypatch.setattr(cli, "parse_qaplib", refuse)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert message in err

    def test_generator_shorthand_bounds(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "4", "--lo", "3", "--hi", "5",
                           "--format", "json")
        assert code == 0
        code, same, _ = run(capsys, "stats", "--gen", "4,0,3,5", "--format", "json")
        assert code == 0 and out == same
        code, out, _ = run(capsys, "stats", "--n", "4", "--seed", "2", "--format", "json")
        code, same, _ = run(capsys, "stats", "--gen", "4,2,0,9", "--format", "json")
        assert out == same

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "stats", "--gen", "4,1,0,9", "--bogus")
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "explode", "--gen", "4,1,0,9")
        assert code == 1

    def test_rational_mode_rejects_float_instance(self, capsys, tmp_path):
        path = tmp_path / "f.dat"
        path.write_text(SAMPLE.replace("0 1 2", "0 1.5 2"))
        code, _, err = run(
            capsys, "decompose", "--instance", str(path),
            "--perm", "0,1,2", "--mode", "rational",
        )
        assert code == 1 and "rational mode" in err

    def test_nan_entry_rejected_with_offset(self, capsys, tmp_path):
        path = tmp_path / "nan.dat"
        path.write_text("3\nnan 1 1 1 1 1 1 1 1\n1 2 3 4 5 6 7 8 9\n")
        code, out, err = run(capsys, "verify", "--instance", str(path))
        assert code == 1 and out == ""
        assert "non-finite" in err and "byte offset 2" in err

    @pytest.mark.parametrize("argv,limit", [
        (["stats", "--gen", "5,1,0,9", "--cap", "12"], "limit 9"),
        (["stats", "--gen", "100000,0,0,9"], "limit 200"),
        (["stats", "--n", "100000"], "limit 200"),
        (["autocorr", "--gen", "5,1,0,9", "--steps", "10000000"], "limit 1000000"),
        (["verify", "--gen", "33,0,0,9"], "limit 32"),
        (["verify", "--gen", "5,1,0,9", "--cap", "10"], "limit 9"),
        (["verify", "--gen", "5,1,0,9", "--cap", "-3"], "--cap -3 must be at least 0"),
    ])
    def test_resource_limits(self, capsys, monkeypatch, argv, limit):
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was built past a resource limit")

        monkeypatch.setattr(cli, "generate_instance", refuse)
        monkeypatch.setattr(cli, "parse_qaplib", refuse)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert limit in err

    def test_parse_error_surfaces_offset(self, capsys, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("3\n0 1 2\n")
        code, _, err = run(
            capsys, "decompose", "--instance", str(path), "--perm", "0,1,2"
        )
        assert code == 1 and "byte offset" in err


class TestDecompose:
    def test_text_output_and_sum_check(self, capsys, sample_file):
        code, out, _ = run(
            capsys, "decompose", "--instance", sample_file, "--perm", "0,1,2"
        )
        assert code == 0
        assert "f(x)" in out and "sum check: residual 0 (OK)" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--gen", "5,42,0,9",
            "--perm", "0,1,2,3,4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"n", "mode", "command", "results", "residuals"}
        assert payload["n"] == 5
        assert payload["mode"] == "rational"
        assert payload["command"] == "decompose"
        r = payload["results"]
        total = sum(Fraction(r[k]) for k in ("c1", "c2", "c3"))
        assert total == Fraction(r["f"]) == Fraction(r["total"])
        assert payload["residuals"]["decomposition_sum"] == "0"

    def test_json_float_mode_uses_numbers(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--gen", "4,1,0,9", "--perm", "0,1,2,3",
            "--mode", "float", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "float"
        assert isinstance(payload["results"]["f"], float)

    def test_not_a_bijection(self, capsys, sample_file):
        code, _, err = run(
            capsys, "decompose", "--instance", sample_file, "--perm", "0,0,1"
        )
        assert code == 1 and "not a bijection" in err

    def test_wrong_length(self, capsys, sample_file):
        code, _, err = run(
            capsys, "decompose", "--instance", sample_file, "--perm", "0,1"
        )
        assert code == 1 and "entries" in err

    def test_malformed_perm(self, capsys, sample_file):
        code, _, err = run(
            capsys, "decompose", "--instance", sample_file, "--perm", "0,a,1"
        )
        assert code == 1 and "malformed permutation" in err

    def test_csv_rejected(self, capsys, sample_file):
        code, _, err = run(
            capsys, "decompose", "--instance", sample_file,
            "--perm", "0,1,2", "--format", "csv",
        )
        assert code == 1 and "walk series" in err

    def test_flow_first_changes_result(self, capsys, tmp_path):
        text = "3\n0 1 2\n3 0 4\n5 6 0\n0 1 8\n7 0 6\n5 4 0\n"
        path = tmp_path / "asym.dat"
        path.write_text(text)
        _, straight, _ = run(
            capsys, "decompose", "--instance", str(path),
            "--perm", "1,2,0", "--format", "json",
        )
        _, flipped, _ = run(
            capsys, "decompose", "--instance", str(path),
            "--perm", "1,2,0", "--format", "json", "--flow-first",
        )
        assert json.loads(straight)["results"]["f"] != \
            json.loads(flipped)["results"]["f"]


class TestAvg:
    def test_wave_matches_brute(self, capsys, sample_file):
        code, out, _ = run(
            capsys, "avg", "--instance", sample_file, "--perm", "2,0,1"
        )
        assert code == 0
        assert "residual 0 (OK)" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "avg", "--gen", "6,3,0,9",
            "--perm", "5,4,3,2,1,0", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["wave"] == payload["results"]["brute"]
        assert payload["residuals"]["neighborhood_average"] == "0"

    def test_size_limit_for_instance_file(self, capsys, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("avg ran past its size limit")

        path = tmp_path / "n201.dat"
        path.write_text(serialize_qaplib(generate_instance(201, 0, 0, 9)))
        monkeypatch.setattr(cli, "neighborhood_avg_wave", refuse)
        monkeypatch.setattr(cli, "neighborhood_avg_brute", refuse)
        identity = ",".join(map(str, range(201)))
        code, out, err = run(capsys, "avg", "--instance", str(path), "--perm", identity)
        assert code == 1 and out == ""
        assert "limit 200" in err


class TestVerify:
    def test_clean_build_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--seed", "1")
        assert code == 0
        assert "verification: PASS" in out
        for line in out.splitlines():
            if line.startswith("claim"):
                assert "residual 0 (tol 0) PASS" in line

    def test_json_residuals_all_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--gen", "5,2,0,9", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["failed"] == 0
        for name, residual in payload["residuals"].items():
            assert residual == "0", name

    def test_beyond_cap_samples_and_skips(self, capsys):
        code, out, _ = run(capsys, "verify", "--gen", "9,1,0,9", "--cap", "6")
        assert code == 0
        assert "SKIP" in out and "sampled" in out

    def test_float_mode_passes_with_tolerance(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "4", "--seed", "1", "--mode", "float"
        )
        assert code == 0

    # A float residual prints as a float, zero too, as the JSON writes it.
    def test_float_text_prints_zero_residuals_as_floats(self, capsys):
        code, out, _ = run(capsys, "verify", "--gen", "5,1,0,9", "--mode", "float")
        assert code == 0
        assert "residual 0.0 (" in out
        assert "residual 0 (" not in out

    def test_perturbed_coefficient_fails(self, capsys, monkeypatch):
        perturb_kind(
            monkeypatch, 2, "params",
            lambda p: p._replace(zeta=p.zeta + 1),
        )
        code, out, _ = run(capsys, "verify", "--n", "4", "--seed", "1")
        assert code == 2
        assert "FAIL" in out

    def test_size_limit_for_instance_file(self, capsys, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("verify ran past its size limit")

        path = tmp_path / "n33.dat"
        path.write_text(serialize_qaplib(generate_instance(33, 0, 0, 9)))
        monkeypatch.setattr(cli, "run_verification", refuse)
        code, out, err = run(capsys, "verify", "--instance", str(path))
        assert code == 1 and out == ""
        assert "limit 32" in err

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_perturbed_irrep_dimension_fails(self, capsys, monkeypatch, m):
        perturb_kind(monkeypatch, m, "dim", lambda d: d + 1)
        code, out, _ = run(capsys, "verify", "--n", "5", "--format", "json")
        assert code == 2
        failed = [
            c["name"] for c in json.loads(out)["results"]["claims"]
            if not c["skipped"] and not c["passed"]
        ]
        assert failed == [f"closed_form_variance_{m}"]
        code, out, _ = run(capsys, "stats", "--n", "5", "--format", "json")
        assert code == 2
        residuals = json.loads(out)["residuals"]
        assert residuals[f"var_c{m}"] != "0"


def write_overflow_file(directory, n):
    """An instance file of size n with finite entries whose products
    overflow to inf, and whose sums of products then give NaN."""
    path = directory / f"overflow{n}.dat"
    row = " ".join(["1e200"] * n)
    path.write_text(f"{n}\n" + "\n".join([row] * (2 * n)) + "\n")
    return str(path)


class TestFailClosed:
    @pytest.fixture
    def overflow_file(self, tmp_path):
        return write_overflow_file(tmp_path, 4)

    def test_verify_fails_on_overflow(self, capsys, overflow_file):
        code, out, _ = run(capsys, "verify", "--instance", overflow_file)
        assert code == 2
        assert "verification: FAIL" in out
        for line in out.splitlines():
            if "(tol inf)" in line or "residual nan" in line:
                assert line.endswith("]") and "FAIL" in line

    def test_stats_fails_on_overflow(self, capsys, overflow_file):
        code, _, _ = run(capsys, "stats", "--instance", overflow_file)
        assert code == 2

    # Beyond cap 3, 6! = 720 points are sampled, not taken whole: only the
    # closed forms print, and they overflowed. 4! = 24 points are taken whole.
    def test_stats_beyond_cap_fails_on_overflow(self, capsys, tmp_path, overflow_file):
        code, out, _ = run(
            capsys, "stats", "--instance", write_overflow_file(tmp_path, 6), "--cap", "3"
        )
        assert code == 2
        assert "enumerated" not in out
        code, out, _ = run(capsys, "stats", "--instance", overflow_file, "--cap", "3")
        assert code == 2
        assert "enumerated over 24 permutations" in out

    @pytest.mark.parametrize("command", [
        ["verify"], ["stats"],
        ["decompose", "--perm", "0,1,2,3"], ["avg", "--perm", "0,1,2,3"],
    ], ids=["verify", "stats", "decompose", "avg"])
    def test_json_on_overflow_is_strict_json(self, capsys, overflow_file, command):
        code, out, _ = run(capsys, *command, "--instance", overflow_file,
                           "--format", "json")
        assert code == 2

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        json.loads(out, parse_constant=refuse)
        assert '"nan"' in out or '"inf"' in out

    # Valid finite entries whose float squares overflow: squaring by ** 2
    # raised OverflowError (a traceback, exit 1) where * gives inf.
    SQUARE_OVERFLOW = (
        "4\n"
        "2.9e80 1.8e80 4.2e80 2.2e80\n1.5e80 4.2e80 8.3e80 7.4e80\n"
        "7.1e80 2.8e80 5.3e80 3.2e80\n2.4e80 1.8e80 2.7e80 8.4e80\n"
        "7.6e80 7.5e80 7.4e80 2.5e80\n3.5e80 6.0e80 6.9e80 7.8e80\n"
        "8.0e80 1.7e80 5.8e80 6.4e80\n5.0e80 2.4e80 4.8e80 1.7e80\n"
    )
    # Finite entries whose products are infinities of both signs: math.fsum
    # raised ValueError (exit 1), and avg compared inf with an infinite
    # tolerance and passed.
    MIXED_INFINITIES = (
        "3\n0 0 0\n0 -1e154 0\n0 0 0\n"
        "0 -1e154 0\n1e154 1e154 0\n1e154 2e154 -1e154\n"
    )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["stats", "verify", "autocorr"])
    def test_square_overflow_fails(self, capsys, tmp_path, command, fmt):
        path = tmp_path / "square_overflow.dat"
        path.write_text(self.SQUARE_OVERFLOW)
        code, _, _ = run(capsys, command, "--instance", str(path), "--format", fmt)
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", [
        ["decompose", "--perm", "0,1,2"], ["avg", "--perm", "0,1,2"],
        ["stats"], ["verify"], ["autocorr"],
    ], ids=["decompose", "avg", "stats", "verify", "autocorr"])
    def test_mixed_infinities_fail(self, capsys, tmp_path, command, fmt):
        path = tmp_path / "mixed_infinities.dat"
        path.write_text(self.MIXED_INFINITIES)
        code, _, _ = run(capsys, *command, "--instance", str(path), "--format", fmt)
        assert code == 2

    # In a fresh process, so that any warning would reach stderr.
    @pytest.mark.parametrize("text", [SQUARE_OVERFLOW, MIXED_INFINITIES],
                             ids=["square_overflow", "mixed_infinities"])
    def test_autocorr_overflow_writes_nothing_to_stderr(self, tmp_path, text):
        path = tmp_path / "overflow.dat"
        path.write_text(text)
        done = TestModuleEntryPoints._run("qaplandscape", "autocorr", "--instance", str(path))
        assert done.returncode == 2
        assert done.stderr == ""

    # Rational walk values beyond the float range: float() raised
    # OverflowError (a traceback, exit 1). csv writes the exact series.
    @pytest.mark.parametrize("fmt, status", [("text", 2), ("json", 2), ("csv", 0)])
    def test_autocorr_rational_overflow_fails_closed(self, capsys, fmt, status):
        code, out, err = run(capsys, "autocorr", "--gen", f"5,1,0,{10**200}",
                             "--steps", "200", "--max-lag", "2", "--format", fmt)
        assert code == status and err == ""
        assert ("nan" in out) == (fmt != "csv")

    def test_autocorr_nan_at_later_lag_fails(self, capsys, monkeypatch):
        def fake(problem, steps, walk_seed, max_lag, **kwargs):
            _, series = real(problem, steps, walk_seed, max_lag, **kwargs)
            report = AutocorrReport(
                empirical=[1.0, 0.5, math.nan],
                theoretical=[1, Fraction(1, 2), Fraction(1, 4)],
                weights=(Fraction(1, 3),) * 3,
                coefficient=Fraction(1),
                bounds=(Fraction(1), Fraction(2)),
            )
            return report, series

        real = cli.analyze_autocorr
        monkeypatch.setattr(cli, "analyze_autocorr", fake)
        code, out, _ = run(
            capsys, "autocorr", "--gen", "5,3,0,9",
            "--steps", "200", "--max-lag", "2",
        )
        assert code == 2
        assert "nan" in out and "FAIL" in out


class TestAutocorr:
    def test_text_report(self, capsys):
        code, out, _ = run(
            capsys, "autocorr", "--gen", "5,3,0,9",
            "--steps", "2000", "--walk-seed", "1", "--max-lag", "4",
        )
        assert code == 0
        assert "xi = 1/(1 - r(1))" in out
        assert "variance weights (exact)" in out
        assert "inside" in out

    def test_csv_emits_walk_series(self, capsys):
        code, out, _ = run(
            capsys, "autocorr", "--gen", "4,3,0,9",
            "--steps", "25", "--walk-seed", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "step,fitness"
        assert len(lines) == 27

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "autocorr", "--gen", "5,3,0,9",
            "--steps", "2000", "--walk-seed", "1", "--max-lag", "3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        res = payload["results"]
        assert res["variance_source"] == "exact"
        assert len(res["empirical"]) == 4
        assert res["theoretical"][0] == "1"
        assert Fraction(res["xi_bounds"][0]) == 1
        assert "autocorr_max_abs_diff" in payload["residuals"]

    # An empty comparison, lags 1..0, reads zero and passes.
    @pytest.mark.parametrize("fmt, line", [
        ("json", '"autocorr_max_abs_diff": 0.0'),
        ("text", "over lags 1..0: 0.000000 (tol"),
    ])
    def test_max_lag_zero_compares_nothing(self, capsys, fmt, line):
        code, out, _ = run(
            capsys, "autocorr", "--gen", "5,3,0,9",
            "--steps", "2000", "--walk-seed", "1", "--max-lag", "0", "--format", fmt,
        )
        assert code == 0
        assert line in out

    def test_max_lag_validation(self, capsys):
        code, _, err = run(
            capsys, "autocorr", "--gen", "4,1,0,9",
            "--steps", "30", "--max-lag", "5",
        )
        assert code == 1 and "max_lag" in err

    # The lag rule holds for every format and is checked before any
    # instance is built; csv, which writes the series alone, checks only a
    # --max-lag that was given (test_csv_emits_walk_series runs 25 steps).
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("lag_args, message", [
        (["--max-lag", "-3"], "max_lag must be nonnegative"),
        (["--max-lag", "50", "--steps", "20"], "max_lag 50 too large for a 20-step walk"),
    ], ids=["negative", "beyond-steps"])
    def test_invalid_max_lag_is_refused_in_every_format(
        self, capsys, monkeypatch, fmt, lag_args, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was built for an invalid --max-lag")

        monkeypatch.setattr(cli, "generate_instance", refuse)
        code, out, err = run(
            capsys, "autocorr", "--gen", "5,1,0,9", "--format", fmt, *lag_args
        )
        assert code == 1 and out == ""
        assert message in err

    def test_exact_source_beyond_cap(self, capsys):
        code, out, _ = run(
            capsys, "autocorr", "--gen", "9,1,0,9",
            "--steps", "3000", "--walk-seed", "2", "--max-lag", "2",
            "--cap", "6", "--format", "json",
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["variance_source"] == "exact"
        weights = [Fraction(w) for w in res["weights"]]
        assert weights == list(component_weights(generate_instance(9, 1, 0, 9)))

    # At n = 200 each lag adds about four digits to the exact predicted
    # r(s); entries up to 10**100 add more, and r(1000) there has 4,409
    # digits, more than Python writes as text (4,300 by default). It is
    # refused before the walk, and formed alone before the other lags.
    UNPRINTABLE = ["--gen", f"200,0,0,{10**100}", "--steps", "10001", "--max-lag", "1000"]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_unprintable_exact_lag_is_refused_before_the_walk(
        self, capsys, monkeypatch, fmt
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the walk ran for an unprintable --max-lag")

        lags = []
        real = spectral._predicted_autocorr

        def record(weights, n, exact, wanted):
            lags.append(list(wanted))
            return real(weights, n, exact, wanted)

        monkeypatch.setattr(spectral, "random_walk", refuse)
        monkeypatch.setattr(spectral, "_predicted_autocorr", record)
        code, out, err = run(capsys, "autocorr", *self.UNPRINTABLE, "--format", fmt)
        assert code == 1 and out == ""
        assert "r(1000) has more than" in err and "--mode float" in err
        assert lags == [[1000]]

    def test_printable_exact_lag_still_prints(self, capsys):
        code, out, err = run(
            capsys, "autocorr", "--n", "200", "--steps", "12000",
            "--max-lag", "900", "--format", "json",
        )
        assert code == 2 and err == ""
        theoretical = json.loads(out)["results"]["theoretical"]
        assert len(theoretical) == 901
        assert len(theoretical[900].split("/")[1]) > 3000

    def test_float_mode_is_never_refused_a_lag(self, capsys):
        code, out, err = run(capsys, "autocorr", *self.UNPRINTABLE,
                             "--mode", "float", "--format", "json")
        assert code == 2 and err == ""
        assert len(json.loads(out)["results"]["theoretical"]) == 1001

    # The estimator costs O(steps * max_lag): --max-lag is bounded in every
    # format, before any instance is built, even where steps/10 allows more.
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_max_lag_limit(self, capsys, monkeypatch, fmt):
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was built beyond the --max-lag limit")

        monkeypatch.setattr(cli, "generate_instance", refuse)
        code, out, err = run(capsys, "autocorr", "--n", "6", "--steps", "1000000",
                             "--max-lag", str(cli.MAX_LAG + 1), "--format", fmt)
        assert code == 1 and out == ""
        assert f"--max-lag {cli.MAX_LAG + 1} exceeds the limit {cli.MAX_LAG}" in err

    # The estimator's steps * max_lag terms are bounded where it runs, in
    # json and text, before any instance is built.
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_estimator_terms_limit(self, capsys, monkeypatch, fmt):
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was built beyond the estimator limit")

        monkeypatch.setattr(cli, "generate_instance", refuse)
        code, out, err = run(capsys, "autocorr", "--n", "6", "--steps", "1000000",
                             "--max-lag", "1000", "--format", fmt)
        assert code == 1 and out == ""
        assert f"beyond the limit {cli.MAX_ESTIMATOR_TERMS}" in err

    # csv writes the walk alone, so the bound does not apply there; a product
    # at the bound itself is served.
    @pytest.mark.parametrize("fmt, steps, code", [
        ("json", 2001, 1), ("text", 2001, 1), ("csv", 2001, 0),
        ("json", 2000, 0), ("text", 2000, 0),
    ])
    def test_estimator_terms_limit_by_format(self, capsys, monkeypatch, fmt, steps, code):
        monkeypatch.setattr(cli, "MAX_ESTIMATOR_TERMS", 10_000)
        got, out, err = run(capsys, "autocorr", "--n", "5", "--steps", str(steps),
                            "--max-lag", "5", "--format", fmt)
        assert got == code
        assert ("beyond the limit 10000" in err) == (code == 1)
        if fmt == "csv":
            assert len(out.strip().split("\n")) == steps + 2

    # Every distance equal makes the objective constant. The float twin's
    # walk repeats one value exactly and is refused like the integer one.
    @pytest.mark.parametrize("distance", ["1", "0.1"])
    def test_constant_objective_is_refused(self, capsys, tmp_path, distance):
        flow = [[(3 * i + 5 * j) % 7 * (i != j) for j in range(5)] for i in range(5)]
        rows = [" ".join(map(str, row)) for row in flow] + [" ".join([distance] * 5)] * 5
        path = tmp_path / "flat.dat"
        path.write_text("5\n" + "\n".join(rows) + "\n")
        code, out, err = run(capsys, "autocorr", "--instance", str(path))
        assert code == 1 and out == ""
        assert "series is constant" in err


class TestStats:
    def test_text_within_cap(self, capsys):
        code, out, _ = run(capsys, "stats", "--gen", "4,5,0,9")
        assert code == 0
        assert "closed-form means" in out
        assert "enumerated over 24 permutations" in out
        assert "mean residual = 0" in out

    def test_json_beyond_cap(self, capsys):
        code, out, _ = run(
            capsys, "stats", "--gen", "9,5,0,9", "--cap", "6",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        res = payload["results"]
        assert "enumerated_variances" not in res
        closed = component_variances(generate_instance(9, 5, 0, 9))
        assert res["closed_form_variances"] == {
            k: str(v) for k, v in zip(("c1", "c2", "c3", "total"), closed)
        }
        assert payload["residuals"] == {}

    # A space of at most 200 points is taken whole at any cap, as by verify.
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_small_space_is_taken_whole_beyond_the_cap(self, capsys, fmt):
        code, whole, _ = run(capsys, "stats", "--n", "5", "--cap", "0", "--format", fmt)
        assert code == 0
        assert "enumerated" in whole
        assert run(capsys, "stats", "--n", "5", "--cap", "8", "--format", fmt) == (0, whole, "")

    def test_closed_form_matches_enumeration(self, capsys):
        code, out, _ = run(
            capsys, "stats", "--gen", "5,5,0,9", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        res = payload["results"]
        assert res["closed_form_means"] == res["enumerated_means"]


class TestHelp:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "decompose" in out and "verify" in out

    def test_cap_and_seed_help_name_their_commands(self, capsys):
        code, out, _ = run(capsys, "stats", "--help")
        assert code == 0
        text = " ".join(out.split())
        assert "exhaustive checks of stats and verify (default 8); at most 9" in text
        assert "also seeds verify's sampling" in text


class TestParserReuse:
    """One parser serves every run_cli call of a process; each call must
    print what it prints with a parser of its own."""

    SEQUENCE = [
        ["decompose", "--n", "5", "--perm", "4,0,3,1,2"],
        ["stats", "--n", "5"],
        ["autocorr", "--n", "5", "--steps", "2000", "--max-lag", "2"],
        ["autocorr", "--n", "5", "--steps", "2000"],
        ["autocorr", "--n", "5", "--steps", "50", "--format", "csv"],
        ["stats", "--n", "6", "--cap", "5", "--format", "json"],
        ["stats", "--n", "6", "--format", "json"],
        ["verify", "--n", "5", "--cap", "0", "--mode", "float"],
        ["verify", "--n", "5"],
        ["decompose", "--n", "5"],
        ["avg", "--gen", "5,2,0,9", "--perm", "4,0,3,1,2", "--flow-first"],
        ["avg", "--gen", "5,2,0,9", "--perm", "4,0,3,1,2"],
    ]

    def test_shared_parser_prints_what_fresh_ones_print(self, capsys):
        fresh = []
        for argv in self.SEQUENCE:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        cli.build_parser.cache_clear()
        shared = [run(capsys, *argv) for argv in self.SEQUENCE]
        assert cli.build_parser.cache_info().misses == 1
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0] * 9 + [1, 0, 0]


class TestModuleEntryPoints:
    """`python -m qaplandscape` and `python -m qaplandscape.cli` run the CLI
    from a source checkout, exit codes included."""

    @staticmethod
    def _python(*args):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": path},
        )

    @classmethod
    def _run(cls, module, *argv):
        return cls._python("-m", module, *argv)

    # A process in which importing numpy fails runs every command as this
    # one does: the library needs only the standard library.
    WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from qaplandscape.cli import run_cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""

    def test_every_command_runs_without_numpy(self, capsys):
        gen5 = ["--gen", "5,1,0,9"]
        commands = [
            ["decompose", *gen5, "--perm", "3,1,4,0,2"],
            ["avg", *gen5, "--perm", "3,1,4,0,2"],
            ["verify", *gen5],
            ["stats", *gen5],
            ["autocorr", *gen5, "--steps", "2000"],
        ]
        done = self._python("-c", self.WITHOUT_NUMPY, json.dumps(commands))
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        runs = json.loads(done.stdout)
        assert [list(run(capsys, *argv)) for argv in commands] == runs
        assert [code for code, _, _ in runs] == [0] * 5

    @pytest.mark.parametrize("module", ["qaplandscape", "qaplandscape.cli"])
    def test_verify_exit_codes(self, module):
        done = self._run(module, "verify", "--n", "4")
        assert done.returncode == 0
        assert "verification: PASS (13 claims, 0 failed, 0 skipped)" in done.stdout
        refused = self._run(module, "verify", "--gen", "33,0,0,9")
        assert refused.returncode == 1
        assert "exceeds the limit 32" in refused.stderr
