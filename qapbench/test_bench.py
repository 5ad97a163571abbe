"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest qapbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workload  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import make_inputs, spec_for  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "qapbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke_result(name: str, trace: int, seed: int = 3) -> dict:
    proc = run_bench("--workload", name, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_emitted_with_correct_outputs(name):
    # The traced run fails an operation whose output differs from the
    # untraced cycle, so "correct" here also means tracing changed nothing.
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line = smoke_result(name, trace)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        units = {k: v["unit"] for k, v in line["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in BENCH[key]}


def test_traced_counts_repeat_exactly():
    counts = [
        {k: v["value"] for k, v in smoke_result("exhaustive-n6", 1)["metrics"].items()
         if v["unit"] in ("count", "bytes")}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["oracle.variance_triple_calls"] >= 1


def test_cycle_outputs_are_compared(tmp_path):
    spec = spec_for("sampled-float-n12", "smoke")
    work = workload.Workload(make_inputs(spec, 5, tmp_path))
    work.cycle()
    assert work.failures == []
    work.reference[("avg", 0)] = "tampered"
    work.cycle()
    assert len(work.failures) == 1 and "differs from its first run" in work.failures[0]


def test_tracer_wraps_every_binding_and_restores_it():
    import qaplandscape
    from qaplandscape import cli, decomposition, oracle, spectral
    from qaplandscape.core import QapInstance

    originals = (decomposition.decompose, QapInstance.fitness, spectral.random_walk)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = decomposition.decompose
        assert wrapped is not originals[0]
        assert oracle.decompose is cli.decompose is qaplandscape.decompose is wrapped
        assert cli.random_walk is spectral.random_walk is not originals[2]
        assert QapInstance.fitness is not originals[1]
    finally:
        tracer.uninstall()
    assert (decomposition.decompose, QapInstance.fitness, spectral.random_walk) == originals
    assert oracle.decompose is cli.decompose is qaplandscape.decompose is originals[0]


def test_inputs_follow_the_seed(tmp_path):
    spec = spec_for("sampled-float-n12", "smoke")
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    make_inputs(spec, 11, a)
    make_inputs(spec, 11, b)
    make_inputs(spec, 12, c)
    assert (a / "instance.dat").read_text() == (b / "instance.dat").read_text()
    assert (a / "instance.dat").read_text() != (c / "instance.dat").read_text()


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "qapbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
