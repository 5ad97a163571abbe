"""Golden CLI outputs: every command and format on five instance sources,
replayed byte for byte.

The files under tests/golden/ hold the stdout of each case and
exit_codes.json its exit code. To record them afresh (only when an output
is meant to change), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import builtins
import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qaplandscape
from qaplandscape.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"
# Instance files the sources name, written from decimal_instance_text(n).
INSTANCE_FILES = {"decimal5.dat": 5, "decimal7.dat": 7}

# name -> (source arguments, permutation for decompose/avg)
SOURCES = {
    "gen5": (["--gen", "5,1,0,9"], "3,1,4,0,2"),
    "gen5-float": (["--gen", "5,1,0,9", "--mode", "float"], "3,1,4,0,2"),
    "gen6-cap4": (["--gen", "6,2,0,9", "--cap", "4"], "5,3,1,0,2,4"),
    "decimal5": (["--instance", "decimal5.dat"], "1,4,0,2,3"),
    # 7! = 5040 points beyond the cap: every sampled path on float entries.
    "decimal7-cap4": (["--instance", "decimal7.dat", "--cap", "4"], "6,4,2,0,1,3,5"),
}

WALK = ["--steps", "2000", "--walk-seed", "3", "--max-lag", "3"]


def decimal_instance_text(n: int = 5) -> str:
    """A seeded size-n instance whose entries carry two decimals (float
    mode)."""
    rng = random.Random(2011)
    lines = [str(n), ""]
    for _ in range(2):
        for _ in range(n):
            lines.append(" ".join(f"{rng.randint(0, 999) / 100:.2f}" for _ in range(n)))
        lines.append("")
    return "\n".join(lines)


def write_instances(directory: Path) -> None:
    for name, n in INSTANCE_FILES.items():
        (directory / name).write_text(decimal_instance_text(n))


def cases():
    """(case name, argv) for every command and format on every source."""
    out = []
    for src, (src_args, perm) in SOURCES.items():
        for fmt in ("json", "text"):
            out.append((f"{src}__decompose_{fmt}",
                        ["decompose", *src_args, "--perm", perm, "--format", fmt]))
            out.append((f"{src}__avg_{fmt}",
                        ["avg", *src_args, "--perm", perm, "--format", fmt]))
            out.append((f"{src}__verify_{fmt}", ["verify", *src_args, "--format", fmt]))
            out.append((f"{src}__stats_{fmt}", ["stats", *src_args, "--format", fmt]))
            out.append((f"{src}__autocorr_{fmt}",
                        ["autocorr", *src_args, *WALK, "--format", fmt]))
        out.append((f"{src}__autocorr_csv",
                    ["autocorr", *src_args, "--steps", "50", "--format", "csv"]))
    return out


def run_case(argv, instance_dir: Path):
    argv = [str(instance_dir / a) if a in INSTANCE_FILES else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_cli(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_instances(directory)
    return directory


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


CASES = cases()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv, instance_dir, exit_codes):
    code, out = run_case(argv, instance_dir)
    assert code == exit_codes[name]
    assert out == (GOLDEN / f"{name}.txt").read_text()


def compensated_sum(iterable, /, start=0):
    """The builtin sum as Python 3.12 and later form it: int and Fraction
    terms add exactly, floats with Neumaier's compensation, and the
    compensation is added at the end where it is finite."""
    items = list(iterable)
    if all(isinstance(v, (int, Fraction)) for v in [start, *items]):
        return builtins.sum(items, start)
    result, c = float(start), 0.0
    for v in items:
        x = float(v)
        t = result + x
        if abs(result) >= abs(x):
            c += (result - t) + x
        else:
            c += (x - t) + result
        result = t
    if c and math.isfinite(c):
        result += c
    return result


def test_compensated_sum_differs_from_the_plain_sum():
    values = [0.1] * 10
    assert builtins.sum(values) != 1.0
    assert compensated_sum(values) == 1.0
    assert compensated_sum([1, Fraction(1, 3)]) == Fraction(4, 3)


def test_goldens_hold_under_compensated_sum(instance_dir, exit_codes, monkeypatch):
    """Every golden replays byte for byte when each library module's sum is
    the compensated one of Python 3.12 and later: no output depends on how
    the interpreter sums floats."""
    modules = [m for name, m in sys.modules.items()
               if name == "qaplandscape" or name.startswith("qaplandscape.")]
    assert qaplandscape.core in modules and qaplandscape.decomposition in modules
    for module in modules:
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    for name, argv in CASES:
        code, out = run_case(argv, instance_dir)
        assert code == exit_codes[name], name
        assert out == (GOLDEN / f"{name}.txt").read_text(), name


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    write_instances(GOLDEN)
    codes = {}
    try:
        for name, argv in CASES:
            codes[name], out = run_case(argv, GOLDEN)
            (GOLDEN / f"{name}.txt").write_text(out)
    finally:
        for name in INSTANCE_FILES:
            (GOLDEN / name).unlink()
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    _record()
    sys.exit(0)
