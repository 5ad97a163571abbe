"""Golden CLI outputs: every command and format on four instance sources,
replayed byte for byte.

The files under tests/golden/ hold the stdout of each case and
exit_codes.json its exit code. To record them afresh (only when an output
is meant to change), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from qaplandscape.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"
DECIMAL_FILE = "decimal5.dat"

# name -> (source arguments, permutation for decompose/avg)
SOURCES = {
    "gen5": (["--gen", "5,1,0,9"], "3,1,4,0,2"),
    "gen5-float": (["--gen", "5,1,0,9", "--mode", "float"], "3,1,4,0,2"),
    "gen6-cap4": (["--gen", "6,2,0,9", "--cap", "4"], "5,3,1,0,2,4"),
    "decimal5": (["--instance", DECIMAL_FILE], "1,4,0,2,3"),
}

WALK = ["--steps", "2000", "--walk-seed", "3", "--max-lag", "3"]


def decimal_instance_text() -> str:
    """An n=5 instance whose entries carry two decimals (float mode)."""
    rng = random.Random(2011)
    lines = ["5", ""]
    for _ in range(2):
        for _ in range(5):
            lines.append(" ".join(f"{rng.randint(0, 999) / 100:.2f}" for _ in range(5)))
        lines.append("")
    return "\n".join(lines)


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


def run_case(argv, instance_path: Path):
    argv = [str(instance_path) if a == DECIMAL_FILE else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_cli(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / DECIMAL_FILE
    path.write_text(decimal_instance_text())
    return path


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


CASES = cases()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv, instance_path, exit_codes):
    code, out = run_case(argv, instance_path)
    assert code == exit_codes[name]
    assert out == (GOLDEN / f"{name}.txt").read_text()


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    instance = GOLDEN / DECIMAL_FILE
    instance.write_text(decimal_instance_text())
    codes = {}
    try:
        for name, argv in CASES:
            codes[name], out = run_case(argv, instance)
            (GOLDEN / f"{name}.txt").write_text(out)
    finally:
        instance.unlink()
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    _record()
    sys.exit(0)
