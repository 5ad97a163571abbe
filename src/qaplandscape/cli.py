"""Command-line driver tying the library together.

Exit codes: 0 success, 1 validation failure (bad flags, malformed input,
unreadable files), 2 verification failure (some residual above tolerance).

Permutations on the command line are 0-based comma-separated lists; the
classical formulation indexes positions from 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Tuple

from .core import Permutation, QapInstance
from .decomposition import average_triple, decompose, neighborhood_avg_wave
from .oracle import (
    evaluate_points,
    moments,
    neighborhood_avg_brute,
    space_points,
    variance_triple,
)
from .qaplib import generate_instance, parse_qaplib
from .spectral import DEFAULT_SAMPLES, analyze_autocorr, random_walk
from .verification import run_verification


# Resource limits on flag values, checked before any instance is built.
MAX_CAP = 10  # 10! = 3,628,800 enumerated permutations
MAX_GENERATED_SIZE = 200  # 2 n^2 generated entries
MAX_STEPS = 1_000_000


class CliError(Exception):
    """Invalid usage or input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@dataclass(frozen=True)
class AnalysisConfig:
    """One validated invocation: command, instance source, and knobs."""

    command: str
    instance_path: Optional[str]
    generator: Optional[Tuple[int, int, int, int]]  # (n, seed, lo, hi)
    mode: Optional[str]
    cap: int
    fmt: str
    flow_first: bool
    seed: int
    perm: Optional[str] = None
    steps: int = 10000
    walk_seed: int = 0
    max_lag: int = 5

    def __post_init__(self):
        if (self.instance_path is None) == (self.generator is None):
            raise CliError(
                "exactly one instance source is required: --instance PATH "
                "or --gen N,SEED,LO,HI (or --n with --seed/--lo/--hi)"
            )
        if self.fmt == "csv" and self.command != "autocorr":
            raise CliError("csv output is only defined for walk series (autocorr)")
        if self.cap > MAX_CAP:
            raise CliError(f"--cap {self.cap} exceeds the limit {MAX_CAP}")
        if self.generator is not None and self.generator[0] > MAX_GENERATED_SIZE:
            raise CliError(
                f"generated size {self.generator[0]} exceeds the limit "
                f"{MAX_GENERATED_SIZE}"
            )
        if self.steps > MAX_STEPS:
            raise CliError(f"--steps {self.steps} exceeds the limit {MAX_STEPS}")


def _config_from_args(args) -> AnalysisConfig:
    generator = None
    if args.gen is not None:
        parts = args.gen.split(",")
        if len(parts) != 4:
            raise CliError("--gen wants four integers: N,SEED,LO,HI")
        try:
            generator = tuple(int(x) for x in parts)
        except ValueError:
            raise CliError(f"--gen wants integers, got {args.gen!r}") from None
    elif args.n is not None:
        generator = (args.n, args.seed, args.lo, args.hi)
    return AnalysisConfig(
        command=args.command,
        instance_path=args.instance,
        generator=generator,
        mode=args.mode,
        cap=args.cap,
        fmt=args.fmt,
        flow_first=args.flow_first,
        seed=args.seed,
        perm=getattr(args, "perm", None),
        steps=getattr(args, "steps", 10000),
        walk_seed=getattr(args, "walk_seed", 0),
        max_lag=getattr(args, "max_lag", 5),
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="qaplandscape",
        description=(
            "Elementary-landscape decomposition of quadratic assignment "
            "instances under the swap neighborhood."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    src = common.add_argument_group("instance source (exactly one)")
    src.add_argument("--instance", metavar="PATH", help="QAPLIB-format text file")
    src.add_argument("--gen", metavar="N,SEED,LO,HI",
                     help="seeded uniform integer instance")
    src.add_argument("--n", type=int, help="generator shorthand: size")
    src.add_argument("--seed", type=int, default=0, help="generator shorthand: seed")
    src.add_argument("--lo", type=int, default=0, help="generator shorthand: low bound")
    src.add_argument("--hi", type=int, default=9, help="generator shorthand: high bound")
    common.add_argument("--mode", choices=["rational", "float"],
                        help="arithmetic mode (default: rational for integer entries)")
    common.add_argument("--cap", type=int, default=8,
                        help="enumeration cap on n for exhaustive checks (default 8)")
    common.add_argument("--format", choices=["json", "csv", "text"],
                        default="text", dest="fmt")
    common.add_argument("--flow-first", action="store_true",
                        help="read the flow matrix before the distance matrix")

    p = sub.add_parser("decompose", parents=[common],
                       help="split f(x) into its three elementary components")
    p.add_argument("--perm", required=True, metavar="LIST",
                   help="0-based comma-separated permutation")

    sub.add_parser("verify", parents=[common],
                   help="replay every decomposition identity against enumeration")

    p = sub.add_parser("avg", parents=[common],
                       help="wave-equation vs brute-force neighborhood average")
    p.add_argument("--perm", required=True, metavar="LIST",
                   help="0-based comma-separated permutation")

    p = sub.add_parser("autocorr", parents=[common],
                       help="random-walk autocorrelation, empirical vs predicted")
    p.add_argument("--steps", type=int, default=10000, help="walk length")
    p.add_argument("--walk-seed", type=int, default=0, dest="walk_seed")
    p.add_argument("--max-lag", type=int, default=5, dest="max_lag")

    sub.add_parser("stats", parents=[common],
                   help="closed-form component means and enumerated moments")
    return parser


def _load_problem(config: AnalysisConfig) -> QapInstance:
    if config.instance_path is not None:
        try:
            text = Path(config.instance_path).read_text()
        except OSError as exc:
            raise CliError(f"cannot read instance file: {exc}") from None
        inst = parse_qaplib(text, flow_first=config.flow_first)
    else:
        inst = generate_instance(*config.generator)

    if config.mode == "float":
        inst = inst.as_float()
    elif config.mode == "rational" and not inst.exact:
        raise CliError("rational mode requires integer entries; this instance has floats")
    return inst


def _parse_perm(text: str, n: int) -> Permutation:
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise CliError(f"malformed permutation {text!r}: entries must be integers") from None
    if len(values) != n:
        raise CliError(f"permutation has {len(values)} entries, instance needs {n}")
    try:
        return Permutation(values)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _mode(problem) -> str:
    return "rational" if problem.exact else "float"


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    return str(v)


class _Count(int):
    """Structural integer (a count, a seed); serializes as a plain number."""


def _jsonify(value, exact: bool):
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, _Count):
        return int(value)
    if isinstance(value, float):
        return value
    if isinstance(value, (int, Fraction)):
        return str(Fraction(value)) if exact else float(value)
    if isinstance(value, Permutation):
        return list(value.mapping)
    if isinstance(value, dict):
        return {k: _jsonify(v, exact) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v, exact) for v in value]
    raise TypeError(f"cannot serialize {value!r}")


def _emit_json(command: str, problem, results: dict, residuals: dict) -> None:
    payload = {
        "n": problem.n,
        "mode": _mode(problem),
        "command": command,
        "results": _jsonify(results, problem.exact),
        "residuals": _jsonify(residuals, problem.exact),
    }
    print(json.dumps(payload, indent=2))


def _sum_tolerance(problem, *values) -> float:
    if problem.exact:
        return 0
    scale = max([1.0] + [abs(float(v)) for v in values])
    return 1e-9 * scale


def _cmd_decompose(problem, config: AnalysisConfig) -> int:
    x = _parse_perm(config.perm, problem.n)
    f = problem.fitness(x)
    t = decompose(problem, x)
    residual = abs(t.total - f)
    tol = _sum_tolerance(problem, f)
    ok = residual <= tol
    results = {"f": f, "c1": t.c1, "c2": t.c2, "c3": t.c3, "total": t.total}
    residuals = {"decomposition_sum": residual}
    if config.fmt == "json":
        _emit_json("decompose", problem, results, residuals)
    else:
        print(f"n = {problem.n}, mode = {_mode(problem)}, x = {list(x.mapping)}")
        print(f"f(x)       = {_fmt(f)}")
        print(f"c1(x)      = {_fmt(t.c1)}")
        print(f"c2(x)      = {_fmt(t.c2)}")
        print(f"c3(x)      = {_fmt(t.c3)}")
        print(f"c1+c2+c3   = {_fmt(t.total)}")
        print(f"sum check: residual {_fmt(residual)} ({'OK' if ok else 'FAIL'})")
    return 0 if ok else 2


def _cmd_avg(problem, config: AnalysisConfig) -> int:
    x = _parse_perm(config.perm, problem.n)
    wave = neighborhood_avg_wave(problem, x)
    brute = neighborhood_avg_brute(problem.fitness, x)
    residual = abs(wave - brute)
    tol = _sum_tolerance(problem, wave, brute)
    ok = residual <= tol
    results = {"wave": wave, "brute": brute}
    residuals = {"neighborhood_average": residual}
    if config.fmt == "json":
        _emit_json("avg", problem, results, residuals)
    else:
        print(f"n = {problem.n}, mode = {_mode(problem)}, x = {list(x.mapping)}")
        print(f"wave-equation average : {_fmt(wave)}")
        print(f"brute-force average   : {_fmt(brute)}")
        print(f"residual {_fmt(residual)} ({'OK' if ok else 'FAIL'})")
    return 0 if ok else 2


def _cmd_verify(problem, config: AnalysisConfig) -> int:
    claims = run_verification(problem, cap=config.cap, seed=config.seed)
    failed = sum(1 for c in claims if not c.skipped and not c.passed)
    skipped = sum(1 for c in claims if c.skipped)
    results = {
        "claims": [
            {
                "name": c.name,
                "residual": c.residual,
                "tolerance": c.tolerance,
                "passed": c.passed,
                "skipped": c.skipped,
                "detail": c.detail,
            }
            for c in claims
        ],
        "failed": _Count(failed),
        "skipped": _Count(skipped),
    }
    residuals = {c.name: c.residual for c in claims}
    if config.fmt == "json":
        _emit_json("verify", problem, results, residuals)
    else:
        print(f"n = {problem.n}, mode = {_mode(problem)}, cap = {config.cap}")
        for c in claims:
            if c.skipped:
                print(f"claim {c.name}: SKIP ({c.detail})")
            else:
                verdict = "PASS" if c.passed else "FAIL"
                print(
                    f"claim {c.name}: residual {_fmt(c.residual)} "
                    f"(tol {_fmt(c.tolerance)}) {verdict}  [{c.detail}]"
                )
        verdict = "PASS" if failed == 0 else "FAIL"
        print(
            f"verification: {verdict} "
            f"({len(claims)} claims, {failed} failed, {skipped} skipped)"
        )
    return 0 if failed == 0 else 2


def _cmd_autocorr(problem, config: AnalysisConfig) -> int:
    if config.fmt == "csv":
        series = random_walk(problem, config.steps, config.walk_seed)
        sys.stdout.write(series.to_csv())
        return 0
    source = "exact" if problem.n <= config.cap else "sampled"
    report, series = analyze_autocorr(
        problem, config.steps, config.walk_seed, config.max_lag,
        variance_source=source, cap=config.cap, samples=DEFAULT_SAMPLES,
    )
    diffs = [
        abs(e - float(t))
        for e, t in zip(report.empirical[1:], report.theoretical[1:])
    ]
    residual = max(diffs, default=0.0)
    if any(math.isnan(v) for v in diffs):  # max() drops a NaN that is not first
        residual = math.nan
    # Estimator standard error scales as 1/sqrt(steps); 0.02 at 1e5 steps.
    tol = 0.02 * math.sqrt(100000 / config.steps)
    ok = residual <= tol
    lo, hi = report.bounds
    in_bounds = lo <= report.coefficient <= hi
    results = {
        "steps": _Count(series.steps),
        "walk_seed": _Count(series.seed),
        "start": series.start,
        "variance_source": source,
        "weights": list(report.weights),
        "empirical": report.empirical,
        "theoretical": list(report.theoretical),
        "xi": report.coefficient,
        "xi_bounds": [lo, hi],
    }
    residuals = {"autocorr_max_abs_diff": residual}
    if config.fmt == "json":
        _emit_json("autocorr", problem, results, residuals)
    else:
        print("autocorrelation of the objective along a uniform random swap walk")
        print("coefficient definition: xi = 1/(1 - r(1)); "
              "for this neighborhood (n-1)/4 <= xi <= (n-1)/2")
        print(
            f"n = {problem.n}, mode = {_mode(problem)}, steps = {series.steps}, "
            f"walk seed = {series.seed}, max lag = {config.max_lag}"
        )
        w1, w2, w3 = report.weights
        print(
            f"variance weights ({source}): W1 = {_fmt(w1)}, "
            f"W2 = {_fmt(w2)}, W3 = {_fmt(w3)}"
        )
        print(" lag  empirical     predicted")
        for s, (e, t) in enumerate(zip(report.empirical, report.theoretical)):
            print(f"{s:4d}  {e:+.6f}    {_fmt(t)}")
        print(
            f"xi = {_fmt(report.coefficient)} in [{_fmt(lo)}, {_fmt(hi)}] "
            f"-> {'inside' if in_bounds else 'OUTSIDE'}"
        )
        print(
            f"max |empirical - predicted| over lags 1..{config.max_lag}: "
            f"{residual:.6f} (tol {tol:.6f}) {'OK' if ok else 'FAIL'}"
        )
    return 0 if ok and in_bounds else 2


def _cmd_stats(problem, config: AnalysisConfig) -> int:
    a = average_triple(problem)
    results = {
        "closed_form_means": {
            "c1": a.a1, "c2": a.a2, "c3": a.a3, "total": a.total,
        }
    }
    residuals: dict = {}
    exit_code = 0
    within_cap = problem.n <= config.cap
    if within_cap:
        keys = ("c1", "c2", "c3", "total")
        columns = evaluate_points(problem, space_points(problem.n))
        stats = [moments(col) for col in columns]
        results["enumerated_means"] = {k: s[0] for k, s in zip(keys, stats)}
        results["enumerated_variances"] = {k: s[1] for k, s in zip(keys, stats)}
        results["count"] = _Count(len(columns[3]))
        for key, (mean, _), closed in zip(keys, stats, a):
            residuals[f"mean_{key}"] = abs(mean - closed)
        tol = _sum_tolerance(problem, a.total)
        if any(not v <= tol for v in residuals.values()):
            exit_code = 2
    else:
        vt = variance_triple(problem, cap=0, samples=DEFAULT_SAMPLES, seed=0)
        results["sampled_variances"] = {
            "c1": vt.c1, "c2": vt.c2, "c3": vt.c3, "total": vt.total,
            "samples": _Count(DEFAULT_SAMPLES),
        }

    if config.fmt == "json":
        _emit_json("stats", problem, results, residuals)
    else:
        print(f"n = {problem.n}, mode = {_mode(problem)}")
        print("closed-form means:")
        print(f"  c1 = {_fmt(a.a1)}")
        print(f"  c2 = {_fmt(a.a2)}")
        print(f"  c3 = {_fmt(a.a3)}")
        print(f"  f  = {_fmt(a.total)}")
        if within_cap:
            print(f"enumerated over {results['count']} permutations:")
            for key in ("c1", "c2", "c3", "total"):
                print(
                    f"  {key}: mean = {_fmt(results['enumerated_means'][key])}, "
                    f"variance = {_fmt(results['enumerated_variances'][key])}, "
                    f"mean residual = {_fmt(residuals['mean_' + key])}"
                )
        else:
            sv = results["sampled_variances"]
            print(f"sampled variances ({sv['samples']} permutations, seed 0):")
            for key in ("c1", "c2", "c3", "total"):
                print(f"  {key}: variance ~= {_fmt(sv[key])}")
    return exit_code


_COMMANDS = {
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "avg": _cmd_avg,
    "autocorr": _cmd_autocorr,
    "stats": _cmd_stats,
}


def run_cli(argv) -> int:
    """Parse argv, run one command, and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        problem = _load_problem(config)
        return _COMMANDS[config.command](problem, config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
