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
from dataclasses import asdict
from fractions import Fraction
from functools import cache
from pathlib import Path

from .core import MAX_TENSOR_SIZE, Permutation, QapInstance, passes, worst
from .decomposition import (
    average_triple,
    component_variances,
    decompose,
    neighborhood_avg_wave,
)
from .oracle import DEFAULT_ENUMERATION_CAP, neighborhood_avg_brute, space_moments
from .qaplib import generate_instance, parse_qaplib
from .spectral import analyze_autocorr, check_max_lag, random_walk
from .verification import _whole_space, run_verification


# Resource limits on flag values, checked before any instance is built.
MAX_CAP = 9  # 9! = 362,880 enumerated permutations
MAX_GENERATED_SIZE = 200  # 2 n^2 generated entries
MAX_STEPS = 1_000_000
MAX_LAG = 1_000  # the estimator costs O(steps * max_lag)
# Bound on steps * max_lag, the estimator's (step, lag) terms: about 80 ns
# each on a 2-core VM with Python 3.11, so some 8 s at the bound.
MAX_ESTIMATOR_TERMS = 10**8

DEFAULT_MAX_LAG = 5


class CliError(Exception):
    """Invalid usage or input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _check_args(args) -> None:
    """Refuse invalid usage before any instance is built; sets
    args.generator to (n, seed, lo, hi) or None."""
    args.generator = None
    if args.gen is not None and args.n is not None:
        raise CliError("--n is the generator shorthand; it cannot be combined with --gen")
    if args.n is None and (args.lo is not None or args.hi is not None):
        raise CliError("--lo and --hi are generator shorthand and need --n")
    if args.gen is not None:
        parts = args.gen.split(",")
        if len(parts) != 4:
            raise CliError("--gen wants four integers: N,SEED,LO,HI")
        try:
            args.generator = tuple(int(x) for x in parts)
        except ValueError:
            raise CliError(f"--gen wants integers, got {args.gen!r}") from None
    elif args.n is not None:
        lo = 0 if args.lo is None else args.lo
        hi = 9 if args.hi is None else args.hi
        args.generator = (args.n, args.seed, lo, hi)
    if (args.instance is None) == (args.generator is None):
        raise CliError(
            "exactly one instance source is required: --instance PATH "
            "or --gen N,SEED,LO,HI (or --n with --seed/--lo/--hi)"
        )
    if args.fmt == "csv" and args.command != "autocorr":
        raise CliError("csv output is only defined for walk series (autocorr)")
    if args.cap < 0:
        raise CliError(f"--cap {args.cap} must be at least 0")
    if args.cap > MAX_CAP:
        raise CliError(f"--cap {args.cap} exceeds the limit {MAX_CAP}")
    if args.generator is not None:
        if args.generator[0] > MAX_GENERATED_SIZE:
            raise CliError(
                f"generated size {args.generator[0]} exceeds the limit "
                f"{MAX_GENERATED_SIZE}"
            )
        if args.command == "verify":
            _check_verify_size(args.generator[0])
    if args.command == "autocorr":
        if args.steps > MAX_STEPS:
            raise CliError(f"--steps {args.steps} exceeds the limit {MAX_STEPS}")
        if args.steps < 1:
            raise CliError(f"walk needs at least one step, got {args.steps}")
        # csv writes the walk series alone, so there only a --max-lag that
        # was given is checked; json and text check the default too.
        given = args.max_lag is not None
        if given and args.max_lag > MAX_LAG:
            raise CliError(f"--max-lag {args.max_lag} exceeds the limit {MAX_LAG}")
        if not given:
            args.max_lag = DEFAULT_MAX_LAG
        if given or args.fmt != "csv":
            check_max_lag(args.max_lag, args.steps)
        terms = args.steps * args.max_lag
        if args.fmt != "csv" and terms > MAX_ESTIMATOR_TERMS:
            raise CliError(f"--steps times --max-lag is {terms} estimator terms, "
                           f"beyond the limit {MAX_ESTIMATOR_TERMS}")


def _check_verify_size(n: int) -> None:
    # The limit is the dense tensor's storage: fast_vs_reference builds the
    # instance's tensor, n^4 entries, which GeneralTensor refuses beyond it.
    if n > MAX_TENSOR_SIZE:
        raise CliError(f"verify size {n} exceeds the limit {MAX_TENSOR_SIZE}")


@cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each parse_args call returns a fresh namespace."""
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
    src.add_argument("--seed", type=int, default=0,
                     help="generator shorthand: seed; also seeds verify's sampling")
    src.add_argument("--lo", type=int, help="generator shorthand: low bound (default 0)")
    src.add_argument("--hi", type=int, help="generator shorthand: high bound (default 9)")
    common.add_argument("--mode", choices=["rational", "float"],
                        help="arithmetic mode (default: rational for integer entries)")
    common.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                        help="enumeration cap on n for the exhaustive checks of "
                             f"stats and verify (default %(default)s); at most {MAX_CAP}")
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
    p.add_argument("--max-lag", type=int, dest="max_lag",
                   help=f"largest lag reported (default {DEFAULT_MAX_LAG}, "
                        f"at most {MAX_LAG}); must stay below steps/10, and "
                        f"steps * max-lag at most {MAX_ESTIMATOR_TERMS} "
                        "unless --format csv")

    sub.add_parser("stats", parents=[common],
                   help="closed-form component means and enumerated moments")
    return parser


def _load_problem(args) -> QapInstance:
    if args.instance is not None:
        try:
            text = Path(args.instance).read_text()
        except OSError as exc:
            raise CliError(f"cannot read instance file: {exc}") from None
        inst = parse_qaplib(text, flow_first=args.flow_first)
    else:
        inst = generate_instance(*args.generator)

    if args.mode == "float":
        inst = inst.as_float()
    elif args.mode == "rational" and not inst.exact:
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


class _Count(int):
    """Structural integer (a count, a seed); serializes as a plain number."""


def _jsonify(value, exact: bool):
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, _Count):
        return int(value)
    if isinstance(value, float):
        # JSON has no NaN or infinity: write "nan", "inf", "-inf".
        return value if math.isfinite(value) else str(value)
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
    print(json.dumps(payload, indent=2, allow_nan=False))


def _passes(problem, residual, *values) -> bool:
    """The library's pass rule, scaled by the largest of 1 and |values|."""
    return passes(residual, max(1, *map(abs, values)), problem.exact)


def _cmd_decompose(problem, args) -> int:
    x = _parse_perm(args.perm, problem.n)
    f = problem.fitness(x)
    t = decompose(problem, x)
    residual = abs(t.total - f)
    ok = _passes(problem, residual, f)
    results = {"f": f, "c1": t.c1, "c2": t.c2, "c3": t.c3, "total": t.total}
    residuals = {"decomposition_sum": residual}
    if args.fmt == "json":
        _emit_json("decompose", problem, results, residuals)
    else:
        print(f"n = {problem.n}, mode = {_mode(problem)}, x = {list(x.mapping)}")
        print(f"f(x)       = {f}")
        print(f"c1(x)      = {t.c1}")
        print(f"c2(x)      = {t.c2}")
        print(f"c3(x)      = {t.c3}")
        print(f"c1+c2+c3   = {t.total}")
        print(f"sum check: residual {residual} ({'OK' if ok else 'FAIL'})")
    return 0 if ok else 2


def _cmd_avg(problem, args) -> int:
    # The brute-force side evaluates fitness in full at each of the d
    # neighbors, O(n^4) in all, so avg shares the generator's size limit.
    if problem.n > MAX_GENERATED_SIZE:
        raise CliError(f"avg size {problem.n} exceeds the limit {MAX_GENERATED_SIZE}")
    x = _parse_perm(args.perm, problem.n)
    wave = neighborhood_avg_wave(problem, x)
    brute = neighborhood_avg_brute(problem.fitness, x)
    residual = abs(wave - brute)
    ok = _passes(problem, residual, wave, brute)
    results = {"wave": wave, "brute": brute}
    residuals = {"neighborhood_average": residual}
    if args.fmt == "json":
        _emit_json("avg", problem, results, residuals)
    else:
        print(f"n = {problem.n}, mode = {_mode(problem)}, x = {list(x.mapping)}")
        print(f"wave-equation average : {wave}")
        print(f"brute-force average   : {brute}")
        print(f"residual {residual} ({'OK' if ok else 'FAIL'})")
    return 0 if ok else 2


def _cmd_verify(problem, args) -> int:
    _check_verify_size(problem.n)
    claims = run_verification(problem, cap=args.cap, seed=args.seed)
    failed = sum(1 for c in claims if not c.skipped and not c.passed)
    skipped = sum(1 for c in claims if c.skipped)
    results = {
        "claims": [asdict(c) for c in claims],
        "failed": _Count(failed),
        "skipped": _Count(skipped),
    }
    residuals = {c.name: c.residual for c in claims}
    if args.fmt == "json":
        _emit_json("verify", problem, results, residuals)
    else:
        print(f"n = {problem.n}, mode = {_mode(problem)}, cap = {args.cap}")
        for c in claims:
            if c.skipped:
                print(f"claim {c.name}: SKIP ({c.detail})")
            else:
                verdict = "PASS" if c.passed else "FAIL"
                print(
                    f"claim {c.name}: residual {c.residual} "
                    f"(tol {c.tolerance}) {verdict}  [{c.detail}]"
                )
        verdict = "PASS" if failed == 0 else "FAIL"
        print(
            f"verification: {verdict} "
            f"({len(claims)} claims, {failed} failed, {skipped} skipped)"
        )
    return 0 if failed == 0 else 2


def _cmd_autocorr(problem, args) -> int:
    if args.fmt == "csv":
        series = random_walk(problem, args.steps, args.walk_seed)
        sys.stdout.write(series.to_csv())
        return 0
    report, series = analyze_autocorr(problem, args.steps, args.walk_seed, args.max_lag)
    residual, _ = worst(zip(report.empirical[1:], map(float, report.theoretical[1:])))
    # Estimator standard error scales as 1/sqrt(steps); 0.02 at 1e5 steps.
    tol = 0.02 * math.sqrt(100000 / args.steps)
    ok = residual <= tol
    lo, hi = report.bounds
    in_bounds = lo <= report.coefficient <= hi
    results = {
        "steps": _Count(series.steps),
        "walk_seed": _Count(series.seed),
        "start": series.start,
        "variance_source": "exact",
        "weights": list(report.weights),
        "empirical": report.empirical,
        "theoretical": list(report.theoretical),
        "xi": report.coefficient,
        "xi_bounds": [lo, hi],
    }
    residuals = {"autocorr_max_abs_diff": residual}
    if args.fmt == "json":
        _emit_json("autocorr", problem, results, residuals)
    else:
        print("autocorrelation of the objective along a uniform random swap walk")
        print("coefficient definition: xi = 1/(1 - r(1)); "
              "for this neighborhood (n-1)/4 <= xi <= (n-1)/2")
        print(
            f"n = {problem.n}, mode = {_mode(problem)}, steps = {series.steps}, "
            f"walk seed = {series.seed}, max lag = {args.max_lag}"
        )
        w1, w2, w3 = report.weights
        print(f"variance weights (exact): W1 = {w1}, W2 = {w2}, W3 = {w3}")
        print(" lag  empirical     predicted")
        for s, (e, t) in enumerate(zip(report.empirical, report.theoretical)):
            print(f"{s:4d}  {e:+.6f}    {t}")
        print(
            f"xi = {report.coefficient} in [{lo}, {hi}] "
            f"-> {'inside' if in_bounds else 'OUTSIDE'}"
        )
        print(
            f"max |empirical - predicted| over lags 1..{args.max_lag}: "
            f"{residual:.6f} (tol {tol:.6f}) {'OK' if ok else 'FAIL'}"
        )
    return 0 if ok and in_bounds else 2


def _cmd_stats(problem, args) -> int:
    keys = ("c1", "c2", "c3", "total")
    a = average_triple(problem)
    v = component_variances(problem)
    results = {
        "closed_form_means": dict(zip(keys, a)),
        "closed_form_variances": dict(zip(keys, v)),
    }
    residuals: dict = {}
    # Fails closed: an overflowed closed form is never a result.
    finite = problem.exact or all(math.isfinite(x) for x in (*a, *v))
    exit_code = 0 if finite else 2
    whole_space = _whole_space(problem.n, args.cap)
    if whole_space:
        space = space_moments(problem)
        results["enumerated_means"] = dict(zip(keys, space.means))
        results["enumerated_variances"] = dict(zip(keys, space.variances))
        results["count"] = _Count(space.count)
        for key, mean, closed in zip(keys, space.means, a):
            residuals[f"mean_{key}"] = abs(mean - closed)
        for key, var, closed in zip(keys, space.variances, v):
            residuals[f"var_{key}"] = abs(var - closed)
        if not all(
            _passes(problem, residuals[f"{stat}_{k}"], closed.total)
            for stat, closed in (("mean", a), ("var", v))
            for k in keys
        ):
            exit_code = 2

    if args.fmt == "json":
        _emit_json("stats", problem, results, residuals)
    else:
        print(f"n = {problem.n}, mode = {_mode(problem)}")
        for label, triple in (("means", a), ("variances", v)):
            print(f"closed-form {label}:")
            print(f"  c1 = {triple[0]}")
            print(f"  c2 = {triple[1]}")
            print(f"  c3 = {triple[2]}")
            print(f"  f  = {triple[3]}")
        if whole_space:
            print(f"enumerated over {results['count']} permutations:")
            for key in keys:
                print(
                    f"  {key}: mean = {results['enumerated_means'][key]}, "
                    f"variance = {results['enumerated_variances'][key]}, "
                    f"mean residual = {residuals['mean_' + key]}"
                )
            print("variance residuals: " + ", ".join(
                f"{key} = {residuals['var_' + key]}" for key in keys
            ))
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
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
        problem = _load_problem(args)
        return _COMMANDS[args.command](problem, args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
