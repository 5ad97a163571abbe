"""One workload in one process: cycles of CLI commands and direct
`decompose` calls, timed, with every output checked.

    python3 qapbench/workload.py INPUTS_JSON --seconds S --trace 0|1

`run.py` starts this with `src` on PYTHONPATH and the BLAS thread counts
pinned to 1; it starts no thread of its own. With --trace 0 it runs cycles
until another one would end after S seconds and reports end-to-end times.
With --trace 1 it runs one untraced cycle, then the same cycle with every
library layer wrapped in spans, and reports per-layer self times and work
counts. The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import qaplandscape
import qaplandscape.cli as cli
from qaplandscape import Permutation

from checks import Oracle
from spans import Tracer
from workloads import Spec, source_args

CLI_COMMANDS = ("verify", "stats", "autocorr", "avg", "decompose")


@dataclass
class Cycle:
    times: dict = field(default_factory=lambda: {c: [] for c in CLI_COMMANDS})
    latencies: list = field(default_factory=list)
    output_bytes: int = 0
    session_s: float = 0.0  # summed operation times, checks excluded


class Workload:
    def __init__(self, inputs: dict) -> None:
        self.inputs = inputs
        self.spec = Spec(**inputs["spec"])
        self.oracle = Oracle(inputs)
        if "gen" in inputs:
            self.problem = qaplandscape.generate_instance(*inputs["gen"])
        else:
            self.problem = qaplandscape.parse_qaplib(Path(inputs["instance"]).read_text())
        self.latency_perms = [Permutation(p) for p in inputs["latency_perms"]]
        self.attempted = 0
        self.failures: list = []
        self.reference: dict = {}  # operation key -> output of its first run
        self.state: dict = {}  # what one check hands to a later one

    def _argv(self, command: str, perm=None) -> list:
        argv = [command, *source_args(self.inputs), "--format", "json"]
        if command == "autocorr":
            argv += [
                "--steps", str(self.spec.steps),
                "--walk-seed", str(self.inputs["walk_seed"]),
                "--max-lag", str(self.spec.max_lag),
            ]
        if perm is not None:
            argv += ["--perm", ",".join(str(v) for v in perm)]
        return argv

    def _check(self, command: str, rc, out: str, err: str, perm) -> list:
        if rc != 0:
            return [f"exit code {rc}: {err.strip()[-300:]}"]
        payload = json.loads(out)
        oracle = self.oracle
        if command == "verify":
            return oracle.check_verify(payload)
        if command == "stats":
            return oracle.check_stats(payload, self.state)
        if command == "autocorr":
            return oracle.check_autocorr(
                payload, self.spec.steps, self.inputs["walk_seed"],
                self.spec.max_lag, self.state,
            )
        if command == "avg":
            return oracle.check_avg(payload, perm)
        return oracle.check_decompose(payload, perm)

    def _record(self, key, label: str, output: str, errors: list) -> None:
        self.attempted += 1
        first = self.reference.setdefault(key, output)
        if output != first:
            errors = errors + ["output differs from its first run"]
        if errors:
            self.failures.append(f"{label}: {'; '.join(errors)}")

    def _run_cli(self, key, command: str, perm, cyc: Cycle) -> None:
        """One CLI invocation, timed without the output check."""
        argv = self._argv(command, perm)
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.run_cli(argv)
            except Exception:  # a crash is a failed operation, not a failed run
                traceback.print_exc()
                rc = "raised"
        elapsed = perf_counter() - start
        cyc.times[command].append(elapsed)
        cyc.session_s += elapsed
        text = out.getvalue()
        cyc.output_bytes += len(text.encode())
        try:
            errors = self._check(command, rc, text, err.getvalue(), perm)
        except Exception as exc:  # a malformed output is a failed operation
            errors = [f"unreadable output: {exc!r}"]
        self._record(key, command, text, errors)

    def _run_latency(self, key, x: Permutation, cyc: Cycle) -> None:
        """One direct decompose call, timed, then checked."""
        decompose = qaplandscape.decompose  # looked up here so tracing sees it
        start = perf_counter()
        try:
            triple = decompose(self.problem, x)
        except Exception as exc:
            cyc.session_s += perf_counter() - start
            self._record(key, "direct decompose", repr(exc), [f"raised {exc!r}"])
            return
        elapsed = perf_counter() - start
        cyc.latencies.append(elapsed)
        cyc.session_s += elapsed
        errors = self.oracle.check_decompose_direct(triple, x.mapping)
        self._record(key, "direct decompose", repr(tuple(triple)), errors)

    def cycle(self) -> Cycle:
        """Run the command mix once: each long command, then a slot of short
        operations, so that the short samples spread over the whole cycle.
        Every cycle runs the same operations in the same order."""
        cyc = Cycle()
        spec = self.spec
        cli_perms = self.inputs["cli_perms"]
        for slot, command in enumerate(spec.commands):
            self._run_cli(("long", slot), command, None, cyc)
            for i in range(slot * spec.cli_per_slot, (slot + 1) * spec.cli_per_slot):
                for short in ("avg", "decompose"):
                    self._run_cli((short, i), short, cli_perms[i], cyc)
            for i in range(slot * spec.latency_per_slot, (slot + 1) * spec.latency_per_slot):
                self._run_latency(("latency", i), self.latency_perms[i], cyc)
        return cyc


def _p90(values: list) -> float:
    """90th percentile, interpolated between the two nearest samples, so
    that with ten or so samples it does not jump from rank to rank."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(cycles: list) -> tuple:
    """The 90th percentile of each timing over the run, and the medians for
    the summary.

    The host's speed flips between two levels about 1.6 times apart, for
    seconds at a time, most likely as other tenants load shared cores; how
    long a run spends at each level varies from run to run. A median sits between
    the two levels and jumps from one to the other with that share; the
    90th percentile reads the slower level whenever a tenth of the run's
    samples fall there, which holds in most runs."""
    pooled = {c: [t for cyc in cycles for t in cyc.times[c]] for c in CLI_COMMANDS}
    pooled["session"] = [cyc.session_s for cyc in cycles]
    latencies = [1e3 * t for cyc in cycles for t in cyc.latencies]
    metrics = {
        "stats_s_p90": _p90(pooled["stats"]),
        "autocorr_s_p90": _p90(pooled["autocorr"]),
        "avg_s_p90": _p90(pooled["avg"]),
        "decompose_ms_p90": _p90(latencies),
        "session_s_p90": _p90(pooled["session"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "cycles": len(cycles),
        "samples": {c: len(v) for c, v in pooled.items() if v},
        "decompose_samples": len(latencies),
        "medians": {c: statistics.median(v) for c, v in pooled.items() if v},
        "decompose_ms_p50": statistics.median(latencies),
    }
    if pooled["verify"]:
        info["verify_s_p90"] = _p90(pooled["verify"])
    return metrics, info


def per_layer(tracer: Tracer, traced: Cycle, untraced: Cycle) -> dict:
    s = tracer.summary()
    return {
        "qaplib.self_s": s["qaplib.self_s"],
        "qaplib.generate_calls": s["qaplib.generate_instance.calls"],
        "qaplib.parse_calls": s["qaplib.parse_qaplib.calls"],
        "core.fitness_calls": s["core.QapInstance.fitness.calls"],
        "core.fitness_s": s["core.QapInstance.fitness.s"],
        "core.swap_calls": s["core.Permutation.swap.calls"],
        "core.swap_s": s["core.Permutation.swap.s"],
        "core.neighbors_yielded": s["core.Permutation.neighbors.items"],
        "core.tensor_build_calls": s["core.GeneralTensor.from_qap.calls"],
        "core.self_s": s["core.self_s"],
        "decomposition.decompose_calls": s["decomposition.decompose.calls"],
        "decomposition.decompose_s": s["decomposition.decompose.s"],
        "decomposition.ref_calls": s["decomposition.component_value_ref.calls"],
        "decomposition.omega_calls": s["decomposition.omega.calls"],
        "decomposition.wave_s": s["decomposition.neighborhood_avg_wave.s"],
        "decomposition.average_s": s["decomposition.average_triple.s"],
        "decomposition.self_s": s["decomposition.self_s"],
        "oracle.points_enumerated": s["oracle.space_points.items"],
        "oracle.space_passes": s["oracle.space_points.calls"],
        "oracle.variance_triple_calls": s["oracle.variance_triple.calls"],
        "oracle.variance_triple_s": s["oracle.variance_triple.s"],
        "oracle.brute_calls": s["oracle.neighborhood_avg_brute.calls"],
        "oracle.brute_s": s["oracle.neighborhood_avg_brute.s"],
        "oracle.population_variance_s": s["oracle.population_variance.s"],
        "oracle.self_s": s["oracle.self_s"],
        "spectral.walk_steps": tracer.walk_steps,
        "spectral.random_walk_s": s["spectral.random_walk.s"],
        "spectral.empirical_autocorr_s": s["spectral.empirical_autocorr.s"],
        "spectral.component_weights_calls": s["spectral.component_weights.calls"],
        "spectral.component_weights_s": s["spectral.component_weights.s"],
        "spectral.self_s": s["spectral.self_s"],
        "verification.runs": s["verification.run_verification.calls"],
        "verification.claims": tracer.claims,
        "verification.claims_skipped": tracer.claims_skipped,
        "cli.commands": s["cli.run_cli.calls"],
        "cli.self_s": s["cli.self_s"],
        "cli.output_bytes": traced.output_bytes,
        "trace.spans": s["trace.spans"],
        "trace.overhead_s": traced.session_s - untraced.session_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    inputs = json.loads(Path(args.inputs).read_text())
    work = Workload(inputs)
    if args.trace:
        untraced = work.cycle()
        tracer = Tracer()
        tracer.install()
        origin = perf_counter()
        try:
            traced = work.cycle()
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced, untraced)
        info = {"cycles": 2, "untraced_session_s": untraced.session_s,
                "traced_session_s": traced.session_s}
        tracer.save(Path(inputs["outdir"]) / "spans.npz", origin)
    else:
        cycles = []
        began = perf_counter()
        while True:
            start = perf_counter()
            cycles.append(work.cycle())
            # Stop when another cycle like this one would end after the budget.
            now = perf_counter()
            if now - began + (now - start) > args.seconds:
                break
        metrics, info = end_to_end(cycles)

    print(json.dumps({
        "attempted": work.attempted,
        "failed": len(work.failures),
        "failures": work.failures[:20],
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
