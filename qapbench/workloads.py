"""Workload definitions and seeded input generation.

Every input the library receives is made here from the benchmark seed: the
generator arguments (`--gen N,SEED,LO,HI`) or an instance text file, the
permutation lists for `avg`, `decompose` and the latency loop, and the walk
seed. The same (workload, seed, size) always yields the same inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Spec:
    """Sizes and command mix of one workload.

    source is "gen" (integer entries 0..hi through --gen) or "file"
    (decimal entries in [0, hi) written as instance text, read through
    --instance). A cycle runs each of `commands` once, in order, and after
    each one a slot of short operations: `avg` and `decompose` through the
    CLI on `cli_per_slot` permutations, then `latency_per_slot` direct
    decompose calls. Every cycle uses the same permutations.
    """

    name: str
    n: int
    source: str
    hi: int
    commands: tuple
    steps: int
    max_lag: int
    cli_per_slot: int
    latency_per_slot: int

    @property
    def slots(self) -> int:
        return len(self.commands)


# Full sizes; BENCHMARK.json says why each was chosen. Each long command
# takes at most a few seconds, so that a run of --seconds 38 holds 12 or
# more cycles and every metric is a percentile over samples spread across
# the run.
WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec("exhaustive-n6", 6, "gen", 9,
             ("stats", "verify", "autocorr"), 2000, 5, 4, 100),
        Spec("walk-n24", 24, "gen", 99,
             ("stats", "autocorr"), 3000, 5, 3, 100),
        Spec("sampled-float-n12", 12, "file", 10,
             ("stats", "verify", "autocorr"), 10000, 5, 4, 100),
    )
}

# Tiny sizes with the same command mix, for the benchmark's own tests.
SMOKE = {
    "exhaustive-n6": dict(n=5, steps=2000, cli_per_slot=1, latency_per_slot=20),
    "walk-n24": dict(n=10, steps=600, cli_per_slot=1, latency_per_slot=20),
    "sampled-float-n12": dict(n=9, steps=2000, cli_per_slot=1, latency_per_slot=20),
}


def spec_for(name: str, size: str) -> Spec:
    spec = WORKLOADS[name]
    if size == "smoke":
        spec = Spec(**{**asdict(spec), **SMOKE[name]})
    return spec


def _decimal_rows(rng: random.Random, n: int, hi: int) -> str:
    # A token with a decimal point parses as float, so the instance runs in
    # float mode even where an entry happens to be whole.
    return "\n".join(
        " ".join(f"{rng.uniform(0, hi):.2f}" for _ in range(n)) for _ in range(n)
    )


def make_inputs(spec: Spec, seed: int, outdir: Path) -> dict:
    """Derive every input of one run from the seed and write them to outdir."""
    rng = random.Random(f"{spec.name}/{seed}")
    instance_seed = rng.randrange(2**31)
    walk_seed = rng.randrange(2**31)
    n = spec.n

    def perm():
        return rng.sample(range(n), n)

    inputs = {
        "spec": asdict(spec),
        "seed": seed,
        "walk_seed": walk_seed,
        "cli_perms": [perm() for _ in range(spec.slots * spec.cli_per_slot)],
        "latency_perms": [perm() for _ in range(spec.slots * spec.latency_per_slot)],
        "outdir": str(outdir),
    }
    if spec.source == "gen":
        inputs["gen"] = [n, instance_seed, 0, spec.hi]
    else:
        irng = random.Random(instance_seed)
        distances = _decimal_rows(irng, n, spec.hi)
        flows = _decimal_rows(irng, n, spec.hi)
        text = f"{n}\n\n{distances}\n\n{flows}\n"
        path = outdir / "instance.dat"
        path.write_text(text)
        inputs["instance"] = str(path)
    (outdir / "inputs.json").write_text(json.dumps(inputs))
    return inputs


def source_args(inputs: dict) -> list:
    """The instance-source flags every CLI invocation of this run gets."""
    if "gen" in inputs:
        return ["--gen", ",".join(str(v) for v in inputs["gen"])]
    return ["--instance", inputs["instance"]]
