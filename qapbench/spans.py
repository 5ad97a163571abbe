"""Span recorder that instruments the library from outside.

`Tracer.install` wraps the library's public functions at their defining
module and at every other module binding of the same function object (for
example `decompose` as bound in `oracle`, `verification`, `cli` and the
package root), plus the methods `QapInstance.fitness`, `Permutation.swap`,
`GeneralTensor.fitness` and `GeneralTensor.from_qap` on their classes.
Each call records one span: function, parent span, start and end. Spans are
kept in flat arrays in memory and written out once, by `save`.

Generators (`Permutation.neighbors`, `oracle.space_points`) are not timed,
since their work is interleaved with the consumer's; they are counted, per
call and per item yielded.

A layer is a module. Its self time is the summed duration of its spans minus
the part covered by their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

MODULES = ("qaplib", "core", "decomposition", "oracle", "spectral", "verification", "cli")

# Functions recorded as spans, by defining module. "Class.method" names a
# method patched on its class.
SPANNED = {
    "qaplib": ("generate_instance", "parse_qaplib"),
    "core": (
        "QapInstance.fitness", "Permutation.swap",
        "GeneralTensor.fitness", "GeneralTensor.from_qap",
    ),
    "decomposition": (
        "decompose", "component_value", "component_value_fast",
        "component_value_ref", "omega", "omega_neighborhood_sum_oracle",
        "neighborhood_avg_wave", "wave_predict_component", "average_triple",
        "component_average",
    ),
    "oracle": (
        "enumerate_space", "neighborhood_avg_brute", "check_elementary",
        "population_variance", "variance_triple",
    ),
    "spectral": (
        "random_walk", "empirical_autocorr", "component_weights",
        "theoretical_autocorr", "autocorr_coefficient", "analyze_autocorr",
    ),
    "verification": ("run_verification",),
    "cli": ("run_cli",),
}

# Generators counted per call and per item yielded.
COUNTED = {"core": ("Permutation.neighbors",), "oracle": ("space_points",)}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        self.names: list = []  # span name id -> "module.function"
        self.fn = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict = {}
        self.walk_steps = 0
        self.claims = 0
        self.claims_skipped = 0
        self._patches: list = []  # (owner, attribute, original value)

    # -- recording -------------------------------------------------------

    def _spanned(self, name: str, fn):
        sid = len(self.names)
        self.names.append(name)
        fns, parents, starts, ends, stack = (
            self.fn, self.parent, self.start, self.end, self._stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            fns.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts
        calls, items = name + ".calls", name + ".items"
        counts[calls] = counts[items] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls] += 1
            for item in fn(*args, **kwargs):
                counts[items] += 1
                yield item

        return traced

    def _hooked(self, name: str, fn):
        """Span wrapper plus argument/result hooks for the few counts that
        need them."""
        traced = self._spanned(name, fn)
        if name == "spectral.random_walk":
            @functools.wraps(fn)
            def walk(problem, steps, *args, **kwargs):
                self.walk_steps += steps
                return traced(problem, steps, *args, **kwargs)
            return walk
        if name == "verification.run_verification":
            @functools.wraps(fn)
            def verify(*args, **kwargs):
                claims = traced(*args, **kwargs)
                self.claims += len(claims)
                self.claims_skipped += sum(1 for c in claims if c.skipped)
                return claims
            return verify
        return traced

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function and method of the library."""
        pkg = importlib.import_module("qaplandscape")
        mods = {m: importlib.import_module(f"qaplandscape.{m}") for m in MODULES}
        replace = {}  # id(original function) -> wrapper
        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for mod_name, attrs in table.items():
                mod = mods[mod_name]
                for attr in attrs:
                    label = f"{mod_name}.{attr}"
                    make = self._hooked if kind == "span" else self._counted
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(mod, cls_name)
                        raw = cls.__dict__[meth]
                        if isinstance(raw, classmethod):
                            self._set(cls, meth, classmethod(make(label, raw.__func__)))
                        else:
                            self._set(cls, meth, make(label, raw))
                    else:
                        original = getattr(mod, attr)
                        replace[id(original)] = (original, make(label, original))
        # Rebind at the defining module and at every `from .x import y` copy.
        for mod in (pkg, *mods.values()):
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def _arrays(self):
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return fn, parent, dur

    def summary(self) -> dict:
        """Per-function span counts and inclusive times, and per-module self
        times, keyed "<label>.calls", "<label>.s" and "<module>.self_s",
        where a label is "module.function" or "module.Class.method"."""
        fn, parent, dur = self._arrays()
        k = len(self.names)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(fn, minlength=k)
        incl = np.bincount(fn, weights=dur, minlength=k)
        self_by_fn = np.bincount(fn, weights=self_time, minlength=k)
        out = {"trace.spans": len(dur)}
        for m in MODULES:
            out[f"{m}.self_s"] = 0.0
        for sid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[sid])
            out[f"{name}.s"] = float(incl[sid])
            out[f"{name.split('.')[0]}.self_s"] += float(self_by_fn[sid])
        out.update(self.counts)
        return out

    def save(self, path, origin: float) -> None:
        """Write every span, start and end relative to origin in seconds."""
        np.savez(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float) - origin,
            end=np.frombuffer(self.end, dtype=float) - origin,
        )
