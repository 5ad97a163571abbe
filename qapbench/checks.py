"""Output checks for every operation the benchmark times.

The oracle here shares no code with the library: it rebuilds the instance
matrices from the benchmark's own inputs (the documented `generate_instance`
stream, or the instance text it wrote) and evaluates with numpy. Exact
quantities are compared for equality in rational mode: decompose and avg
values, the enumerated means and variances, and exact-weight r(s) within the
enumeration cap. Sampled quantities are checked by invariants only, so an
exact method replacing a sampled one still passes.

Every check function returns a list of failure messages, empty when the
output is correct.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np

FLOAT_TOLERANCE = 1e-9
ENUMERATION_CAP = 8


def _value(v):
    """A JSON number, or an exact value serialized as a fraction string."""
    return Fraction(v) if isinstance(v, str) else v


class Oracle:
    """Independent evaluator of one instance."""

    def __init__(self, inputs: dict) -> None:
        spec = inputs["spec"]
        n = spec["n"]
        if "gen" in inputs:
            _, seed, lo, hi = inputs["gen"]
            rng = random.Random(seed)
            r = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
            w = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
            self.exact = True
            # |f| <= n^2 hi^2; int64 is exact far beyond these sizes.
            dtype = np.int64
        else:
            with open(inputs["instance"]) as fh:
                tokens = fh.read().split()
            vals = [float(t) for t in tokens[1:]]
            r = [vals[i * n:(i + 1) * n] for i in range(n)]
            w = [vals[n * n + i * n:n * n + (i + 1) * n] for i in range(n)]
            self.exact = False
            dtype = float
        self.n = n
        self.r = np.array(r, dtype=dtype)
        self.w = np.array(w, dtype=dtype)
        self._avg = {}
        self._f = {}
        self.mean = self._closed_mean()
        # Var(f) by enumeration, for the exact checks within the cap.
        self.variance = (
            self._enumerated_variance() if self.exact and n <= ENUMERATION_CAP else None
        )

    def _scalar(self, v):
        return int(v) if self.exact else float(v)

    def f(self, perm) -> object:
        key = tuple(perm)
        if key not in self._f:
            x = np.array(key)
            self._f[key] = self._scalar((self.r * self.w[np.ix_(x, x)]).sum())
        return self._f[key]

    def neighborhood_avg(self, perm):
        key = tuple(perm)
        if key not in self._avg:
            n = self.n
            total = 0
            for u in range(n):
                for v in range(u + 1, n):
                    y = list(key)
                    y[u], y[v] = y[v], y[u]
                    total += self.f(y)
            d = n * (n - 1) // 2
            self._avg[key] = Fraction(total, d) if self.exact else total / d
        return self._avg[key]

    def _closed_mean(self):
        """Mean of f over all n! permutations: the diagonal pairs each hit a
        diagonal flow entry with chance 1/n, off-diagonal pairs an
        off-diagonal one with chance 1/(n(n-1))."""
        n = self.n
        dr, dw = self._scalar(np.trace(self.r)), self._scalar(np.trace(self.w))
        off_r = self._scalar(self.r.sum()) - dr
        off_w = self._scalar(self.w.sum()) - dw
        if self.exact:
            return Fraction(dr * dw, n) + Fraction(off_r * off_w, n * (n - 1))
        return dr * dw / n + off_r * off_w / (n * (n - 1))

    def _enumerated_variance(self) -> Fraction:
        """Population variance of f by literal enumeration, exactly."""
        n = self.n
        pts = np.array(list(permutations(range(n))))
        vals = np.zeros(len(pts), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                vals += self.r[i, j] * self.w[pts[:, i], pts[:, j]]
        count = len(vals)
        total = int(vals.sum())
        total_sq = sum(int(v) * int(v) for v in vals)
        return Fraction(total_sq * count - total * total, count * count)

    # -- comparison ------------------------------------------------------

    def close(self, a, b) -> bool:
        """Equal in rational mode; within 1e-9 relative in float mode."""
        if self.exact:
            return Fraction(a) == Fraction(b)
        a, b = float(a), float(b)
        return abs(a - b) <= FLOAT_TOLERANCE * max(1.0, abs(a), abs(b))

    def _expect(self, errors: list, what: str, got, want) -> None:
        if not self.close(got, want):
            errors.append(f"{what}: got {got}, want {want}")

    # -- per-command checks ----------------------------------------------

    def check_decompose(self, payload: dict, perm) -> list:
        errors: list = []
        res = {k: _value(v) for k, v in payload["results"].items()}
        self._expect(errors, "decompose f", res["f"], self.f(perm))
        self._expect(errors, "decompose total", res["total"], res["f"])
        self._expect(
            errors, "decompose c1+c2+c3", res["c1"] + res["c2"] + res["c3"], res["total"],
        )
        return errors

    def check_decompose_direct(self, triple, perm) -> list:
        errors: list = []
        self._expect(errors, "direct decompose total", triple.total, self.f(perm))
        return errors

    def check_avg(self, payload: dict, perm) -> list:
        errors: list = []
        res = payload["results"]
        brute, wave = _value(res["brute"]), _value(res["wave"])
        self._expect(errors, "avg brute", brute, self.neighborhood_avg(perm))
        self._expect(errors, "avg wave", wave, brute)
        return errors

    def check_stats(self, payload: dict, state: dict) -> list:
        errors: list = []
        res = payload["results"]
        closed = {k: _value(v) for k, v in res["closed_form_means"].items()}
        self._expect(errors, "closed-form mean of f", closed["total"], self.mean)
        self._expect(
            errors, "closed-form c1+c2+c3", closed["c1"] + closed["c2"] + closed["c3"],
            closed["total"],
        )
        if self.variance is not None:
            means = {k: _value(v) for k, v in res["enumerated_means"].items()}
            var = {k: _value(v) for k, v in res["enumerated_variances"].items()}
            if res["count"] != math.factorial(self.n):
                errors.append(f"stats count {res['count']} != {self.n}!")
            for key in ("c1", "c2", "c3", "total"):
                self._expect(errors, f"enumerated mean {key}", means[key], closed[key])
            self._expect(errors, "enumerated Var(f)", var["total"], self.variance)
            self._expect(
                errors, "Var(c1)+Var(c2)+Var(c3)", var["c1"] + var["c2"] + var["c3"],
                var["total"],
            )
            state["component_variances"] = (var["c1"], var["c2"], var["c3"])
        for key, v in res.get("sampled_variances", {}).items():
            if _value(v) < 0:
                errors.append(f"sampled variance {key} is negative: {v}")
        return errors

    def check_verify(self, payload: dict) -> list:
        res = payload["results"]
        errors = [
            f"claim {c['name']} failed: residual {c['residual']}"
            for c in res["claims"]
            if not c["skipped"] and not c["passed"]
        ]
        if res["failed"] != 0:
            errors.append(f"verify reports {res['failed']} failed claims")
        if not any(not c["skipped"] for c in res["claims"]):
            errors.append("verify checked no claim")
        return errors

    def check_autocorr(self, payload: dict, steps: int, walk_seed: int,
                       max_lag: int, state: dict) -> list:
        errors: list = []
        res = payload["results"]
        n = self.n
        d = n * (n - 1) // 2
        weights = [_value(v) for v in res["weights"]]
        theo = [_value(v) for v in res["theoretical"]]
        emp = res["empirical"]
        xi = _value(res["xi"])
        lo, hi = (_value(v) for v in res["xi_bounds"])
        if res["steps"] != steps or res["walk_seed"] != walk_seed:
            errors.append(f"walk ran {res['steps']} steps with seed {res['walk_seed']}")
        if len(theo) != max_lag + 1 or len(emp) != max_lag + 1:
            errors.append("autocorrelation series have the wrong length")
            return errors
        self._expect(errors, "sum of weights", sum(weights), 1)
        if any(wv < 0 for wv in weights):
            errors.append(f"negative weight in {weights}")
        self._expect(errors, "xi lower bound", lo, Fraction(n - 1, 4))
        self._expect(errors, "xi upper bound", hi, Fraction(n - 1, 2))
        if not lo <= xi <= hi:
            errors.append(f"xi {xi} outside [{lo}, {hi}]")
        ks = (2 * n, 2 * (n - 1), n)
        rates = [1 - Fraction(k, d) if self.exact else 1.0 - k / d for k in ks]
        for s, t in enumerate(theo):
            want = sum(wv * lam**s for wv, lam in zip(weights, rates))
            self._expect(errors, f"r({s}) mixture", t, want)
        self._expect(errors, "xi = 1/(1 - r(1))", xi, 1 / (1 - theo[1]))
        if emp[0] != 1.0 or any(not -1.0 <= e <= 1.0 for e in emp):
            errors.append(f"empirical autocorrelation out of range: {emp}")
        variances = state.get("component_variances")
        if variances is not None:
            for m, (wv, var) in enumerate(zip(weights, variances), start=1):
                self._expect(errors, f"exact weight W{m}", wv, var / self.variance)
        return errors
