"""Spans and counters around asymint's public functions, recorded from
outside the package.

`Tracer.install()` replaces each traced function by a wrapper, in every
loaded `asymint` module that holds a reference to it (so `from .x import f`
call sites are covered too) or on its class for methods.  Spans stay in
memory; `summary()` turns them into per-name self times, where a span's
self time is its duration minus the durations of its direct child spans.
Hot scalar kernels get counters only, so the trace stays cheap there.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List

# (module, attribute path, span name); sizes for some are taken in _sizes.
SPANS = [
    ("reduction", "run_reduction", "reduction.run_reduction"),
    ("compatibility", "build_problem", "compatibility.build_problem"),
    ("compatibility", "commutator_equations", "compatibility.commutator_equations"),
    ("compatibility", "eliminate_unknowns", "compatibility.eliminate_unknowns"),
    ("compatibility", "rref", "compatibility.rref"),
    ("compatibility", "solve_compatibility", "compatibility.solve_compatibility"),
    ("knowns", "KnownPoly.substitute", "knowns.substitute"),
    ("diffpoly", "time_derivative", "diffpoly.time_derivative"),
    ("lattice", "error_scaling", "lattice.error_scaling"),
    ("lattice", "integrate", "lattice.integrate"),
    ("lattice", "ProfileBuilder.state", "lattice.profile"),
    ("jordan", "jordan_coefficients", "jordan.jordan_coefficients"),
    ("jordan", "verify_on_sequence", "jordan.verify_on_sequence"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.solves: List[dict] = []  # sizes of each commutation solve, for the table

    # --- installation -----------------------------------------------------------

    def install(self) -> None:
        import asymint.cli  # noqa: F401  (loads every module that gets patched)
        from asymint import _polyops

        for module, path, name in SPANS:
            self._patch(module, path, lambda fn, name=name: self._span(name, fn))
        self._patch("_polyops", "pgcd", lambda fn: self._pgcd(fn, _polyops.ONE))
        self._patch("field", "RatFunc.__mul__", lambda fn: self._counted("field.ratfunc_mul.calls", fn))
        self._patch("lattice", "rhs", lambda fn: self._counted("lattice.rhs.calls", fn))

    @staticmethod
    def _patch(module: str, path: str, make: Callable[[Callable], Callable]) -> None:
        owner = sys.modules[f"asymint.{module}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = make(original)
        if outer:
            setattr(owner, attr, wrapped)
            return
        for name, mod in list(sys.modules.items()):
            if name == "asymint" or name.startswith("asymint."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    # --- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        sizes = self._sizes

        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            sizes(name, args, result)
            return result

        return traced

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _pgcd(self, fn: Callable, one) -> Callable:
        counts = self.counts

        def pgcd(a, b):
            result = fn(a, b)
            counts["polyops.pgcd.calls"] += 1
            if len(a) <= 1 or len(b) <= 1:
                counts["polyops.pgcd.const"] += 1
            if result == one:
                counts["polyops.pgcd.unit"] += 1
            return result

        return pgcd

    def _sizes(self, name: str, args: tuple, result) -> None:
        counts = self.counts
        if name == "compatibility.eliminate_unknowns":
            equations, names = args[0], args[1]
            solved, leftovers = result
            solve = {"equations": len(equations), "unknowns": len(names),
                     "pivots": len(solved), "leftovers": len(leftovers)}
            self.solves.append(solve)
            for key, value in solve.items():
                counts[f"compatibility.{key}"] += value
        elif name == "compatibility.rref":
            counts["compatibility.rref_rows"] += len(result)
            if self.solves:
                self.solves[-1].setdefault("rref", []).append(f"{len(args[0])}->{len(result)}")
        elif name == "compatibility.solve_compatibility":
            constraints = len(result.residual_constraints)
            counts["compatibility.constraints"] += constraints
            if self.solves:
                self.solves[-1]["constraints"] = constraints
        elif name == "lattice.integrate":
            state, steps = args[0], args[2]
            counts["lattice.site_steps"] += len(state.values) * steps
            counts["lattice.state_bytes"] = max(counts["lattice.state_bytes"], state.values.nbytes)

    # --- summary ----------------------------------------------------------------

    def summary(self, op_s: float) -> dict:
        """Per-name calls, self seconds and inclusive seconds (outermost span
        of a name only, so recursion is not counted twice), plus counters.
        `cli` self time is the op time not covered by any span, so all self
        times add up to `op_s`."""
        self_s: Dict[str, float] = {}
        total_s: Dict[str, float] = {}
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        roots = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                roots += end - start
        for (name, start, end, parent), inner in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            calls[name] += 1
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total_s[name] = total_s.get(name, 0.0) + (end - start)
        self_s["cli"] = total_s["cli"] = op_s - roots
        return {"self_s": self_s, "total_s": total_s, "calls": dict(calls),
                "counts": dict(self.counts), "solves": self.solves}
