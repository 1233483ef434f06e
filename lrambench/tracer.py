"""Call wrappers installed on lramkit's module attributes from outside.

The stages call each other through module attributes (``fem.assemble``,
``modal.solve_smallest``, ...) and call same-module functions through the
module globals, so replacing the attribute is enough to see every layer
boundary without touching the library. Two levels:

* counting (always on): call counts plus a few argument-derived counters,
  and the return values the correctness checks need;
* spans (traced runs only): name, start, end and parent id per call, kept
  in memory and written out when the run ends.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter

# (module, function) pairs wrapped in every worker. Self time of a span is
# its duration minus the time of the wrapped calls directly below it.
WRAPPED = (
    ("pipeline", "run"),
    ("topopt", "optimize"),
    ("topopt", "analyze_design"),
    ("topopt", "sensitivity_field"),
    ("topopt", "hj_step"),
    ("rve", "chi_at_gauss"),
    ("rve", "material_fields"),
    ("fem", "assemble"),
    ("modal", "solve_smallest"),
    ("modal", "solve_smallest_hermitian"),
    ("homogenize", "effective_material"),
    ("homogenize", "quasi_static"),
    ("homogenize", "reduced_inertial_system"),
    ("dispersion", "effective_dispersion"),
    ("dispersion", "bloch_oracle"),
    ("dispersion", "bloch_transform"),
    ("panel", "tl_sweep"),
    ("panel", "solve_RT"),
)

# results kept for the correctness checks, which run after the timed call
KEEP_RETURN = {"homogenize.effective_material"}


class Recorder:
    """In-memory counters and (optionally) spans for one pipeline run."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.returns: dict[str, list] = {name: [] for name in KEEP_RETURN}
        self.spans: list[list] = []      # [name, parent, start, end]
        self.stack: list[tuple[str, int]] = []   # (name, span id) of open calls
        self.best_times: list[float] = []   # observer calls that set a new best
        self._best_pi = float("inf")

    def install(self, package) -> None:
        """Wrap every function in ``WRAPPED`` that the package defines."""
        import importlib

        for mod_name, fn_name in WRAPPED:
            module = importlib.import_module(f"{package.__name__}.{mod_name}")
            fn = getattr(module, fn_name, None)
            if fn is None:   # a later version may fold the function away
                continue
            setattr(module, fn_name, self._wrap(module, f"{mod_name}.{fn_name}", fn))

    def _wrap(self, module, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        keep = self.returns.get(name)
        spans_on = self.spans_on
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                kwargs = before(module, args, kwargs)
            sid = -1
            if spans_on:
                sid = len(spans)
                spans.append([name, stack[-1][1] if stack else -1, clock(), 0.0])
            stack.append((name, sid))
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                if spans_on:
                    spans[sid][3] = clock()
            if keep is not None:
                keep.append(out)
            return out

        return wrapper

    # argument-derived counters --------------------------------------------

    def _before_modal_solve_smallest(self, module, args, kwargs):
        K = args[0]
        count = args[2] if len(args) > 2 else kwargs["count"]
        n = K.shape[0]
        cutoff = getattr(module, "DENSE_CUTOFF", 0)
        side = "dense_calls" if n <= cutoff or min(count, n) >= n - 1 else "arpack_calls"
        self.counters[f"modal.solve_smallest.{side}"] += 1
        self.counters["modal.solve_smallest.modes_requested"] += int(count)
        if self.stack and self.stack[-1][0] == "homogenize.reduced_inertial_system":
            self.counters["homogenize.eigensolves"] += 1
            self.counters["homogenize.modes_requested"] += int(count)
        return kwargs

    def _before_topopt_optimize(self, module, args, kwargs):
        observer = kwargs.get("observer")
        if not self.spans_on or observer is None:
            return kwargs

        def timed_observer(iteration, phi, row):
            if row.Pi < self._best_pi:
                self._best_pi = row.Pi
                self.best_times.append(time.perf_counter())
            return observer(iteration, phi, row)

        return {**kwargs, "observer": timed_observer}

    # results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-function self time: span duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, _, start, end), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out

    def last_end(self, name: str) -> float | None:
        ends = [s[3] for s in self.spans if s[0] == name]
        return ends[-1] if ends else None

    def write_spans(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [{"id": i, "name": n, "parent": p,
                 "start_s": round(s - t0, 9), "end_s": round(e - t0, 9)}
                for i, (n, p, s, e) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump(rows, fh)
