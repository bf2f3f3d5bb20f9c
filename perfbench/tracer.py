"""Outside-in span tracer for popbo.

`Tracer.installed()` replaces, for the duration of a `with` block, the
functions the engine, surrogate and acquisition call with wrappers that record
one span per call: name, parent span, start and end (perf_counter_ns).  The
wrappers are installed where the callers look the names up (module globals
and class attributes), so popbo's source is untouched and its arithmetic is
unchanged.  Spans stay in memory; `write` dumps them after the run and
`layer_metrics` derives the per-layer numbers, self time included.

Two outcome checks ride on the fit and proposal wrappers: whether a fit left
the parameters bitwise equal to its starting snapshot (the restore-on-worse
fallback, i.e. wasted ADAM work), and whether a proposal's returned point lies
in the rectified region (an eps draw won).  They run in their own
`trace.check` spans, so no layer's self time includes them.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import time

import numpy as np

CHECK = "trace.check"
ROOT = "harness.run_experiment"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start ns, end ns]
        self._stack = [-1]
        self.fits = 0
        self.fits_restored = 0
        self.adam_steps = 0
        self.proposals = 0
        self.rectified_winners = 0

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1], 0, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        span = self.spans[idx]
        span[2] = t0
        span[3] = t1

    def wrap(self, name, fn):
        """fn with a span named `name` around every call."""
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0, clock())

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def _check(self):
        idx = self._open(CHECK)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter_ns())

    def _wrap_fit(self, fit):
        traced = self.wrap("surrogate.fit", fit)

        def fit_checked(model, obs, cfg, rng=None):
            with self._check():
                before = [p.copy() for p in model.weights + model.biases]
            out = traced(model, obs, cfg, rng=rng)
            with self._check():
                self.fits += 1
                self.adam_steps += cfg.steps
                after = model.weights + model.biases
                if all(np.array_equal(a, b) for a, b in zip(after, before)):
                    self.fits_restored += 1
            return out

        return fit_checked

    def _wrap_propose(self, propose_next, raw_rates):
        traced = self.wrap("acquisition.propose_next", propose_next)

        def propose_checked(model, space, obs, cfg, **kwargs):
            x = traced(model, space, obs, cfg, **kwargs)
            with self._check():
                self.proposals += 1
                rate = float(raw_rates(model, np.asarray(x, dtype=float)[None, :])[0])
                if rate >= cfg.q * len(obs):
                    self.rectified_winners += 1
            return x

        return propose_checked

    @contextlib.contextmanager
    def installed(self):
        """Patch popbo's call sites for the duration of the block."""
        import popbo.acquisition as acquisition
        import popbo.benchmarks as benchmarks
        import popbo.engine as engine
        import popbo.harness as harness
        import popbo.poisson as poisson
        import popbo.surrogate as surrogate

        model_cls = surrogate.IntensityModel
        targets = [
            (harness, "run", "engine.run"),
            (harness, "write_trace_csv", "harness.write_trace_csv"),
            (harness, "resolve_benchmark", "benchmarks.load"),
            (engine, "compute_ranks", "engine.compute_ranks"),
            (surrogate, "log_likelihood", "surrogate.log_likelihood"),
            (model_cls, "rates", "surrogate.rates"),
            (model_cls, "rate_and_input_grad", "surrogate.rate_and_input_grad"),
            (benchmarks.BenchmarkFunction, "evaluate", "benchmarks.evaluate"),
            (benchmarks.TabularBenchmark, "evaluate", "benchmarks.evaluate"),
            (acquisition, "logsumexp", "acquisition.logsumexp"),
            (poisson, "logsumexp", "poisson.logsumexp"),
        ]
        for module in (surrogate, acquisition, poisson):
            targets.append((module, "log_partial_exp_sum", "poisson.log_partial_exp_sum"))
            targets.append((module, "log_factorials", "poisson.log_factorials"))

        raw_rates = model_cls.rates
        saved = []
        try:
            for owner, attr, name in targets:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))
            for attr, wrapped in (("fit", self._wrap_fit(engine.fit)),
                                  ("propose_next", self._wrap_propose(engine.propose_next,
                                                                      raw_rates))):
                saved.append((engine, attr, engine.__dict__[attr]))
                setattr(engine, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        """Dump the spans as gzipped CSV: id,name,parent,start_ns,end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["id", "name", "parent", "start_ns", "end_ns"])
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                out.writerow([i, name, parent, t0, t1])

    def durations(self):
        """(names, parents, total ns, self ns) arrays over all spans."""
        names = np.array([s[0] for s in self.spans])
        parents = np.array([s[1] for s in self.spans], dtype=np.int64)
        total = np.array([s[3] - s[2] for s in self.spans], dtype=np.int64)
        child = np.zeros_like(total)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], total[has_parent])
        return names, parents, total, total - child

    def layer_metrics(self, model_steps: int) -> dict:
        """Per-layer counts and times of everything recorded so far.

        *_calls and *_ms are totals, except harness.write_trace_ms, a mean
        per call like the *_us metrics.  Ratios name their base (per propose,
        per iteration).
        """
        names, parents, total, self_ns = self.durations()
        parent_names = np.where(parents >= 0, names[np.maximum(parents, 0)], "")

        def pick(name, parent=None):
            mask = names == name
            if parent is not None:
                mask &= parent_names == parent
            return mask

        def mean_us(name):
            mask = pick(name)
            return float(total[mask].mean()) / 1e3 if mask.any() else 0.0

        propose = "acquisition.propose_next"
        fit_ns = float(total[pick("surrogate.fit")].sum())
        ll_in_fit_ns = float(total[pick("surrogate.log_likelihood", "surrogate.fit")].sum())
        proposals = max(int(pick(propose).sum()), 1)
        return {
            "surrogate.fit_calls": int(pick("surrogate.fit").sum()),
            "surrogate.fit_restored_frac": self.fits_restored / max(self.fits, 1),
            "surrogate.adam_step_us": (fit_ns - ll_in_fit_ns) / 1e3 / max(self.adam_steps, 1),
            "surrogate.log_likelihood_ms": float(total[pick("surrogate.log_likelihood")].sum()) / 1e6,
            "acquisition.rates_calls_per_propose": int(pick("surrogate.rates", propose).sum()) / proposals,
            "acquisition.grad_calls_per_propose":
                int(pick("surrogate.rate_and_input_grad", propose).sum()) / proposals,
            "acquisition.rate_and_input_grad_us": mean_us("surrogate.rate_and_input_grad"),
            "acquisition.logsumexp_calls": int(pick("acquisition.logsumexp").sum()),
            "acquisition.logsumexp_ms": float(total[pick("acquisition.logsumexp")].sum()) / 1e6,
            "acquisition.rectified_winner_frac": self.rectified_winners / max(self.proposals, 1),
            "poisson.log_partial_exp_sum_calls": int(pick("poisson.log_partial_exp_sum").sum()),
            "poisson.log_partial_exp_sum_ms":
                float(total[pick("poisson.log_partial_exp_sum")].sum()) / 1e6,
            "poisson.log_factorials_calls": int(pick("poisson.log_factorials").sum()),
            "engine.compute_ranks_us": mean_us("engine.compute_ranks"),
            "engine.self_ms_per_iter": float(self_ns[pick("engine.run")].sum()) / 1e6 / max(model_steps, 1),
            "harness.write_trace_ms": mean_us("harness.write_trace_csv") / 1e3,
            "benchmarks.evaluate_us": mean_us("benchmarks.evaluate"),
        }
