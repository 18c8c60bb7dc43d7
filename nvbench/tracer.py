"""In-memory span tracer for nvdeer, installed from outside the package.

The tracer replaces public functions of the nvdeer layers (and two numpy
kernels they lean on) with wrappers that record a span or a count at the
call boundary, then puts the originals back.  Nothing in ``src/`` knows
about it.

* A span is ``[name, start, end, parent, leaf_s]``: perf_counter times,
  the index of the enclosing span (-1 at the top) and the time spent in
  leaf calls made directly inside it.
* Leaf calls (``numpy.linalg.eigh``, numpy ``leggauss``) happen up to
  ~10^5 times per run, so they are aggregated instead of stored: a count
  and a time per layer that has a span open around them, and their
  duration is charged to the innermost open span's ``leaf_s``.
* Counters (calls, least-squares starts/nfev/njev, bytes written) are
  taken at the same boundaries.

Self time of a span is its duration minus its direct child spans and its
leaf time; a layer's self time is the sum over that layer's spans.
"""

import collections
import contextlib
import json
import os
import sys
import time

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Spans, leaf aggregates and counters of one traced round."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.leaf_s = collections.Counter()
        self._stack = []
        self._open = collections.Counter()
        self._undo = []

    # ------------------------------------------------------------ spans

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent, 0.0])
        self._stack.append(len(self.spans) - 1)
        self._open[name.split(".")[0]] += 1

    def _exit(self):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[2] = _clock()
        self._open[span[0].split(".")[0]] -= 1

    @contextlib.contextmanager
    def span(self, name):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def spanned(self, name, fn, after=None):
        """fn wrapped in a span; name may be a callable of the arguments.

        after(args, kwargs, result) runs inside the span to take counts.
        """
        def wrapper(*args, **kwargs):
            self._enter(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                self._exit()
        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name, fn):
        """fn counted and timed as name ('<layer>.<what>') while a span of
        that layer is open."""
        layer = name.split(".")[0]

        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                if self._stack:
                    self.spans[self._stack[-1]][4] += dt
                if self._open[layer]:
                    self.counts[f"{name}_calls"] += 1
                    self.leaf_s[name] += dt
        wrapper.__wrapped__ = fn
        return wrapper

    # ---------------------------------------------------------- patching

    def patch(self, owner, attr, wrapper):
        """Install wrapper for owner.attr and for every nvdeer module
        global bound to the same object (names imported with 'from')."""
        original = getattr(owner, attr)
        self._set(owner, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not mod_name.startswith("nvdeer"):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls, attr, wrap):
        """Wrap a plain or class method defined on cls."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(wrap(raw.__func__))
        else:
            new = wrap(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # ----------------------------------------------------------- results

    def self_time(self, layer):
        """Sum over the layer's spans of duration minus direct child
        spans and leaf calls."""
        child = collections.Counter()
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = 0.0
        for i, (name, start, end, _, leaf) in enumerate(self.spans):
            if name.split(".")[0] == layer:
                total += (end - start) - child[i] - leaf
        return total

    def span_time(self, name):
        return sum(e - s for n, s, e, _, _ in self.spans if n == name)

    def span_calls(self, name):
        return sum(1 for n, *_ in self.spans if n == name)

    def write(self, path):
        """Write spans, counts and leaf aggregates as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "spans": [{"name": n, "start_s": s - t0, "end_s": e - t0,
                       "parent": p, "leaf_s": leaf}
                      for n, s, e, p, leaf in self.spans],
            "counts": dict(self.counts),
            "leaf_s": dict(self.leaf_s),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _fit_results(result):
    """Number of FitResult objects a fitting stage returned."""
    from nvdeer.fitting import FitResult
    items = result if isinstance(result, tuple) else (result,)
    n = 0
    for item in items:
        if isinstance(item, FitResult):
            n += 1
        elif isinstance(item, list):
            n += sum(isinstance(r, FitResult) for r in item)
    return n


def install(tracer):
    """Wrap the layer boundaries of an imported nvdeer package."""
    from nvdeer import (datasets, deer, dynamics, fitting, hamiltonians,
                        photophysics)

    t = tracer

    def transfer_name(args, kwargs):
        method = kwargs.get("method", args[5] if len(args) > 5 else
                            "adaptive")
        return f"deer.transfer_{method}"

    t.patch(deer, "population_transfer",
            t.spanned(transfer_name, deer.population_transfer))

    def count_fits(args, kwargs, result):
        t.counts["fitting.fits"] += _fit_results(result)

    for attr, span in (("fit_lorentzian_peaks", "fitting.peaks"),
                       ("fit_rabi_frequency", "fitting.rabi"),
                       ("fit_concentration_spectrum", "fitting.concentration"),
                       ("fit_central_line_two_species", "fitting.central")):
        t.patch(fitting, attr,
                t.spanned(span, getattr(fitting, attr), after=count_fits))

    least_squares = fitting.least_squares

    def counted_least_squares(*args, **kwargs):
        res = least_squares(*args, **kwargs)
        t.counts["fitting.starts"] += 1
        t.counts["fitting.nfev"] += int(res.nfev)
        t.counts["fitting.njev"] += int(res.njev or 0)
        return res

    t._set(fitting, "least_squares", counted_least_squares)

    for attr in ("ensemble_transfer", "transition_spectrum", "simulate_rabi"):
        t.patch(dynamics, attr,
                t.spanned(f"dynamics.{attr}", getattr(dynamics, attr)))
    t.patch(photophysics, "steady_state_populations",
            t.spanned("photophysics.steady_state",
                      photophysics.steady_state_populations))
    t.patch(hamiltonians, "static_hamiltonian",
            t.spanned("hamiltonians.static_hamiltonian",
                      hamiltonians.static_hamiltonian))

    def count_bytes(path_index):
        def after(args, kwargs, result):
            t.counts["datasets.bytes_written"] += os.path.getsize(
                args[path_index])
        return after

    t.patch_method(datasets.DataSet, "write_csv",
                   lambda fn: t.spanned("datasets.write", fn,
                                        after=count_bytes(1)))
    t.patch_method(datasets.DataSet, "read_csv",
                   lambda fn: t.spanned("datasets.read", fn))
    for attr in ("write_summary", "write_plot_spec"):
        t.patch(datasets, attr, t.spanned("datasets.write",
                                          getattr(datasets, attr),
                                          after=count_bytes(0)))
    t.patch(datasets, "read_summary",
            t.spanned("datasets.read", datasets.read_summary))

    t._set(np.linalg, "eigh", t.leaf("dynamics.eigh", np.linalg.eigh))
    legendre = np.polynomial.legendre
    t._set(legendre, "leggauss", t.leaf("deer.leggauss", legendre.leggauss))


def layer_metrics(tracer):
    """The per-layer metrics of one traced round, by name."""
    t = tracer
    c = t.counts
    starts = c["fitting.starts"]
    return {
        "deer.leggauss_calls": c["deer.leggauss_calls"],
        "deer.leggauss_s": t.leaf_s["deer.leggauss"],
        "deer.transfer_gauss_calls": t.span_calls("deer.transfer_gauss"),
        "deer.transfer_gauss_s": t.span_time("deer.transfer_gauss"),
        "deer.transfer_adaptive_calls": t.span_calls("deer.transfer_adaptive"),
        "deer.transfer_adaptive_s": t.span_time("deer.transfer_adaptive"),
        "fitting.peaks_s": t.span_time("fitting.peaks"),
        "fitting.rabi_s": t.span_time("fitting.rabi"),
        "fitting.concentration_s": t.span_time("fitting.concentration"),
        "fitting.central_s": t.span_time("fitting.central"),
        "fitting.starts": starts,
        "fitting.nfev": c["fitting.nfev"],
        "fitting.njev": c["fitting.njev"],
        "fitting.fits_per_start": c["fitting.fits"] / starts if starts else 0.0,
        "fitting.self_s": t.self_time("fitting"),
        "dynamics.ensemble_transfer_s": t.span_time("dynamics.ensemble_transfer"),
        "dynamics.transition_spectrum_calls":
            t.span_calls("dynamics.transition_spectrum"),
        "dynamics.simulate_rabi_s": t.span_time("dynamics.simulate_rabi"),
        "dynamics.eigh_calls": c["dynamics.eigh_calls"],
        "dynamics.eigh_s": t.leaf_s["dynamics.eigh"],
        "dynamics.self_s": t.self_time("dynamics"),
        "photophysics.steady_state_calls":
            t.span_calls("photophysics.steady_state"),
        "photophysics.steady_state_s": t.span_time("photophysics.steady_state"),
        "hamiltonians.static_hamiltonian_calls":
            t.span_calls("hamiltonians.static_hamiltonian"),
        "hamiltonians.static_hamiltonian_s":
            t.span_time("hamiltonians.static_hamiltonian"),
        "datasets.write_s": t.span_time("datasets.write"),
        "datasets.read_s": t.span_time("datasets.read"),
        "datasets.bytes_written": c["datasets.bytes_written"],
        "cli.self_s": t.self_time("cli"),
    }


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_pct"):
        return "%"
    if metric == "datasets.bytes_written":
        return "B"
    if metric == "fitting.fits_per_start":
        return "1"
    return "count"
