"""In-memory spans around the public calls into each edgeproc layer.

``install`` replaces the public functions and methods of the seven modules
with wrappers that open a span per call, at every place the package binds
them (``from .process import replica_rng`` in montecarlo, for example), so
calls between layers are traced as well as calls from the benchmark.  Spans
nest per thread; a span's self time is its duration minus the time covered
by its children.  Nothing under ``src/`` is edited: the wrappers live only in
the traced process.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time


class Span:
    __slots__ = ("name", "parent", "phase", "start", "end", "count", "tag",
                 "child_s")

    def __init__(self, name, parent, phase):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = 0.0
        self.end = 0.0
        self.count = 1
        self.tag = ""
        self.child_s = 0.0

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.child_s


class _Open:
    """Context manager that records one span on exit."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer = tracer
        self.span = span

    def __enter__(self):
        self.tracer._stack().append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        sp = self.span
        sp.end = time.perf_counter()
        stack = self.tracer._stack()
        stack.pop()
        if sp.parent is not None:
            sp.parent.child_s += sp.dur
        self.tracer.spans.append(sp)
        return False


class Tracer:
    """Collects spans in memory; ``phase`` labels the part of the run."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._local = threading.local()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, name):
        st = self._stack()
        return _Open(self, Span(name, st[-1] if st else None, self.phase))

    def summary(self):
        """Per (phase, name): calls, counted items, total and self seconds."""
        rows = {}
        for s in self.spans:
            r = rows.setdefault((s.phase, s.name), [0, 0, 0.0, 0.0])
            r[0] += 1
            r[1] += s.count
            r[2] += s.dur
            r[3] += s.self_s
        return [{"phase": p, "name": n, "calls": c, "count": k,
                 "total_s": t, "self_s": sf}
                for (p, n), (c, k, t, sf) in sorted(rows.items())]


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    phase = "setup"

    class _Null:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    _null = _Null()

    def span(self, name):
        return self._null


# -- wrapping the package --------------------------------------------------

def _arg(fn, key):
    """Reads argument ``key`` of a call to ``fn`` from (args, kwargs)."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        return sig.bind(*args, **kwargs).arguments.get(key)
    return get


MEASURE_CONSTRUCTORS = ("power_law_product", "first_rank", "factorial_max",
                        "double_exp", "isolated_edges", "explicit",
                        "measure_from_dict", "load_measure")


def _targets(ep):
    """(owner, attribute, span name, recorder) for every traced public call.

    A recorder stores on the span the amount of work the call did: replicas
    for estimators, events for trajectories, epochs for the coupling, block
    size (and method) for respect factors.
    """
    m, p, g, a, mc, u, cli = (ep.measure, ep.process, ep.graphstate,
                              ep.analytic, ep.montecarlo, ep.urns, ep.cli)
    out = []
    for name in MEASURE_CONSTRUCTORS:
        out.append((m, name, f"measure.{name}", None))
    sample_n = _arg(m.MeasureSpec.sample_edge_indices, "n")
    n_events = _count(lambda a_, k, r: len(r))
    out += [
        (m.MeasureSpec, "normalize", "measure.normalize", None),
        (m.MeasureSpec, "support_connected", "measure.support_connected",
         None),
        (m.MeasureSpec, "sample_edge_indices", "measure.sample_edge_indices",
         _count(lambda a_, k, r: int(sample_n(a_, k)))),
        (p, "replica_rng", "process.replica_rng", None),
        (p, "run_discrete", "process.run_discrete",
         n_events),
        (p, "run_continuous", "process.run_continuous",
         n_events),
        (p, "depoissonize", "process.depoissonize", n_events),
        (g, "replay", "graphstate.replay", n_events),
        (g, "snapshots_to_csv", "graphstate.snapshots_to_csv", None),
    ]
    for name in a.__all__:
        obj = getattr(a, name)
        if inspect.isfunction(obj):
            out.append((a, name, f"analytic.{name}", None))
    for name in ("estimate_event", "connectivity_growth",
                 "connected_frequency_curve", "i_event_growth",
                 "clt_diagnostic", "depoissonization_agreement",
                 "vertex_count_samples", "urn_count_samples",
                 "vertex_presence_samples"):
        reps = _arg(getattr(mc, name), "replicas")
        out.append((mc, name, f"montecarlo.{name}",
                     _count(lambda a_, k, r, reps=reps: int(reps(a_, k)))))
    lam_of = _arg(u.respect_factor, "block_lambdas")
    method_of = _arg(u.respect_factor, "method")

    def respect(sp, a_, k, r):
        sp.count = len(lam_of(a_, k))
        sp.tag = method_of(a_, k) or "default"
    out += [
        (u, "run_urn", "urns.run_urn", None),
        (u.CouplingEngine, "__init__", "urns.CouplingEngine", None),
        (u.CouplingEngine, "run", "urns.CouplingEngine.run",
         _count(lambda a_, k, r: int(r.step))),
        (u.CouplingEngine, "step", "urns.CouplingEngine.step", None),
        (u, "coupling_lambda", "urns.coupling_lambda", None),
        (u, "coupling_step", "urns.coupling_step", None),
        (u, "run_coupling", "urns.run_coupling", None),
        (u, "coupling_rate_audit", "urns.coupling_rate_audit", None),
        (u, "respect_factor", "urns.respect_factor", respect),
        (u, "urns_in_order", "urns.urns_in_order", None),
        (u, "essential_completeness_product",
         "urns.essential_completeness_product", None),
        (cli, "main", "cli.main", None),
    ]
    return out


def _count(work):
    """Recorder that stores work(args, kwargs, result) as the span's count."""
    def record(sp, args, kwargs, out):
        sp.count = work(args, kwargs, out)
    return record


def _wrap(tracer, fn, name, record):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as sp:
            out = fn(*args, **kwargs)
            if record is not None:
                record(sp, args, kwargs, out)
        return out
    return traced


def install(tracer, ep):
    """Wraps every target in the loaded package ``ep``.

    Module-level functions are rebound in every edgeproc module that holds
    the same object, so name imports between modules see the wrapper too.
    """
    modules = [ep] + [getattr(ep, n) for n in
                      ("measure", "process", "graphstate", "analytic",
                       "montecarlo", "urns", "cli")]
    for owner, attr, name, record in _targets(ep):
        orig = owner.__dict__[attr]
        wrapped = _wrap(tracer, orig, name, record)
        if inspect.isclass(owner):
            setattr(owner, attr, wrapped)
        else:
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    setattr(mod, attr, wrapped)
