"""Print, for each set-up phase and each check of a perfbench workload, the
``tracemalloc`` peak above the live size: the most memory the phase held at
once beyond what was already live when it began.

    python3 tools/phase_peaks.py wide_window --scale full

The workload is the one of ``perfbench/checks.py``, which this imports as
it stands, at seed 1.  A set-up phase is each outermost call into the
package that the workload's set-up makes (a measure build, the alias build,
the support check, ...), found with the wrappers of ``perfbench/spans.py``;
a check is one call of its function.  Calls made from other threads count
toward the phase that started them.  ``tracemalloc`` sees the allocations
of Python and numpy, not those a library makes on its own, so the peaks
name the phase that sets ``peak_rss_mb`` without summing to it.  Runs are
slower under tracing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import sys
import tracemalloc
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SEED = 1


def _load(name):
    """perfbench/{name}.py as a module, run as it stands."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class PeakTracer:
    """A perfbench tracer whose outermost spans each record (phase, name,
    live bytes at the start, peak bytes above them); inner spans and spans
    opened while one is open record nothing."""

    def __init__(self):
        self.phase = "setup"
        self.rows = []
        self._open = False

    @contextlib.contextmanager
    def span(self, name):
        if self._open:
            yield types.SimpleNamespace()
            return
        self._open = True
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            yield types.SimpleNamespace()
        finally:
            self._open = False
            peak = tracemalloc.get_traced_memory()[1]
            self.rows.append((self.phase, name, live, peak - live))


def phase_peaks(workload, scale):
    """PeakTracer rows of the workload's set-up and of each of its checks."""
    sys.path.insert(0, str(ROOT / "src"))
    import edgeproc
    import edgeproc.cli  # noqa: F401  (the checks call the command line)
    spans, checks = _load("spans"), _load("checks")
    tracer = PeakTracer()
    spans.install(tracer, edgeproc)
    tracemalloc.start()
    try:
        wl = checks.WORKLOADS[workload](SEED, scale, tracer)
        wl.setup()
        tracer.phase = "check"
        for chk in wl.checks():
            with tracer.span(chk.name):
                chk.fn()
    finally:
        tracemalloc.stop()
    return tracer.rows


def report(workload, scale):
    rows = phase_peaks(workload, scale)
    lines = [f"{workload} seed {SEED} scale {scale}: tracemalloc peak above "
             "the live size",
             f"  {'phase':6s} {'name':44s} {'live_mb':>8s} {'peak_mb':>8s}"]
    lines += [f"  {phase:6s} {name:44s} {live / 1e6:8.1f} {peak / 1e6:+8.1f}"
              for phase, name, live, peak in rows]
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=("small_many", "wide_window",
                                         "coupling"))
    ap.add_argument("--scale", choices=("min", "full"), default="full")
    args = ap.parse_args(argv)
    print(report(args.workload, args.scale))


if __name__ == "__main__":
    main()
