"""The names the benchmark's traced run wraps still exist, and its exact
respect-factor checks pass.

``perfbench/spans.py`` replaces public functions and methods by name; a
rename in the package would pass every other test and break only a traced
benchmark run.  An exact check that misses marks a benchmark run incorrect.
The files are read and run in memory, so nothing is written under
``perfbench/``.
"""

import inspect
import runpy
from pathlib import Path

import pytest

import edgeproc
import edgeproc.cli  # noqa: F401  (spans reads edgeproc.cli)
from edgeproc import montecarlo as mc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_every_traced_name_is_defined_on_its_owner():
    targets = runpy.run_path(str(SPANS))["_targets"](edgeproc)
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, _, _ in targets
               if attr not in owner.__dict__]
    assert missing == []


@pytest.mark.parametrize("name", ["estimate_event", "vertex_count_samples"])
def test_traced_estimators_take_threads(name):
    assert "threads" in inspect.signature(getattr(mc, name)).parameters


def test_exact_coupling_checks_pass():
    tracer = runpy.run_path(str(SPANS))["NullTracer"]()
    workload = runpy.run_path(str(PERFBENCH / "checks.py"))["Coupling"](
        1, "min", tracer)
    workload.setup()
    for name in ("respect_k8", "respect_k20", "completeness_product"):
        out = getattr(workload, name)()
        assert out.ok, (name, out.values)
