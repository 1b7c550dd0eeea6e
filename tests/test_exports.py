"""Each library module's ``__all__`` names exactly its public definitions.

A name deleted from a module but left in its export list, or a public
function or class added without being exported, fails here.
"""

import importlib
import inspect

import pytest

MODULES = ["measure", "process", "graphstate", "analytic", "montecarlo",
           "urns"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    mod = importlib.import_module(f"edgeproc.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    defined = {n for n, obj in vars(mod).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__}
    assert sorted(defined - set(mod.__all__)) == []
