"""Every name that a `memfuse` module exports in `__all__` exists in it."""

import importlib
import pkgutil

import pytest

import memfuse

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(memfuse.__path__, prefix="memfuse.")
) + ["memfuse"]


def test_every_module_is_listed():
    assert {"memfuse.av", "memfuse.regressors.svr", "memfuse.text.sentiment"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
