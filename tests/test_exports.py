"""Every popbo module's export list names what the module defines.

A name deleted from a module but left in its __all__ breaks only star
imports, which nothing else in the suite performs.
"""

import importlib
import pkgutil

import pytest

import popbo

MODULES = ["popbo"] + [f"popbo.{info.name}" for info in pkgutil.iter_modules(popbo.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)

