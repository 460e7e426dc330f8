"""The public surface: every exported name resolves, and nothing else is exported."""

import pytest

import zenoseq
from zenoseq import errors, floatsum, processes, race, rational

MODULES = [errors, floatsum, processes, race, rational]


def test_package_exports_each_module_name_once():
    module_names = [name for module in MODULES for name in module.__all__]
    assert len(set(module_names)) == len(module_names)
    assert sorted(zenoseq.__all__) == sorted(module_names)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from zenoseq import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(zenoseq.__all__)


@pytest.mark.parametrize("module", [zenoseq, *MODULES])
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
