"""Every name a homlab module lists in ``__all__`` exists, so a deleted
function cannot leave a stale entry behind."""

import importlib
import pkgutil

import pytest

import homlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(homlab.__path__))


def test_the_library_modules_list_their_names():
    for name in ("containers", "experiments", "generators", "graphs", "homogeneous", "params",
                 "tournaments"):
        assert importlib.import_module(f"homlab.{name}").__all__


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"homlab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
