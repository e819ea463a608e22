"""Run the doctest examples embedded in module/class docstrings.

Documentation that executes is documentation that stays true: every
``>>>`` example shipped in the public API is verified here.
"""

import doctest
import importlib
import sys

import pytest

MODULE_NAMES = [
    "repro.sim.engine",
    "repro.net.multicast",
    "repro.exchange.order_book",
    "repro.exchange.accounting",
    "repro.core.delivery_clock",
    "repro.core.system",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_doctests(name):
    importlib.import_module(name)
    module = sys.modules[name]
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctest examples"
    assert results.failed == 0
