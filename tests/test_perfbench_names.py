"""Every name the benchmark's span tracer rebinds exists on the package.

``perfbench/tracing.py`` replaces the functions in ``FUNCTIONS`` and the
class methods in ``METHODS`` by name; a renamed or deleted one stops its
traced run.  The module is read from the checkout and left as it is.
"""

import types
from pathlib import Path

import pytest

import fput_fronts
import fput_fronts.cli  # noqa: F401  (the tracer loads every module this way)


def _tracing():
    # compiled from source, so no bytecode cache is written under perfbench/
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


TRACING = _tracing()


@pytest.mark.parametrize(
    "module, name",
    [(m, a) for m, attrs in TRACING.FUNCTIONS.items() for a in attrs],
)
def test_traced_function_resolves(module, name):
    assert callable(getattr(getattr(fput_fronts, module), name))


@pytest.mark.parametrize(
    "module, cls, name",
    [(m, c, a) for (m, c), attrs in TRACING.METHODS.items() for a in attrs],
)
def test_traced_method_is_defined_on_its_class(module, cls, name):
    # the tracer reads the method from the class's own namespace
    assert callable(vars(getattr(getattr(fput_fronts, module), cls))[name])
