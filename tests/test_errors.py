"""One error contract: every error class the library defines derives from
``EmdualityError`` and keeps its builtin base; input errors derive from
``InputError``, which the command line reports with exit 3."""

import importlib
import inspect
import pkgutil

import pytest

import emduality
from emduality.errors import EmdualityError, InputError, UsageError

INPUT_ERRORS = {
    "models": {"ModelError": ValueError, "ModelInvalidError": ValueError},
    "holonomy": {"PresentationError": ValueError},
    "expressions": {"ExprSyntaxError": ValueError, "UnknownSymbolError": ValueError},
    "grids": {"GridError": ValueError, "DomainExitError": ValueError},
    "fields": {"SingularMetricError": ValueError},
    "spinors": {"FrameError": ValueError},
    "symplectic": {"DimensionError": ValueError, "DomainError": ValueError,
                   "PoleError": ArithmeticError},
}


def library_errors():
    for info in pkgutil.iter_modules(emduality.__path__):
        module = importlib.import_module(f"emduality.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__):
                yield f"{info.name}.{name}", obj


def test_every_library_error_has_the_one_root():
    found = dict(library_errors())
    listed = {f"{m}.{n}" for m, names in INPUT_ERRORS.items() for n in names}
    assert listed | {"duality.SampleInstabilityError", "errors.UsageError"} <= set(found)
    stray = [name for name, cls in found.items() if not issubclass(cls, EmdualityError)]
    assert not stray


@pytest.mark.parametrize("module", sorted(INPUT_ERRORS))
def test_input_errors_keep_their_builtin_base(module):
    mod = importlib.import_module(f"emduality.{module}")
    for name, base in INPUT_ERRORS[module].items():
        cls = getattr(mod, name)
        assert issubclass(cls, InputError) and issubclass(cls, base), name
        assert not issubclass(cls, UsageError), name


def test_sample_instability_is_a_failed_check():
    from emduality.duality import SampleInstabilityError

    assert issubclass(SampleInstabilityError, RuntimeError)
    assert issubclass(SampleInstabilityError, EmdualityError)
    assert not issubclass(SampleInstabilityError, InputError)


def test_roots_are_exported():
    assert (emduality.EmdualityError, emduality.InputError,
            emduality.UsageError) == (EmdualityError, InputError, UsageError)
