"""The benchmark tracer's names still exist in walklab.

perfbench/tracer.py wraps walklab functions by name and reads some of
their arguments by name.  A rename shows up there only in the
minutes-long benchmark self-test; these checks read the tracer's tables
(without installing it) and fail at once.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolve(name: str):
    """The function a span name wraps, looked up as Tracer.install does; None if absent."""
    module_name, _, attr = name.partition(".")
    owner_name, _, fn_name = attr.rpartition(".")
    module = importlib.import_module(f"walklab.{module_name}")
    owner = getattr(module, owner_name, None) if owner_name else module
    return getattr(owner, fn_name, None)


def _strings(consts):
    for c in consts:
        if isinstance(c, str):
            yield c
        elif isinstance(c, tuple):
            yield from _strings(c)


def _arguments_read(counter) -> set[str]:
    """The argument names a counter reads: its string constants that are not count names."""
    return set(_strings(counter.__code__.co_consts)) - set(tracer.COMPUTED_COUNTS)


@pytest.mark.parametrize("name", sorted(tracer.SPANS))
def test_span_resolves(name):
    assert callable(_resolve(name)), f"{name} no longer exists"


@pytest.mark.parametrize("name", sorted(tracer.COUNTERS))
def test_counter_arguments_exist(name):
    params = inspect.signature(_resolve(name)).parameters
    missing = _arguments_read(tracer.COUNTERS[name]) - set(params)
    assert not missing, f"{name} lost the arguments {sorted(missing)}"


def test_counter_arguments_are_found():
    read = {name: _arguments_read(c) for name, c in tracer.COUNTERS.items()}
    assert read["spectral.decompose"] == {"D"}
    assert read["szegedy.find_via_interpolation"] == {"P", "T"}
    for name in ("line_localization", "grid_localization", "subgrid_coverage"):
        assert read[f"locality.{name}"] == {"T", "trials"}
