"""perfbench's tracer wraps the package's functions by name, so a rename
inside the package must not leave it wrapping nothing."""

import importlib.util
import pathlib

import termrw

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_wraps_names_that_exist():
    for layer, (owner, attr, _outermost) in _load_tracer().WRAPPED.items():
        assert callable(getattr(owner, attr, None)), f"{layer}: {owner.__name__}.{attr}"


def test_every_exported_name_resolves():
    missing = [name for name in termrw.__all__ if not hasattr(termrw, name)]
    assert missing == []
