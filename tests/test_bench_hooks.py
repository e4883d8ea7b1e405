"""The benchmark's tracer wraps mixcast functions by name from outside
(``bench/spans.py``).  These tests load that module as it is and check
that every name it wraps still exists, so a rename fails here instead of
breaking ``bench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

import pytest

import mixcast
import mixcast.cli  # noqa: F401 - imports every module the tracer wraps

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(spans):
    hooks = spans.targets(spans.Tracer(), mixcast)
    assert hooks
    for owner, attr, *_ in hooks:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_install_then_remove_restores_the_originals(spans):
    hooks = spans.targets(spans.Tracer(), mixcast)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in hooks]
    tracer = spans.Tracer()
    tracer.install(mixcast)
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        tracer.remove()
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr}"
