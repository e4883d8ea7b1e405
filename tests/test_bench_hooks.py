"""The benchmark's tracer wraps mixcast functions by name from outside
(``bench/spans.py``).  These tests load that module as it is and check
that every name it wraps still exists, so a rename fails here instead of
breaking ``bench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

import pytest

import mixcast
import mixcast.cli  # noqa: F401 - imports every module the tracer wraps
from mixcast import models as md
from mixcast import training as tr
from mixcast.rng import make_rng
from mixcast.tensor import Tape, backward

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


def test_matmul_spans_count_every_linear_map(spans):
    """One traced train step records one ``tensor.matmul`` span per linear
    map, whose flop add up to 2 * out * in * (the input's other extents)."""
    cfg = md.ModelConfig(family="tsmixer_ext", lookback=6, horizon=4, targets=3,
                         hist_covariates=1, future_covariates=2, static_features=2,
                         hidden=5, blocks=2, dropout=0.1, head="negative_binomial")
    model = md.Forecaster(cfg, seed=1)
    rng = make_rng(2)
    B, T = 3, cfg.horizon
    history = rng.normal(size=(B, cfg.lookback, cfg.input_channels))
    future = rng.normal(size=(B, T, cfg.future_covariates))
    static = rng.normal(size=(B, 1, cfg.static_features))
    counts = rng.poisson(3.0, size=(B, T, cfg.targets)).astype(float)

    tracer = spans.Tracer()
    tracer.install(mixcast)
    try:
        tape = Tape()
        bound = model.bind(tape)
        out = model.forward(history, future, static, mode="train", rng=make_rng(3), params=bound)
        loss = tr.nb_nll_loss(out.mean, out.dispersion, counts)
        grads = backward(tape, loss)
        tr.adam_step(model.params, {k: grads[t.nid].data for k, t in bound.items()},
                     tr.adam_init(model.params), 1e-3)
    finally:
        tracer.remove()

    P = model.params
    columns = {"align_time": cfg.input_channels}  # time-axis maps: columns of their input
    columns.update({f"block{k}.time": P[f"block{k}.time_norm.scale"].shape[1]
                    for k in range(cfg.blocks)})
    maps = [name[: -len(".weight")] for name in P if name.endswith(".weight")]
    flop = sum(2 * P[f"{m}.weight"].size * B * columns.get(m, T) for m in maps)
    matmuls = [s for s in tracer.spans if s[0] == "tensor.matmul"]
    assert len(matmuls) == len(maps)
    assert sum(s[4]["flop"] for s in matmuls) == flop
