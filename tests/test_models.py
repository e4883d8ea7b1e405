"""Model families, closed-form solutions, and parameter accounting."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from mixcast import data as dt
from mixcast import errors
from mixcast import models as md
from mixcast import tensor as tc
from mixcast.rng import make_rng
from mixcast.tensor import Tape, Tensor


def periodic_template(period, steps, variates=1, seed=0):
    """Exactly periodic signal: a random template repeated."""
    rng = make_rng(seed)
    template = rng.normal(size=(period, variates))
    idx = np.arange(steps) % period
    return template[idx]


def windows_of(series, lookback, horizon, starts):
    hist = np.stack([series[s : s + lookback] for s in starts])
    targ = np.stack([series[s + lookback : s + lookback + horizon] for s in starts])
    return hist, targ


class TestPeriodicSolution:
    def test_one_hot_layout_small_case(self):
        # step 1 reads two back; step 2 reads the latest value (minimal lag)
        w, b = md.construct_periodic_solution(2, 3, 2, scale=1.0, offset=0.0)
        np.testing.assert_array_equal(w, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(b, [0.0, 0.0])

    def test_exact_on_periodic_signal(self):
        period, lookback, horizon = 7, 24, 12
        series = periodic_template(period, 200, variates=3, seed=1)
        w, b = md.construct_periodic_solution(period, lookback, horizon)
        hist, targ = windows_of(series, lookback, horizon, range(0, 150, 11))
        pred = md.forward_linear(hist, w, np.asarray(b)).data
        assert np.max(np.abs(pred - targ)) == 0.0

    def test_exact_on_affine_periodic_recursion(self):
        # x(t) = a * x(t-P) + c, horizon covering a full period ahead.  The
        # final step must read the latest observation, not one period back:
        # the recursion compounds for older lags, so only the minimal lag
        # applies the map exactly once.
        period, lookback, horizon = 6, 19, 6
        a, c = 1.02, 0.35
        rng = make_rng(2)
        steps = 120
        x = np.empty((steps, 1))
        x[:period, 0] = rng.normal(size=period)
        for t in range(period, steps):
            x[t] = a * x[t - period] + c
        w, b = md.construct_periodic_solution(period, lookback, horizon, scale=a, offset=c)
        hist, targ = windows_of(x, lookback, horizon, range(0, 80, 7))
        pred = md.forward_linear(hist, w, b).data
        assert np.max(np.abs(pred - targ)) == 0.0

    def test_parameter_domains(self):
        with pytest.raises(errors.ParameterError):
            md.construct_periodic_solution(0, 10, 2)
        with pytest.raises(errors.ParameterError):
            md.construct_periodic_solution(10, 10, 2)
        with pytest.raises(errors.ParameterError):
            md.construct_periodic_solution(3, 10, 0)


class TestPeriodicPlusTrendSolution:
    def test_colliding_positions_add(self):
        # At horizon steps that are period multiples the one-hot at
        # w[i mod P] collides with the -1 at w[0]: the row reduces to a
        # single +1 on the most recent observation.
        period, lookback = 4, 9
        w, _ = md.construct_periodic_plus_trend_solution(period, lookback, 8)
        base = lookback - (period + 1)
        row = w[period - 1 + 1 - 1]  # horizon step i == period
        expect = np.zeros(lookback)
        expect[base + period] = 1.0
        np.testing.assert_array_equal(row, expect)
        # a generic step touches three positions
        row1 = w[0]
        expect1 = np.zeros(lookback)
        expect1[base + period] = 1.0
        expect1[base + 1] = 1.0
        expect1[base] = -1.0
        np.testing.assert_array_equal(row1, expect1)

    def test_linear_trend_error_identity(self):
        # With f(t) = K*t the forecast error at horizon step i is exactly
        # K * (i - (i mod P)).
        period, lookback, horizon, K = 5, 16, 12, 0.3
        steps = 120
        g = periodic_template(period, steps, seed=3)[:, 0]
        t = np.arange(steps)
        series = (g + K * t)[:, None]
        w, b = md.construct_periodic_plus_trend_solution(period, lookback, horizon)
        hist, targ = windows_of(series, lookback, horizon, range(0, 60, 9))
        pred = md.forward_linear(hist, w, b).data
        err = np.abs(pred - targ)[:, :, 0]
        i = np.arange(1, horizon + 1)
        expect = K * (i - (i % period))
        np.testing.assert_allclose(err, np.tile(expect, (err.shape[0], 1)), atol=1e-9)

    def test_bound_holds_for_random_lipschitz_trends(self):
        rng = make_rng(4)
        trials = 0
        for _ in range(50):
            period = int(rng.integers(2, 9))
            lookback = period + 1 + int(rng.integers(0, 6))
            horizon = int(rng.integers(1, 3 * period))
            K = float(rng.uniform(0.0, 2.0))
            steps = lookback + horizon + int(rng.integers(0, 30))
            g = periodic_template(period, steps, seed=int(rng.integers(1 << 30)))[:, 0]
            drift = rng.uniform(-K, K, size=steps - 1)
            f = np.concatenate([[0.0], np.cumsum(drift)])
            series = (g + f)[:, None]
            w, b = md.construct_periodic_plus_trend_solution(period, lookback, horizon)
            start = steps - lookback - horizon
            hist, targ = windows_of(series, lookback, horizon, [start])
            pred = md.forward_linear(hist, w, b).data
            err = np.abs(pred - targ)[0, :, 0]
            i = np.arange(1, horizon + 1)
            bound = K * (i + np.minimum(i, period))
            assert np.all(err <= bound + 1e-9)
            trials += 1
        assert trials == 50


def tiny_config(**kw):
    base = dict(family="tsmixer", lookback=8, horizon=4, targets=2, hidden=5, blocks=2,
                norm="layer")
    base.update(kw)
    return md.ModelConfig(**base)


class TestConfigValidation:
    def test_dropout_domain_names_field(self):
        with pytest.raises(errors.ConfigurationError, match="dropout"):
            tiny_config(dropout=1.2).validate()

    def test_covariates_require_ext_family(self):
        with pytest.raises(errors.ConfigurationError, match="tsmixer_ext"):
            tiny_config(static_features=3).validate()

    def test_nb_head_requires_ext_family(self):
        with pytest.raises(errors.ConfigurationError, match="negative_binomial"):
            tiny_config(head="negative_binomial").validate()

    def test_nb_head_rejects_rev_in(self):
        cfg = tiny_config(family="tsmixer_ext", head="negative_binomial", rev_in=True)
        with pytest.raises(errors.ConfigurationError, match="rev_in"):
            cfg.validate()

    def test_placement_defaults(self):
        assert tiny_config().placement == "pre"
        assert tiny_config(family="tsmixer_ext").placement == "post"
        assert tiny_config(norm_placement="post").placement == "post"


class TestFamilies:
    def test_linear_forward_shape_and_value(self):
        cfg = md.ModelConfig(family="linear", lookback=6, horizon=3, targets=2)
        model = md.Forecaster(cfg, seed=1)
        x = make_rng(5).normal(size=(4, 6, 2))
        out = model.forward(x).point
        assert out.shape == (4, 3, 2)
        want = md.forward_linear(x, model.params["proj.weight"], model.params["proj.bias"])
        np.testing.assert_array_equal(out.data, want.data)

    def test_tmix_only_shape(self):
        cfg = md.ModelConfig(family="tmix_only", lookback=8, horizon=4, targets=3,
                             blocks=2, norm="layer")
        model = md.Forecaster(cfg, seed=2)
        out = model.forward(make_rng(6).normal(size=(5, 8, 3))).point
        assert out.shape == (5, 4, 3)

    def test_tsmixer_shape(self):
        model = md.Forecaster(tiny_config(), seed=3)
        out = model.forward(make_rng(7).normal(size=(5, 8, 2))).point
        assert out.shape == (5, 4, 2)

    def test_tsmixer_ext_full_inputs_shape(self):
        cfg = tiny_config(family="tsmixer_ext", hist_covariates=3, future_covariates=2,
                          static_features=4)
        model = md.Forecaster(cfg, seed=4)
        rng = make_rng(8)
        out = model.forward(rng.normal(size=(5, 8, 5)), rng.normal(size=(5, 4, 2)),
                            rng.normal(size=(5, 1, 4))).point
        assert out.shape == (5, 4, 2)

    def test_tsmixer_ext_without_optional_branches(self):
        cfg = tiny_config(family="tsmixer_ext")
        model = md.Forecaster(cfg, seed=5)
        out = model.forward(make_rng(9).normal(size=(3, 8, 2))).point
        assert out.shape == (3, 4, 2)

    def test_missing_covariates_rejected(self):
        cfg = tiny_config(family="tsmixer_ext", future_covariates=2)
        model = md.Forecaster(cfg, seed=6)
        with pytest.raises(errors.DimensionError, match="future"):
            model.forward(np.zeros((2, 8, 2)))

    def test_bad_history_shape_rejected(self):
        model = md.Forecaster(tiny_config(), seed=7)
        with pytest.raises(errors.DimensionError, match="history"):
            model.forward(np.zeros((2, 7, 2)))

    def test_nb_head_outputs_strictly_positive(self):
        cfg = tiny_config(family="tsmixer_ext", head="negative_binomial")
        model = md.Forecaster(cfg, seed=8)
        out = model.forward(make_rng(10).normal(size=(4, 8, 2)) * 10.0)
        assert out.point is None
        assert np.all(out.mean.data > 0.0)
        assert np.all(out.dispersion.data > 0.0)

    def test_train_mode_with_dropout_needs_rng(self):
        model = md.Forecaster(tiny_config(dropout=0.5), seed=9)
        x = make_rng(11).normal(size=(4, 8, 2))
        with pytest.raises(errors.ParameterError, match="rng"):
            model.forward(x, mode="train")
        out = model.forward(x, mode="train", rng=make_rng(12)).point
        assert out.shape == (4, 4, 2)

    def test_deterministic_forward_same_seed(self):
        model = md.Forecaster(tiny_config(dropout=0.3), seed=10)
        x = make_rng(13).normal(size=(4, 8, 2))
        a = model.forward(x, mode="train", rng=make_rng(99)).point.data
        b = model.forward(x, mode="train", rng=make_rng(99)).point.data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("extra", [
        dict(family="linear"), dict(family="tmix_only", norm="batch2d"), dict(rev_in=True),
        dict(family="tsmixer_ext", hist_covariates=1, future_covariates=2, static_features=3),
        dict(family="tsmixer_ext", head="negative_binomial"),
    ], ids=["linear", "tmix_only", "tsmixer", "tsmixer_ext", "nb_head"])
    def test_one_window_forward_equals_its_batch_row(self, extra):
        # evaluate scores its hierarchy holdout with the batch's last row
        cfg = tiny_config(**extra)
        model = md.Forecaster(cfg, seed=14)
        rng = make_rng(15)
        inputs = [rng.normal(size=(6, 8, cfg.input_channels)),
                  rng.normal(size=(6, 4, cfg.future_covariates)),
                  rng.normal(size=(6, 1, cfg.static_features))]
        batched = model.forward(*inputs)
        single = model.forward(*(a[-1:] for a in inputs))
        for field in ("point", "mean", "dispersion"):
            if getattr(batched, field) is not None:
                np.testing.assert_array_equal(getattr(single, field).data,
                                              getattr(batched, field).data[-1:])


def test_eval_forward_reads_window_history_in_place():
    """An eval forward wraps a window batch's frozen history without a copy:
    it allocates less than the history occupies."""
    cfg = md.ModelConfig(family="linear", lookback=256, horizon=24, targets=40)
    model = md.Forecaster(cfg, seed=1)
    frame = dt.synth_periodic(24, 400, variates=cfg.targets, seed=2)
    batch = dt.make_windows(frame, dt.WindowSpec(cfg.lookback, cfg.horizon))
    model.forward(batch.history)  # warm-up: nothing lazy is counted below
    tracemalloc.start()
    try:
        model.forward(batch.history)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < batch.history.nbytes, (peak, batch.history.nbytes)


class TestResidualCollapse:
    def zero_mixing(self, model):
        for name, arr in model.params.items():
            if name.startswith("block"):
                if name.endswith(".scale"):
                    arr[...] = 1.0
                elif name.endswith(".shift"):
                    arr[...] = 0.0
                else:
                    arr[...] = 0.0

    def test_tsmixer_collapses_to_temporal_projection(self):
        cfg = tiny_config(norm="identity")
        model = md.Forecaster(cfg, seed=11)
        self.zero_mixing(model)
        x = make_rng(14).normal(size=(6, 8, 2))
        got = model.forward(x).point.data
        want = md.forward_linear(x, model.params["proj.weight"], model.params["proj.bias"]).data
        np.testing.assert_array_equal(got, want)

    def test_tmix_only_collapses_too(self):
        cfg = md.ModelConfig(family="tmix_only", lookback=8, horizon=4, targets=3,
                             blocks=3, norm="identity")
        model = md.Forecaster(cfg, seed=12)
        self.zero_mixing(model)
        x = make_rng(15).normal(size=(2, 8, 3))
        got = model.forward(x).point.data
        want = md.forward_linear(x, model.params["proj.weight"], model.params["proj.bias"]).data
        np.testing.assert_array_equal(got, want)


class TestRevIn:
    def test_rev_in_roundtrip_through_identity_collapse(self):
        cfg = tiny_config(norm="identity", rev_in=True)
        model = md.Forecaster(cfg, seed=13)
        TestResidualCollapse().zero_mixing(model)
        model.params["proj.weight"][...] = 0.0
        model.params["proj.weight"][:, -4:] = np.eye(4)  # copy the last 4 steps
        model.params["proj.bias"][...] = 0.0
        x = make_rng(16).normal(loc=100.0, scale=3.0, size=(3, 8, 2))
        out = model.forward(x).point.data
        np.testing.assert_allclose(out, x[:, -4:, :], atol=1e-10)

    def test_shift_equivariance(self):
        cfg = tiny_config(norm="layer", rev_in=True)
        model = md.Forecaster(cfg, seed=14)
        x = make_rng(17).normal(size=(4, 8, 2))
        shift = np.array([5.0, -11.0])
        base = model.forward(x).point.data
        moved = model.forward(x + shift).point.data
        np.testing.assert_allclose(moved, base + shift, atol=1e-9)

    @pytest.mark.parametrize("future, static", [(0, 0), (1, 2)],
                             ids=["historical", "historical_future_static"])
    def test_ext_with_historical_covariates(self, future, static):
        # rev-in normalizes the targets alone and joins the covariates to them.
        cfg = md.ModelConfig(family="tsmixer_ext", lookback=5, horizon=3, targets=2,
                             hist_covariates=2, future_covariates=future,
                             static_features=static, hidden=4, blocks=1, norm="layer",
                             rev_in=True)
        assert TestGradChecks().check_family(cfg, 25, with_future=bool(future),
                                             with_static=bool(static)) < 1e-6
        rng = make_rng(26)
        x = rng.normal(size=(4, 5, 4))
        fut = rng.normal(size=(4, 3, future)) if future else None
        stat = rng.normal(size=(4, 1, static)) if static else None
        model = md.Forecaster(cfg, seed=25)
        base = model.forward(x, fut, stat).point.data
        moved = x.copy()
        moved[:, :, :2] = 3.0 * moved[:, :, :2] + [5.0, -11.0]
        got = model.forward(moved, fut, stat).point.data
        np.testing.assert_allclose(got, 3.0 * base + [5.0, -11.0], rtol=0, atol=1e-12)


class TestGradChecks:
    def check_family(self, cfg, seed, with_future=False, with_static=False):
        model = md.Forecaster(cfg, seed=seed)
        rng = make_rng(seed + 100)
        x = rng.normal(size=(3, cfg.lookback, cfg.input_channels))
        fut = rng.normal(size=(3, cfg.horizon, cfg.future_covariates)) if with_future else None
        stat = rng.normal(size=(3, 1, cfg.static_features)) if with_static else None
        probe = rng.normal(size=(3, cfg.horizon, cfg.targets))
        names = sorted(model.params)

        def f(ps):
            bound = dict(zip(names, ps))
            out = model.forward(x, fut, stat, params=bound)
            val = out.point if out.point is not None else tc.add(out.mean, out.dispersion)
            return tc.mean(tc.mul(val, Tensor(probe)))

        return tc.grad_check(f, [model.params[n] for n in names])

    def test_linear(self):
        cfg = md.ModelConfig(family="linear", lookback=5, horizon=3, targets=2)
        assert self.check_family(cfg, 20) < 1e-4

    def test_tmix_only(self):
        cfg = md.ModelConfig(family="tmix_only", lookback=5, horizon=3, targets=2,
                             blocks=1, norm="layer")
        assert self.check_family(cfg, 21) < 1e-4

    def test_tsmixer(self):
        cfg = md.ModelConfig(family="tsmixer", lookback=5, horizon=3, targets=2,
                             hidden=4, blocks=1, norm="layer")
        assert self.check_family(cfg, 22) < 1e-4

    def test_tsmixer_ext_point(self):
        cfg = md.ModelConfig(family="tsmixer_ext", lookback=5, horizon=3, targets=2,
                             hist_covariates=1, future_covariates=1, static_features=2,
                             hidden=4, blocks=1, norm="layer")
        assert self.check_family(cfg, 23, with_future=True, with_static=True) < 1e-4

    @pytest.mark.parametrize("extra", [
        {"targets": 3},
        {"targets": 2, "static_features": 3},
        {"targets": 2, "future_covariates": 1},
    ], ids=["targets_ne_hidden", "static", "future"])
    def test_tsmixer_ext_pre_placement(self, extra):
        # Pre placement normalizes each conditional block's input, whose
        # width differs from hidden in all three cases.
        base = dict(family="tsmixer_ext", lookback=5, horizon=3, hidden=4, blocks=2,
                    norm_placement="pre", **extra)
        with_future = "future_covariates" in extra
        with_static = "static_features" in extra
        cfg = md.ModelConfig(**base, norm="batch2d")
        rng = make_rng(24)
        fut = rng.normal(size=(3, 3, 1)) if with_future else None
        stat = rng.normal(size=(3, 1, 3)) if with_static else None
        out = md.Forecaster(cfg, seed=24).forward(rng.normal(size=(3, 5, cfg.input_channels)),
                                                  fut, stat, mode="train").point
        assert out.shape == (3, 3, cfg.targets)
        cfg = md.ModelConfig(**base, norm="layer")
        assert self.check_family(cfg, 24, with_future=with_future, with_static=with_static) < 1e-4


class TestParamCount:
    CONFIGS = [
        md.ModelConfig(family="linear", lookback=12, horizon=5, targets=3),
        md.ModelConfig(family="tmix_only", lookback=12, horizon=5, targets=3, blocks=2),
        md.ModelConfig(family="tsmixer", lookback=12, horizon=5, targets=3, hidden=7, blocks=3),
        md.ModelConfig(family="tsmixer_ext", lookback=12, horizon=5, targets=3,
                       hist_covariates=2, future_covariates=4, static_features=6,
                       hidden=7, blocks=2),
        md.ModelConfig(family="tsmixer_ext", lookback=9, horizon=4, targets=2,
                       hidden=5, blocks=1, head="negative_binomial"),
        md.ModelConfig(family="tsmixer_ext", lookback=9, horizon=4, targets=2,
                       static_features=5, hidden=5, blocks=2),
    ]

    def test_matches_instantiated_sizes(self):
        for cfg in self.CONFIGS:
            model = md.Forecaster(cfg, seed=30)
            total = sum(arr.size for arr in model.params.values())
            assert md.param_count(cfg) == total, cfg.family
            affine = sum(arr.size for name, arr in model.params.items()
                         if name.endswith(".scale") or name.endswith(".shift"))
            assert md.param_count(cfg, include_norm_affine=False) == total - affine

    def test_shapes_match_the_built_arrays_in_walk_order(self):
        for stats in ("joint", "per_feature"):
            for cfg in self.CONFIGS:
                cfg = dataclasses.replace(cfg, batch_stats=stats)
                model = md.Forecaster(cfg, seed=30)
                params, buffers = md.Forecaster.shapes(cfg)
                assert list(params.items()) == [(k, a.shape) for k, a in model.params.items()]
                assert list(buffers.items()) == [(k, b.shape) for k, b in model.buffers.items()]

    def test_blocks_numpy_cannot_address_are_refused_without_a_walk(self):
        # Blocks after the first are alike, so the counts at 1 and 2 blocks
        # give any other; validate checks that, and walks nothing this long.
        for cfg in self.CONFIGS:
            one, two = (md.param_count(dataclasses.replace(cfg, blocks=k)) for k in (1, 2))
            assert md.param_count(dataclasses.replace(cfg, blocks=5)) == one + 4 * (two - one)
            if cfg.family == "linear":  # it has no blocks to count
                dataclasses.replace(cfg, blocks=10**20).validate()
                continue
            most = (md.MAX_FLOATS - one) // (two - one) + 1
            dataclasses.replace(cfg, blocks=most).validate()
            with pytest.raises(errors.ConfigurationError,
                               match=f"model.blocks = {most + 1} is too large"):
                dataclasses.replace(cfg, blocks=most + 1).validate()

    def test_linear_family_count(self):
        cfg = md.ModelConfig(family="linear", lookback=48, horizon=12, targets=7)
        assert md.param_count(cfg) == 12 * 48 + 12

    def test_additive_growth_in_lookback_and_channels(self):
        def count(L, C):
            cfg = md.ModelConfig(family="tsmixer", lookback=L, horizon=6, targets=C,
                                 hidden=16, blocks=2)
            return md.param_count(cfg, include_norm_affine=False)

        for c1, c2 in [(1, 5), (3, 11)]:
            assert count(64, c1) - count(32, c1) == count(64, c2) - count(32, c2)
        for l1, l2 in [(16, 48), (32, 96)]:
            assert count(l1, 10) - count(l1, 5) == count(l2, 10) - count(l2, 5)


class TestArchitecturePinned:
    """Names, shapes and bytes of every parameter and buffer at seed 0.

    The digest changes with the initialization order or a parameter name,
    which the sizes checked by TestParamCount cannot see.
    """

    @staticmethod
    def digest(model):
        h = hashlib.sha256()
        for group in (model.params, model.buffers):
            h.update(b"--")
            for name, arr in group.items():
                h.update(f"{name} {arr.shape} ".encode())
                h.update(arr.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("config, expected", [
        (dict(family="linear", lookback=12, horizon=5, targets=3),
         "91ac3fa6cfa0e54d149587ea92928d05b945917f042ad15e35a3db9536cc5f62"),
        (dict(family="tmix_only", lookback=12, horizon=5, targets=3, blocks=2),
         "d412c8c03a2c64e6354e80bc0e6ad96f3c57b2545a1f01b1b1f4951ca87eaf30"),
        (dict(family="tsmixer", lookback=12, horizon=5, targets=3, hidden=7, blocks=2,
              batch_stats="per_feature"),
         "21edf1406b82c283e29f6e7f30e108a7e2d7aa54fe4797ca2adf997dc7224d83"),
        (dict(family="tsmixer_ext", lookback=12, horizon=5, targets=3, hidden=7, blocks=2),
         "b0779bd54d490e90c2499d02f0116a01c4220e8ecb0c8ed628267ab8597da8bd"),
        (dict(family="tsmixer_ext", lookback=9, horizon=4, targets=2, hidden=5, blocks=1,
              head="negative_binomial"),
         "04cfa38ed4d5572769318effd28009592ced027fefbb9fb0475ad544a7fea74e"),
        (dict(family="tsmixer_ext", lookback=12, horizon=5, targets=3, hist_covariates=2,
              future_covariates=4, static_features=6, hidden=7, blocks=2),
         "6b43f23adf61e3218a048931fd77d34c9967d2ed93ec049a4d424d25d26cfddd"),
    ], ids=["linear", "tmix_only", "tsmixer", "tsmixer_ext", "nb_head", "covariates"])
    def test_params_and_buffers_at_seed_0(self, config, expected):
        assert self.digest(md.Forecaster(md.ModelConfig(**config), seed=0)) == expected
