"""Losses, optimizer, and the training loop."""

import gc
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, special, stats

from mixcast import data as dt
from mixcast import errors
from mixcast import models as md
from mixcast import tensor as tc
from mixcast import training as tr
from mixcast.rng import make_rng
from mixcast.tensor import Tensor


class TestLosses:
    def test_mse_known_value(self):
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = np.array([[1.0, 0.0], [3.0, 8.0]])
        assert tr.mse_loss(pred, target).item() == pytest.approx((4.0 + 16.0) / 4.0)

    def test_mse_gradient(self):
        rng = make_rng(80)
        pred = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))

        def f(ps):
            return tr.mse_loss(ps[0], Tensor(target))

        assert tc.grad_check(f, [pred]) < 1e-4

    @pytest.mark.parametrize("pred_shape, target_shape", [((3, 4), (3, 4)), ((2, 3, 4), (1, 4))])
    def test_mse_is_one_node_bitwise_equal_to_the_composite(self, pred_shape, target_shape):
        # The composite mean(mul(d, d)), d = sub(pred, target): mean hands mul
        # g / n, mul's two equal adjoints add, and sub negates the target's.
        rng = make_rng(83)
        pred, target = rng.normal(size=pred_shape), rng.normal(size=target_shape)
        tape = tc.Tape()
        p, t = tape.leaf(pred), tape.leaf(target)
        loss = tr.mse_loss(p, t)
        assert loss.nid == 2 and len(tape) == 3
        d = pred - target
        half = (np.ones(()) / d.size) * d
        assert loss.item() == (d * d).mean()
        grads = tc.backward(tape, loss)
        np.testing.assert_array_equal(grads[p.nid].data, half + half)
        np.testing.assert_array_equal(grads[t.nid].data,
                                      tc._unbroadcast(-(half + half), target_shape))

    def test_mse_shapes_must_broadcast(self):
        with pytest.raises(errors.DimensionError, match="mse_loss"):
            tr.mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))


def composite_nb_nll(mu, alpha, y, gammaln=tr._log_gamma):
    """The composite formula ``nb_nll_loss`` replaces, in plain numpy and
    in its operation order; with mixcast's log-gamma it is bitwise the loss."""
    r = 1.0 / alpha
    log_sum = np.log(r + mu)
    ll = gammaln(y + r) - gammaln(r)
    ll = ll - gammaln(y + 1.0)
    ll = ll + r * (np.log(r) - log_sum)
    ll = ll + y * (np.log(mu) - log_sum)
    return -ll.mean()


class TestNegativeBinomial:
    def test_matches_scipy_logpmf(self):
        rng = make_rng(81)
        y = rng.integers(0, 40, size=(4, 5)).astype(np.float64)
        mu = rng.uniform(0.5, 20.0, size=(4, 5))
        alpha = rng.uniform(0.05, 2.0, size=(4, 5))
        ours = tr.nb_nll_loss(mu, alpha, y).item()
        r = 1.0 / alpha
        p = r / (r + mu)
        want = float(np.mean(-stats.nbinom.logpmf(y, r, p)))
        assert ours == pytest.approx(want, abs=1e-10)

    def test_poisson_limit_at_small_dispersion(self):
        mu = np.array([[40.0]])
        y = np.array([[40.0]])
        ours = tr.nb_nll_loss(mu, np.array([[1e-6]]), y).item()
        poisson = -(40.0 * np.log(40.0) - 40.0 - np.log(np.arange(1, 41)).sum())
        want = float(-stats.poisson.logpmf(40, 40.0))
        assert ours == pytest.approx(want, abs=1e-3)
        assert ours == pytest.approx(poisson, abs=1e-3)

    def test_variance_identity_by_simulation(self):
        # Sampling with matching parameters reproduces mu + alpha * mu^2.
        mu, alpha = 6.0, 0.4
        r = 1.0 / alpha
        p = r / (r + mu)
        draws = stats.nbinom.rvs(r, p, size=200_000, random_state=7)
        assert draws.mean() == pytest.approx(mu, rel=0.02)
        assert draws.var() == pytest.approx(mu + alpha * mu * mu, rel=0.05)

    @pytest.mark.parametrize("alpha_shape", [(3, 3), (1, 3), ()])
    def test_gradients(self, alpha_shape):
        rng = make_rng(82)
        y = rng.integers(0, 15, size=(3, 3)).astype(np.float64)
        mu = rng.uniform(1.0, 10.0, size=(3, 3))
        alpha = rng.uniform(0.2, 1.5, size=alpha_shape)

        def f(ps):
            return tr.nb_nll_loss(ps[0], ps[1], y)

        assert tc.grad_check(f, [mu, alpha]) < 1e-6

    @pytest.mark.parametrize("shapes", [((4, 5), (4, 5), (4, 5)), ((2, 4, 5), (1, 5), ()),
                                        ((4, 1), (5,), (3, 4, 5))])
    def test_value_equals_composite_bitwise(self, shapes):
        rng = make_rng(83)
        mu = rng.uniform(0.1, 30.0, size=shapes[0])
        alpha = rng.uniform(1e-3, 3.0, size=shapes[1])
        y = rng.integers(0, 60, size=shapes[2]).astype(np.float64)
        assert tr.nb_nll_loss(mu, alpha, y).item() == composite_nb_nll(mu, alpha, y)

    @pytest.mark.parametrize("shapes", [((4, 5), (4, 5), (4, 5)), ((2, 4, 5), (1, 5), ()),
                                        ((4, 1), (5,), (3, 4, 5))])
    def test_value_near_the_scipy_composite(self, shapes):
        # The inputs of test_value_equals_composite_bitwise, against scipy's gammaln.
        rng = make_rng(83)
        mu = rng.uniform(0.1, 30.0, size=shapes[0])
        alpha = rng.uniform(1e-3, 3.0, size=shapes[1])
        y = rng.integers(0, 60, size=shapes[2]).astype(np.float64)
        want = composite_nb_nll(mu, alpha, y, special.gammaln)
        assert abs(tr.nb_nll_loss(mu, alpha, y).item() - want) <= 1e-13 * abs(want)

    def test_log_gamma_and_digamma_match_mpmath(self):
        """``_log_gamma`` and ``_digamma`` against ``data/log_gamma_digamma.csv``,
        made by:

            import mpmath as mp, numpy as np
            mp.mp.dps = 50

            def row(x):
                return f"{x!r},{float(mp.loggamma(x))!r},{float(mp.digamma(x))!r}"

            xs = sorted({*map(float, np.logspace(-8, 6, 57)), *map(float, range(1, 201)),
                         *(k + 0.5 for k in range(200)),
                         *map(float, np.nextafter(10.0, [0.0, 20.0])), 10.0})
            rows = ["# x,log_gamma,digamma: log Gamma(x) and psi(x), mpmath at 50 digits"]
            rows += [row(x) for x in xs]
            open("tests/data/log_gamma_digamma.csv", "w").write("\\n".join(rows) + "\\n")

        The errors are relative, and absolute where |value| < 1: near the zeros
        of log Gamma at 1 and 2 and of psi at 1.46.
        """
        table = np.loadtxt(Path(__file__).parent / "data" / "log_gamma_digamma.csv", delimiter=",")
        x, log_gamma, digamma = table.T
        for got, want, bound in ((tr._log_gamma(x), log_gamma, 1e-14),
                                 (tr._digamma(x), digamma, 4e-15)):
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= bound

    def test_records_one_tape_node(self):
        tape = tc.Tape()
        mu, alpha = tape.leaf(np.full((2, 3), 4.0)), tape.leaf(np.full((2, 3), 0.5))
        loss = tr.nb_nll_loss(mu, alpha, np.arange(6.0).reshape(2, 3))
        assert loss.nid == 2 and len(tape) == 3

    def test_mean_recovery_by_scalar_minimization(self):
        counts = np.array([3.0, 7.0, 4.0, 5.0, 0.0, 9.0, 2.0, 6.0])
        alpha = np.full_like(counts, 0.5)

        def nll(mu_scalar):
            return tr.nb_nll_loss(np.full_like(counts, mu_scalar), alpha, counts).item()

        res = optimize.minimize_scalar(nll, bounds=(0.1, 30.0), method="bounded",
                                       options={"xatol": 1e-8})
        assert res.x == pytest.approx(counts.mean(), abs=1e-3)

    def test_dispersion_gradient_matches_mpmath_down_to_alpha_1e_6(self):
        """d/dalpha per element against ``data/nb_dispersion_grad.csv``, made by:

            import mpmath as mp, numpy as np
            mp.mp.dps = 50

            def row(a, m, y):
                r = 1 / mp.mpf(a)
                d = r * r * (mp.digamma(y + r) - mp.digamma(r) + mp.log(r / (r + m))
                             + 1 - (r + y) / (r + m))
                return f"{a!r},{m!r},{y!r},{float(d)!r}"

            rows = ["# alpha,mu,y,dalpha: d/dalpha of the negative binomial -log pmf, "
                    "mpmath at 50 digits"]
            rows += [row(a, m, y) for a in map(float, np.logspace(-6, 0, 30))
                     for y in (0.0, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0)
                     for m in (0.1, 0.5, 1.0, 3.0, 10.0, 30.0, 100.0)]
            rows += [row(a, m, 0.0) for a in (0.11, 0.15, 0.3, 0.5, 1.0)  # y = 0 with mu << r
                     for m in (1e-4, 1e-3, 1e-2)]
            open("tests/data/nb_dispersion_grad.csv", "w").write("\\n".join(rows) + "\\n")

        The direct bracket cancels as r = 1/alpha grows: at alpha = 1e-6 its
        error reached 18%.  At y = 0 it cancels too once mu << r, whatever r:
        4.7e-6 at alpha = 0.11, mu = 1e-4.  The loss and d/dmu keep their
        closed forms bitwise.
        """
        table = np.loadtxt(Path(__file__).parent / "data" / "nb_dispersion_grad.csv",
                           delimiter=",")
        alpha, mu, y, want = table.T
        tape = tc.Tape()
        m, a = tape.leaf(mu), tape.leaf(alpha)
        loss = tr.nb_nll_loss(m, a, y)
        grads = tc.backward(tape, loss)
        got = grads[a.nid].data * len(table)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10
        assert loss.item() == composite_nb_nll(mu, alpha, y)
        r = 1.0 / alpha
        np.testing.assert_array_equal(grads[m.nid].data,
                                      ((r + y) / (r + mu) - y / mu) / len(table))

    def test_dispersion_gradient_at_zero_counts_and_huge_alpha(self):
        # y = 0 goes through the bracket series at any r; r = 1/alpha this small
        # must not overflow it.  The closed form is exact here: no cancellation.
        mu, alpha = np.array([1e-3, 2.0, 1e-3]), np.array([1e25, 1e25, 1e300])
        tape = tc.Tape()
        m, a = tape.leaf(mu), tape.leaf(alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tc.backward(tape, tr.nb_nll_loss(m, a, np.zeros(3)))[a.nid].data * 3
        r = 1.0 / alpha
        np.testing.assert_allclose(got, r * r * (np.log(r / (r + mu)) + mu / (r + mu)),
                                   rtol=1e-14, atol=0.0)

    def test_domain_checks(self):
        with pytest.raises(errors.ParameterError, match="non-negative"):
            tr.nb_nll_loss(np.ones(2), np.ones(2), np.array([1.0, -1.0]))
        with pytest.raises(errors.ParameterError, match="positive"):
            tr.nb_nll_loss(np.array([1.0, 0.0]), np.ones(2), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_counts_are_a_parameter_error(self, bad):
        # A bad count is bad input (exit 1), not a numeric failure (exit 2).
        with pytest.raises(errors.ParameterError, match="counts must be finite and non-negative"):
            tr.nb_nll_loss(np.ones(2), np.ones(2), np.array([1.0, bad]))

    def test_nan_mean_or_dispersion_is_a_numeric_error(self):
        # NaN there comes from a diverging model.
        with pytest.raises(errors.NumericError, match="nb_nll_loss"):
            tr.nb_nll_loss(np.array([1.0, np.nan]), np.ones(2), np.ones(2))
        with pytest.raises(errors.NumericError, match="nb_nll_loss"):
            tr.nb_nll_loss(np.ones(2), np.array([np.nan, 1.0]), np.ones(2))


class TestAdam:
    def reference_adam(self, grads_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        """Textbook loop implementation used as the oracle."""
        p = np.zeros_like(grads_seq[0])
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        for t, g in enumerate(grads_seq, start=1):
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            mhat = m / (1 - beta1 ** t)
            vhat = v / (1 - beta2 ** t)
            p = p - lr * mhat / (np.sqrt(vhat) + eps)
        return p

    def test_zero_gradient_leaves_parameters(self):
        params = {"w": np.array([1.0, -2.0])}
        state = tr.adam_init(params)
        tr.adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_first_step_magnitude(self):
        params = {"w": np.array([0.0])}
        state = tr.adam_init(params)
        tr.adam_step(params, {"w": np.array([1.0])}, state, lr=0.01)
        assert params["w"][0] == pytest.approx(-0.01, rel=1e-6)

    def test_matches_reference_sequence(self):
        rng = make_rng(83)
        grads = [rng.normal(size=(3, 2)) for _ in range(7)]
        params = {"w": np.zeros((3, 2))}
        state = tr.adam_init(params)
        for g in grads:
            tr.adam_step(params, {"w": g}, state, lr=0.05)
        np.testing.assert_allclose(params["w"], self.reference_adam(grads, 0.05), rtol=1e-12)

    def test_name_mismatch_rejected(self):
        params = {"w": np.zeros(2)}
        with pytest.raises(errors.ParameterError):
            tr.adam_step(params, {"x": np.zeros(2)}, tr.adam_init(params), lr=0.1)


def periodic_windows(steps=400, lookback=12, horizon=4, seed=1):
    frame = dt.synth_periodic(6, steps, seed=seed)
    return dt.split_windows(frame, dt.DEFAULT_SPLIT, dt.WindowSpec(lookback, horizon))


class TestTrainLoop:
    def test_loss_decreases_and_best_restored(self):
        train_w, val_w, _ = periodic_windows()
        cfg = md.ModelConfig(family="linear", lookback=12, horizon=4, targets=1)
        model = md.Forecaster(cfg, seed=2)
        tcfg = tr.TrainConfig(learning_rate=0.01, max_epochs=30, patience=30, batch_size=32, seed=3)
        _, history = tr.train(model, train_w, val_w, tcfg)
        assert history.records[-1].train_loss < history.records[0].train_loss
        restored_val = tr.dataset_loss(model, val_w)
        assert restored_val == pytest.approx(history.best_val_loss, abs=1e-12)

    def test_bitwise_deterministic_across_runs(self):
        def run():
            train_w, val_w, _ = periodic_windows()
            cfg = md.ModelConfig(family="tsmixer", lookback=12, horizon=4, targets=1,
                                 hidden=4, blocks=1, norm="layer", dropout=0.2)
            model = md.Forecaster(cfg, seed=4)
            tcfg = tr.TrainConfig(learning_rate=0.005, max_epochs=5, patience=5,
                                  batch_size=16, seed=5)
            _, history = tr.train(model, train_w, val_w, tcfg)
            return history, model.params

        h1, p1 = run()
        h2, p2 = run()
        assert [(r.epoch, r.train_loss, r.val_loss) for r in h1.records] == \
               [(r.epoch, r.train_loss, r.val_loss) for r in h2.records]
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_tied_validation_counts_against_patience(self):
        train_w, val_w, _ = periodic_windows()
        cfg = md.ModelConfig(family="linear", lookback=12, horizon=4, targets=1)
        model = md.Forecaster(cfg, seed=6)
        # lr=0 never changes parameters: epoch 2's val loss ties epoch 1's.
        tcfg = tr.TrainConfig(learning_rate=1e-30, max_epochs=10, patience=1,
                              batch_size=32, seed=7)
        _, history = tr.train(model, train_w, val_w, tcfg)
        assert history.stop_reason == "early_stopping"
        assert history.best_epoch == 1
        assert len(history.records) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # overflow must not warn
    def test_divergence_aborts_with_location(self):
        # The linear family's loss goes non-finite; in a tsmixer a norm's
        # standardize raises first, in a step or, with one step per epoch,
        # in the validation pass after it.
        train_w, val_w, _ = periodic_windows()
        for family, norm, batch_size, where in [
                ("linear", "batch2d", 64, r"^training loss went non-finite at epoch \d+, batch \d+$"),
                ("tsmixer", "batch2d", 64, r"^standardize .* at epoch 1, batch 1$"),
                ("tsmixer", "layer", 1000, r"^standardize .* in the validation pass of epoch 1$")]:
            cfg = md.ModelConfig(family=family, lookback=12, horizon=4, targets=1, norm=norm)
            model = md.Forecaster(cfg, seed=8)
            tcfg = tr.TrainConfig(learning_rate=1e155, max_epochs=5, patience=5,
                                  batch_size=batch_size, seed=9)
            with pytest.raises(errors.NumericError, match=where):
                tr.train(model, train_w, val_w, tcfg)

    def test_batch_stats_survive_trailing_singleton(self):
        frame = dt.synth_periodic(5, 80, seed=10)
        spec = dt.SplitSpec(ranges=((0, 48), (48, 64), (64, 80)))  # 48-16+1 = 33 train windows
        train_w, val_w, _ = dt.split_windows(frame, spec, dt.WindowSpec(12, 4))
        assert len(train_w) == 33
        cfg = md.ModelConfig(family="tsmixer", lookback=12, horizon=4, targets=1,
                             hidden=4, blocks=1, norm="batch2d")
        model = md.Forecaster(cfg, seed=11)
        tcfg = tr.TrainConfig(learning_rate=0.001, max_epochs=2, patience=5,
                              batch_size=32, seed=12)
        _, history = tr.train(model, train_w, val_w, tcfg)
        assert len(history.records) == 2

    def test_objective_head_mismatch(self):
        train_w, val_w, _ = periodic_windows()
        cfg = md.ModelConfig(family="linear", lookback=12, horizon=4, targets=1)
        model = md.Forecaster(cfg, seed=13)
        tcfg = tr.TrainConfig(objective="nb_nll")
        with pytest.raises(errors.ConfigurationError, match="nb_nll"):
            tr.train(model, train_w, val_w, tcfg)

    def test_steps_free_their_tapes_without_cyclic_gc(self):
        train_w, val_w, _ = periodic_windows()
        cfg = md.ModelConfig(family="tsmixer", lookback=12, horizon=4, targets=1,
                             hidden=4, blocks=1, norm="batch2d", dropout=0.2)
        model = md.Forecaster(cfg, seed=14)
        tcfg = tr.TrainConfig(learning_rate=0.005, max_epochs=2, patience=5,
                              batch_size=32, seed=15)
        gc.collect()
        gc.disable()
        try:
            tr.train(model, train_w, val_w, tcfg)
            alive = sum(isinstance(o, tc.Tape) for o in gc.get_objects())
        finally:
            gc.enable()
        assert alive == 0


class TestStepMemory:
    """A training step reaches its traced memory peak by the end of its
    forward: backward frees what it has read as it goes."""

    @pytest.mark.parametrize("cfg, objective", [
        (md.ModelConfig(family="tsmixer", lookback=96, horizon=24, targets=8,
                        hidden=32, blocks=2, rev_in=True), "mse"),
        (md.ModelConfig(family="tsmixer_ext", lookback=48, horizon=24, targets=6,
                        hist_covariates=2, future_covariates=3, static_features=2,
                        hidden=32, blocks=2, dropout=0.1, head="negative_binomial"), "nb_nll"),
    ], ids=["tsmixer_rev_in", "tsmixer_ext_nb_dropout"])
    def test_backward_does_not_raise_the_peak(self, cfg, objective):
        rng, batch = make_rng(16), 32
        model = md.Forecaster(cfg, seed=17)
        hist = rng.poisson(3.0, size=(batch, cfg.lookback, cfg.input_channels)).astype(float)
        fut = rng.normal(size=(batch, cfg.horizon, cfg.future_covariates))
        stat = rng.normal(size=(batch, 1, cfg.static_features))
        target = rng.poisson(3.0, size=(batch, cfg.horizon, cfg.targets)).astype(float)
        tape = tc.Tape()
        bound = model.bind(tape)
        tracemalloc.start()
        try:
            out = model.forward(hist, fut, stat, mode="train", rng=make_rng(18), params=bound)
            loss = (tr.mse_loss(out.point, target) if objective == "mse"
                    else tr.nb_nll_loss(out.mean, out.dispersion, target))
            del out
            _, forward_peak = tracemalloc.get_traced_memory()
            tc.backward(tape, loss)
            _, step_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert step_peak == forward_peak, (step_peak - forward_peak) / 1024
