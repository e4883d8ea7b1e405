"""Losses, optimizer, and the training loop."""

import gc
import hashlib
import threading
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

    def test_log_gamma_matches_mpmath(self):
        """``_log_gamma`` against the log_gamma column of
        ``data/log_gamma_digamma.csv``, made by:

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
        of log Gamma at 1 and 2.
        """
        table = np.loadtxt(Path(__file__).parent / "data" / "log_gamma_digamma.csv", delimiter=",")
        x, log_gamma = table.T[:2]
        got = tr._log_gamma(x)
        assert np.max(np.abs(got - log_gamma) / np.maximum(1.0, np.abs(log_gamma))) <= 1e-14

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

    def test_dispersion_gradient_matches_mpmath_above_alpha_1(self):
        """d/dalpha per element at alpha in (1, 1e4], where r = 1/alpha < 1 and
        the bracket runs digamma's recurrence, against
        ``data/nb_dispersion_grad_wide.csv``, made by ``row`` above and:

            rows = ["# alpha,mu,y,dalpha: d/dalpha of the negative binomial -log pmf, "
                    "mpmath at 50 digits"]
            rows += [row(a, m, y) for a in map(float, np.logspace(0, 4, 21)[1:])
                     for y in (0.0, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 1000.0)
                     for m in (0.1, 0.5, 1.0, 3.0, 10.0, 30.0, 100.0, 1000.0)]
            open("tests/data/nb_dispersion_grad_wide.csv", "w").write("\\n".join(rows) + "\\n")
        """
        table = np.loadtxt(Path(__file__).parent / "data" / "nb_dispersion_grad_wide.csv",
                           delimiter=",")
        alpha, mu, y, want = table.T
        tape = tc.Tape()
        a = tape.leaf(alpha)
        got = tc.backward(tape, tr.nb_nll_loss(mu, a, y))[a.nid].data * len(table)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10

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

    def test_dispersion_gradient_at_huge_alpha(self):
        # The closed form r^2 [psi(y+r) - psi(r) + log r - log(r+mu) + 1 - (r+y)/(r+mu)]
        # at r = 1/alpha, evaluated by mpmath at 400 digits, rounds to 1/alpha
        # at each of these points; r^2 underflows from alpha = 7e153, and y/r
        # overflows at alpha = 1e306, y = 1000.
        alpha, y = np.repeat([1e150, 1e170, 1e306], 2), np.tile([1.0, 1000.0], 3)
        tape = tc.Tape()
        a = tape.leaf(alpha)
        got = tc.backward(tape, tr.nb_nll_loss(np.full(6, 2.0), a, y))[a.nid].data * 6
        np.testing.assert_allclose(got, 1.0 / alpha, rtol=1e-10, atol=0.0)

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

    def test_textbook_update_bitwise_in_two_scratch_arrays(self):
        # 80 KB: below the size from which numpy reuses an expression's temporaries.
        rng = make_rng(84)
        grads = [rng.normal(size=(100, 100)) for _ in range(3)]
        params = {"w": np.zeros((100, 100))}
        state = tr.adam_init(params)
        tracemalloc.start()
        try:
            for g in grads:
                tracemalloc.reset_peak()
                live = tracemalloc.get_traced_memory()[0]
                tr.adam_step(params, {"w": g}, state, lr=0.05)
                assert tracemalloc.get_traced_memory()[1] - live <= 2 * g.nbytes + 4096
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(params["w"], self.reference_adam(grads, 0.05))


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

    def test_dataset_loss_of_a_count_model_is_its_window_weighted_nb_nll(self):
        cfg = md.ModelConfig(family="tsmixer_ext", lookback=12, horizon=4, targets=3,
                             hist_covariates=1, future_covariates=2, static_features=2,
                             hidden=8, blocks=1, head="negative_binomial")
        model = md.Forecaster(cfg, seed=22)
        rng, n = make_rng(23), tr.EVAL_CHUNK + 44  # two chunks of different sizes
        windows = dt.WindowBatch(rng.normal(size=(n, 12, 4)), rng.normal(size=(n, 4, 2)),
                                 rng.normal(size=(n, 1, 2)),
                                 rng.poisson(3.0, size=(n, 4, 3)).astype(np.float64),
                                 np.arange(n))
        out = model.forward(windows.history, windows.future, windows.static)
        want = tr.nb_nll_loss(out.mean, out.dispersion, windows.target).item()
        assert tr.dataset_loss(model, windows) == pytest.approx(want, rel=1e-12, abs=0.0)

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


class TestStepLifetime:
    """What a training step makes ends with the step, and its leaves, like the
    parameters of an eval forward, share the parameters' memory."""

    @staticmethod
    def assert_views_allocating_no_array(model, make):
        """``make()`` allocates no array data, and returns read-only Tensors
        viewing ``model.params``, one per name."""
        arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(arrays)
            tensors = make()
            after = tracemalloc.take_snapshot().filter_traces(arrays)
        finally:
            tracemalloc.stop()
        assert sum(t.size for t in after.traces) == sum(t.size for t in before.traces)
        assert tensors.keys() == model.params.keys()
        for name, t in tensors.items():
            assert t.data.base is model.params[name]
            with pytest.raises(ValueError, match="read-only"):
                t.data[...] = 0.0
        return tensors

    def test_bind_views_each_parameter_and_allocates_no_array(self):
        model = md.Forecaster(md.ModelConfig(family="tsmixer", lookback=96, horizon=24,
                                             targets=8, hidden=32, blocks=2), seed=19)
        tape = tc.Tape()
        bound = self.assert_views_allocating_no_array(model, lambda: model.bind(tape))
        assert all(leaf.tape is tape for leaf in bound.values())

    def test_eval_forward_views_each_parameter_and_allocates_no_array(self, monkeypatch):
        model = md.Forecaster(md.ModelConfig(family="tsmixer", lookback=96, horizon=24,
                                             targets=8, hidden=32, blocks=2), seed=19)
        seen, tensors = [], model._tensors

        def checked_tensors(params):
            seen.append(self.assert_views_allocating_no_array(model, lambda: tensors(params)))
            return seen[-1]

        monkeypatch.setattr(model, "_tensors", checked_tensors)
        model.forward(np.zeros((2, 96, 8)))
        assert len(seen) == 1 and all(t.tape is None for t in seen[0].values())

    def test_no_tape_or_leaf_is_alive_in_the_validation_pass(self, monkeypatch):
        train_w, val_w, _ = periodic_windows()
        cfg = md.ModelConfig(family="tsmixer", lookback=12, horizon=4, targets=1,
                             hidden=4, blocks=1, norm="batch2d", dropout=0.2)
        model = md.Forecaster(cfg, seed=20)
        seen, dataset_loss = [], tr.dataset_loss

        def checked_dataset_loss(*args, **kwargs):
            seen.append(sum(isinstance(o, tc.Tape) or (isinstance(o, Tensor) and o.tape)
                            for o in gc.get_objects()))
            return dataset_loss(*args, **kwargs)

        monkeypatch.setattr(tr, "dataset_loss", checked_dataset_loss)
        tr.train(model, train_w, val_w, tr.TrainConfig(learning_rate=0.005, max_epochs=3,
                                                       patience=5, batch_size=32, seed=21))
        assert seen == [0, 0, 0]


class TestWorkspace:
    """``train`` takes each step's full-size arrays from a workspace that
    lives for exactly its call.  These models' float64 activations are 64 KiB
    or more, so they go through it, while every other array (bool masks,
    dropout's draws, parameters and their scratch) stays under 64 KiB."""

    CFG = md.ModelConfig(family="tsmixer", lookback=48, horizon=32, targets=16, hidden=32,
                         blocks=1, norm="layer", dropout=0.1, rev_in=True)

    @staticmethod
    def windows(cfg: md.ModelConfig, n: int, seed: int) -> dt.WindowBatch:
        rng = make_rng(seed)
        return dt.WindowBatch(rng.normal(size=(n, cfg.lookback, cfg.targets)),
                              np.zeros((n, cfg.horizon, 0)), np.zeros((n, 1, 0)),
                              rng.normal(size=(n, cfg.horizon, cfg.targets)), np.arange(n))

    def test_a_kept_forecast_and_its_view_are_never_overwritten(self, monkeypatch):
        model = md.Forecaster(self.CFG, seed=70)
        kept, mse_loss = [], tr.mse_loss

        def keeping_mse_loss(pred, target):
            if not kept:  # the first step's forecast, from a workspace buffer
                assert any(pred.data.base is buf for buf in tc._ACTIVE.ws.bufs)
                view = pred.data[:, ::2]
                kept.append((pred, view, pred.data.tobytes(), view.tobytes()))
            return mse_loss(pred, target)

        monkeypatch.setattr(tr, "mse_loss", keeping_mse_loss)
        tr.train(model, self.windows(self.CFG, 48, 71), self.windows(self.CFG, 40, 72),
                 tr.TrainConfig(learning_rate=0.01, max_epochs=2, patience=3, batch_size=16,
                                seed=73))
        pred, view, pred_bytes, view_bytes = kept[0]
        assert pred.data.tobytes() == pred_bytes and view.tobytes() == view_bytes

    def test_the_second_of_two_identical_steps_allocates_no_full_size_array(self, monkeypatch):
        """The second step adds no buffer to the workspace, and no numpy array
        of 64 KiB or more that it makes is alive at the end of any forward op
        or VJP: each comes from the buffers the first step made (memory maps,
        which tracemalloc does not see).  The batch is read-only, so no op
        copies it."""
        model = md.Forecaster(self.CFG, seed=74)
        batch = self.windows(self.CFG, 16, 75)
        for a in (batch.history, batch.target):
            a.setflags(write=False)
        numpy_arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        seen = []

        def sampled(f):
            def wrapper(*args):
                out = f(*args)
                traces = tracemalloc.take_snapshot().filter_traces(numpy_arrays).traces
                seen.append(max((t.size for t in traces), default=0))
                return out
            return wrapper

        def sampled_backward(tape, loss):
            tape._parents = [entry and tuple((pid, sampled(vjp)) for pid, vjp in entry)
                             for entry in tape._parents]
            return backward(tape, loss)

        backward, opt, config = tc.backward, tr.adam_init(model.params), tr.TrainConfig()
        with tc.workspace() as ws:
            tr._step(model, batch, config, make_rng(76), opt, ws)
            first = [id(buf) for buf in ws.bufs]
            monkeypatch.setattr(tc, "_join", sampled(tc._join))
            monkeypatch.setattr(tc, "backward", sampled_backward)
            tracemalloc.start()
            try:
                tr._step(model, batch, config, make_rng(76), opt, ws)
            finally:
                tracemalloc.stop()
            assert [id(buf) for buf in ws.bufs] == first
        assert len(seen) > 30 and max(seen) < 64 << 10, max(seen)

    def test_no_workspace_outlives_train(self):
        model = md.Forecaster(self.CFG, seed=77)
        train_w, val_w = self.windows(self.CFG, 48, 78), self.windows(self.CFG, 40, 79)
        tr.train(model, train_w, val_w, tr.TrainConfig(max_epochs=1, batch_size=16))
        assert tc._ACTIVE.ws is None
        with pytest.raises(errors.NumericError, match="at epoch 1, batch 1$"):
            tr.train(model, train_w, val_w,
                     tr.TrainConfig(learning_rate=1e155, max_epochs=2, batch_size=16))
        assert tc._ACTIVE.ws is None
        fresh = tc._empty((64, 64, 64))
        assert fresh.base is None and fresh.flags.c_contiguous
        out = md.Forecaster(self.CFG, seed=77).forward(train_w.history[:32])
        assert out.point.data.base is None  # numpy's own allocation

    def test_overlapping_blocks_of_two_threads_each_serve_their_own_thread(self):
        """A enters, B enters, A exits, B exits: while B's block is open, A's
        own block still serves A, and neither block outlives its exit."""
        shape, seen = (16, 32, 32), {}
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()

        def served(ws):
            out = tc._empty(shape)
            return any(out.base is buf for buf in ws.bufs)

        def thread_a():
            with tc.workspace() as ws:
                ws.grow = True
                a_in.set()
                b_in.wait(10)
                seen["a in its block"] = served(ws)
            a_out.set()
            seen["a after"] = tc._empty(shape).base is None

        def thread_b():
            a_in.wait(10)
            with tc.workspace() as ws:
                ws.grow = True
                b_in.set()
                a_out.wait(10)
                seen["b in its block"] = served(ws)
            seen["b after"] = tc._empty(shape).base is None

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert seen == dict.fromkeys(["a in its block", "a after", "b in its block", "b after"],
                                     True)
        assert tc._ACTIVE.ws is None


def window_shapes(n: int, cfg: md.ModelConfig) -> dt.WindowBatch:
    """``n`` all-zero windows of ``cfg``'s shapes, views of one window."""
    def like(rows, cols):
        return np.broadcast_to(np.zeros((1, rows, cols)), (n, rows, cols))

    return dt.WindowBatch(like(cfg.lookback, cfg.input_channels),
                          like(cfg.horizon, cfg.future_covariates),
                          like(1, cfg.static_features), like(cfg.horizon, cfg.targets),
                          np.arange(n))


@pytest.mark.parametrize("cfg, sizes", [
    # train_long's validation pass: hidden 64 is wider than its 21 channels.
    (md.ModelConfig(family="tsmixer", lookback=512, horizon=96, targets=21, hidden=64,
                    blocks=2, rev_in=True), [32, 32]),
    # evaluate_wide: the linear family holds nothing wider than its input.
    (md.ModelConfig(family="linear", lookback=512, horizon=96, targets=321),
     [6] * 10 + [4]),
    # train_counts_ext: still one chunk.
    (md.ModelConfig(family="tsmixer_ext", lookback=96, horizon=24, targets=10,
                    hist_covariates=2, future_covariates=4, static_features=3, hidden=32,
                    blocks=2, dropout=0.1, head="negative_binomial"), [64]),
], ids=["tsmixer_hidden_wider", "linear_wide", "tsmixer_ext_counts"])
def test_eval_chunks_fit_the_widest_activation(cfg, sizes):
    windows = window_shapes(sum(sizes), cfg)
    chunks = list(tr.eval_chunks(windows, cfg.activation_width))
    assert [len(chunk) for _, chunk in chunks] == sizes
    assert [rows.start for rows, _ in chunks] == [sum(sizes[:k]) for k in range(len(sizes))]


class TestPinnedArithmetic:
    """SHA-256 digests of one training step's gradients, a 2-epoch loss
    history and an eval forward, for a small ``tsmixer`` (rev-in, batch norm)
    and ``tsmixer_ext`` (negative-binomial head, dropout).  They were taken
    while every ReLU was a tape node of its own, so fusing an op into
    another (an epilogue) must prove that it changed no bit.  They pin float64
    rounding, GEMMs included: a numpy or BLAS build that sums a product in
    another order changes them with no change to mixcast."""

    CASES = {
        "tsmixer": (md.ModelConfig(family="tsmixer", lookback=24, horizon=8, targets=4,
                                   hidden=8, blocks=2, norm="batch2d", rev_in=True), "mse"),
        "tsmixer_ext": (md.ModelConfig(family="tsmixer_ext", lookback=16, horizon=6, targets=3,
                                       hist_covariates=2, future_covariates=2,
                                       static_features=2, hidden=8, blocks=2, dropout=0.1,
                                       head="negative_binomial"), "nb_nll"),
    }
    DIGESTS = {
        "tsmixer": {
            "step": "78c038309032390efc9e1a4e8042abcf64664edada7ff41e69ec256b80160094",
            "history": "27e1fa329b480658d5fb527227357345055dfd05b5ab9ddd97ea00217602096f",
            "eval": "5693dc1e08361991bbf25a7c1e508fb94d8ac84103ffeac1df7c5216dd1da0f9"},
        "tsmixer_ext": {
            "step": "e9df22bdbf928b7e2f399b44556fcb6b392ab57c9998df2b85e956733a7aff43",
            "history": "d806ead4ef338eb93dd6ab05649bef44309e7f1787018045ba115f3e81fc215e",
            "eval": "2f4d2a969bbdef44f9b5f3463f7fe55ef830d4207a825ad680d456ea59462806"},
    }

    @staticmethod
    def digest(arrays) -> str:
        h = hashlib.sha256()
        for arr in arrays:
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()

    @staticmethod
    def windows(cfg: md.ModelConfig, n: int, seed: int) -> dt.WindowBatch:
        rng = make_rng(seed)
        return dt.WindowBatch(rng.normal(size=(n, cfg.lookback, cfg.input_channels)),
                              rng.normal(size=(n, cfg.horizon, cfg.future_covariates)),
                              rng.normal(size=(n, 1, cfg.static_features)),
                              rng.poisson(3.0, size=(n, cfg.horizon, cfg.targets)).astype(float),
                              np.arange(n))

    @classmethod
    def digests(cls, name: str) -> dict[str, str]:
        cfg, objective = cls.CASES[name]
        batch = cls.windows(cfg, 16, 60)
        model = md.Forecaster(cfg, seed=61)
        tape = tc.Tape()
        bound = model.bind(tape)
        loss = tr._loss_for(model, batch, "train", make_rng(62), bound)
        grads = tc.backward(tape, loss)
        step = cls.digest(grads[bound[k].nid].data for k in sorted(bound))

        model = md.Forecaster(cfg, seed=61)
        _, history = tr.train(model, cls.windows(cfg, 32, 63), cls.windows(cfg, 16, 64),
                              tr.TrainConfig(learning_rate=0.01, max_epochs=2, patience=3,
                                             batch_size=16, objective=objective, seed=65))
        losses = cls.digest([[r.train_loss, r.val_loss] for r in history.records])

        out = md.Forecaster(cfg, seed=61).forward(batch.history, batch.future, batch.static)
        forecast = cls.digest(t.data for t in (out.point, out.mean, out.dispersion)
                              if t is not None)
        return {"step": step, "history": losses, "eval": forecast}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_digests_are_pinned(self, name):
        assert self.digests(name) == self.DIGESTS[name]
