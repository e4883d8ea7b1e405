"""Tensor core: forward semantics against loop oracles, autodiff against
finite differences, and the documented error contracts."""

import contextlib
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import expit

from mixcast import data as dt
from mixcast import errors
from mixcast import tensor as tc
from mixcast.rng import make_rng
from mixcast.tensor import Tape, Tensor

FLOOR = 1e-8  # variance floor of the standardize tests


def loop_matmul(a, b):
    """Triple-loop reference product, no numpy dispatch."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def loop_broadcast_add(a, b):
    """Scalar-loop broadcast oracle for rank <= 3 operands."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    a3 = a.reshape((1,) * (len(shape) - a.ndim) + a.shape)
    b3 = b.reshape((1,) * (len(shape) - b.ndim) + b.shape)
    out = np.zeros(shape)
    for idx in np.ndindex(shape):
        ia = tuple(i if e != 1 else 0 for i, e in zip(idx, a3.shape))
        ib = tuple(i if e != 1 else 0 for i, e in zip(idx, b3.shape))
        out[idx] = a3[ia] + b3[ib]
    return out


class TestForwardSemantics:
    def test_matmul_matches_triple_loop(self):
        rng = make_rng(11)
        for m, k, n in [(1, 1, 1), (2, 3, 4), (5, 2, 3), (4, 4, 4)]:
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            got = tc.matmul(a, b)
            np.testing.assert_allclose(got, loop_matmul(a, b), rtol=1e-13)

    def test_matmul_batched_broadcasts_rank2(self):
        rng = make_rng(12)
        a = rng.normal(size=(3, 4))
        x = rng.normal(size=(5, 4, 2))
        got = tc.matmul(a, x)
        for i in range(5):
            np.testing.assert_allclose(got[i], loop_matmul(a, x[i]), rtol=1e-13)

    def test_matmul_associativity_well_conditioned(self):
        rng = make_rng(13)
        a = rng.uniform(-1, 1, size=(6, 5))
        b = rng.uniform(-1, 1, size=(5, 4))
        c = rng.uniform(-1, 1, size=(4, 3))
        left = tc.matmul(tc.matmul(a, b), c)
        right = tc.matmul(a, tc.matmul(b, c))
        np.testing.assert_allclose(left, right, atol=1e-10)

    def test_add_broadcast_matches_scalar_loop(self):
        rng = make_rng(14)
        cases = [
            ((2, 3), (1, 3)),
            ((2, 3), (2, 1)),
            ((4, 2, 3), (2, 3)),
            ((4, 2, 3), (1, 1, 3)),
            ((2, 3), ()),
        ]
        for sa, sb in cases:
            a = rng.normal(size=sa)
            b = rng.normal(size=sb)
            got = tc.add(Tensor(a), Tensor(b)).data
            np.testing.assert_allclose(got, loop_broadcast_add(a, b), rtol=1e-15)

    def test_add_incompatible_shapes(self):
        with pytest.raises(errors.DimensionError):
            tc.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_rank_cap(self):
        with pytest.raises(errors.RankError):
            Tensor(np.zeros((2, 2, 2, 2)))

    def test_values_are_immutable(self):
        t = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_relu_zero_negatives(self):
        x = Tensor(np.array([-2.0, 0.0, 3.5]))
        np.testing.assert_array_equal(tc.relu(x).data, [0.0, 0.0, 3.5])

    def test_concat_and_expand_rows(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(4.0).reshape(2, 2))
        out = tc.concat(a, b, axis=-1)
        assert out.shape == (2, 5)
        np.testing.assert_array_equal(out.data[:, :3], a.data)
        np.testing.assert_array_equal(out.data[:, 3:], b.data)
        row = Tensor(np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(tc.expand_rows(row, 3).data, np.tile([[1.0, 2.0]], (3, 1)))
        with pytest.raises(errors.DimensionError):
            tc.expand_rows(Tensor(np.zeros((2, 2))), 3)


def read_only(arr):
    arr.setflags(write=False)
    return arr


class TestConstructorCopies:
    """``Tensor(x)`` copies whatever someone could still write to, and
    shares a float64 array that is read-only down its whole base chain."""

    @pytest.mark.parametrize("view", [
        lambda a: a,
        lambda a: np.lib.stride_tricks.sliding_window_view(a[:, 0], 2, axis=0),
        lambda a: np.broadcast_to(a[:1], (3, 2, 4)),
        lambda a: read_only(a[1:]),
    ], ids=["writeable", "sliding_window_view", "broadcast_to", "read_only_slice"])
    def test_writeable_base_is_copied(self, view):
        source = np.arange(24.0).reshape(3, 2, 4)
        x = view(source)
        t = Tensor(x)
        before = np.array(t.data)
        source[...] = -1.0
        assert not np.shares_memory(t.data, source)
        np.testing.assert_array_equal(t.data, before)
        assert not t.data.flags.writeable

    def test_other_dtype_is_copied(self):
        x = read_only(np.arange(6, dtype=np.float32))
        t = Tensor(x)
        assert t.data.dtype == np.float64 and not np.shares_memory(t.data, x)

    def test_window_history_is_shared(self):
        frame = dt.synth_periodic(5, 40, variates=3, seed=2)
        batch = dt.make_windows(frame, dt.WindowSpec(8, 4))
        for history in (batch.history, batch.subset(slice(2, 9)).history,
                        batch.subset(np.array([5, 0, 5])).history):
            assert np.shares_memory(Tensor(history).data, history)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        out = tc.dropout(x, 0.5, "eval")
        assert out is x

    def test_rate_zero_identity_in_train(self):
        x = Tensor(np.arange(6.0))
        out = tc.dropout(x, 0.0, "train", make_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_rate_domain(self):
        x = Tensor(np.zeros(3))
        with pytest.raises(errors.ParameterError):
            tc.dropout(x, 1.0, "train", make_rng(0))
        with pytest.raises(errors.ParameterError):
            tc.dropout(x, -0.1, "train", make_rng(0))
        with pytest.raises(errors.ParameterError):
            tc.dropout(x, 0.5, "predict", make_rng(0))

    def test_monte_carlo_mean_preserved(self):
        # Inverted scaling keeps the expectation: mean over 1e5 elements at
        # rate 0.5 stays within ~1% of the input mean.
        n = 100_000
        x = np.full(n, 2.0)
        out = tc.dropout(Tensor(x), 0.5, "train", make_rng(77)).data
        assert abs(out.mean() - 2.0) < 0.02 * 2.0
        kept = out != 0.0
        assert abs(kept.mean() - 0.5) < 0.01
        np.testing.assert_allclose(out[kept], 4.0)

    def test_same_seed_same_mask(self):
        x = Tensor(np.ones((4, 5)))
        a = tc.dropout(x, 0.3, "train", make_rng(5)).data
        b = tc.dropout(x, 0.3, "train", make_rng(5)).data
        np.testing.assert_array_equal(a, b)

    def test_golden_mask(self):
        # k = round(0.3 * 65536) = 19661; the lanes of make_rng(5)'s first raw
        # outputs, lowest 16 bits first, are 52517, 56638, 19806, 56202, 43211, 9836, ...
        out = tc.dropout(Tensor(np.ones((2, 3, 5))), 0.3, "train", make_rng(5)).data
        kept = [[[1, 1, 1, 1, 1], [0, 1, 1, 1, 1], [0, 1, 0, 1, 1]],
                [[0, 1, 0, 1, 1], [1, 0, 1, 1, 0], [0, 1, 0, 0, 1]]]
        np.testing.assert_array_equal(out, np.array(kept) * (65536 / (65536 - 19661)))

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    def test_output_and_gradient_equal_the_float_mask_formula_bitwise(self, rate):
        # x * mask * scale against x * (mask * scale): dropped negatives must
        # stay -0.0 in the output and in the gradient.
        shape, k = (4, 6, 5), round(rate * 65536)
        x = make_rng(11).normal(size=shape)
        x[0, 0, :2] = 0.0, -0.0
        c = make_rng(12).normal(size=shape)
        lanes = make_rng(13).bit_generator.random_raw(30).astype("<u8").view("<u2")
        keep = (lanes[:120].reshape(shape) >= k) * (65536 / (65536 - k))
        tape = Tape()
        xl = tape.leaf(x)
        out = tc.dropout(xl, rate, "train", make_rng(13))
        grad = tc.backward(tape, tc.mean(tc.mul(out, c)))[xl.nid].data
        assert out.data.tobytes() == (x * keep).tobytes()
        assert grad.tobytes() == ((np.ones(()) / x.size * c) * keep).tobytes()
        assert (np.signbit(out.data) & (out.data == 0.0)).any()

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    def test_node_keeps_a_one_byte_mask(self, rate):
        n = 1 << 16
        tape = Tape()
        x = tape.leaf(np.ones(n))
        tc.dropout(x, rate, "train", make_rng(14))  # warm-up: nothing lazy is counted below
        tracemalloc.start()
        try:
            out = tc.dropout(x, rate, "train", make_rng(14))
            del out
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert n <= retained < n + 4096, retained - n

    @pytest.mark.parametrize("shape", [(3, 7), (2, 4), ()])
    def test_draws_one_raw_output_per_four_elements(self, shape):
        rng, fresh = make_rng(5), make_rng(5)
        tc.dropout(Tensor(np.ones(shape)), 0.3, "train", rng)
        fresh.bit_generator.random_raw(-(-int(np.prod(shape)) // 4))
        assert philox_state(rng) == philox_state(fresh)

    def test_tiny_rate_keeps_every_value_and_still_draws(self):
        x = make_rng(4).normal(size=(3, 5))
        rng, fresh = make_rng(5), make_rng(5)
        out = tc.dropout(Tensor(x), 1e-9, "train", rng).data  # k = 0
        np.testing.assert_array_equal(out, x)
        fresh.bit_generator.random_raw(4)
        assert philox_state(rng) == philox_state(fresh)

    def test_rate_near_one_clamps_to_the_last_lane(self):
        # k = round((1 - 1e-9) * 65536) = 65536 clamps to 65535: only lane 65535
        # survives, scaled by 65536.
        x = np.linspace(1.0, 2.0, 1 << 18)
        out = tc.dropout(Tensor(x), 1.0 - 1e-9, "train", make_rng(5)).data
        kept = out != 0.0
        assert kept.any()
        np.testing.assert_array_equal(out[kept], x[kept] * 65536.0)

    @pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
    def test_drop_fraction_is_k_over_65536(self, rate):
        n, p = 100_000, round(rate * 65536) / 65536
        out = tc.dropout(Tensor(np.ones(n)), rate, "train", make_rng(6)).data
        assert abs((out == 0.0).mean() - p) < 4.0 * np.sqrt(p * (1.0 - p) / n)


def philox_state(rng):
    state = rng.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"], state["uinteger"])


class TestBackward:
    def test_sum_of_squares_gradient(self):
        # loss = sum(x * x), the mean over one element -> d/dx = 2x
        tape = Tape()
        x = tape.leaf(np.array([3.0]))
        loss = tc.mean(tc.mul(x, x))
        grads = tc.backward(tape, loss)
        np.testing.assert_allclose(grads[x.nid].data, [6.0])

    def test_fan_out_accumulates(self):
        # y = x + x uses the same leaf twice; adjoints must add.
        tape = Tape()
        x = tape.leaf(np.array(2.0))
        loss = tc.add(x, x)
        grads = tc.backward(tape, loss)
        assert grads[x.nid].item() == 2.0

    def test_unused_leaf_gets_zeros(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        unused = tape.leaf(np.ones(3))
        loss = tc.mean(x)
        grads = tc.backward(tape, loss)
        np.testing.assert_array_equal(grads[unused.nid].data, np.zeros(3))

    def test_nonscalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones(3))
        y = tc.mul(x, x)
        with pytest.raises(errors.ContractError):
            tc.backward(tape, y)

    def test_foreign_node_rejected(self):
        tape = Tape()
        tape.leaf(np.ones(()))
        other = Tensor(np.array(1.0))
        with pytest.raises(errors.ContractError):
            tc.backward(tape, other)

    def test_frees_forward_intermediates(self):
        tape = Tape()
        x = tape.leaf(make_rng(6).normal(size=(4, 3)))
        h = tc.relu(tc.linear(x, make_rng(7).normal(size=(2, 3)), np.zeros(2), False))
        intermediate = weakref.ref(h.data)
        loss = tc.mean(tc.mul(h, h))
        del h
        grads = tc.backward(tape, loss)
        assert intermediate() is None
        assert grads[x.nid].shape == (4, 3)

    @pytest.mark.parametrize("nodes", [4, 32])
    def test_releases_each_adjoint_after_its_last_reader(self, nodes):
        # Every relu VJP makes a fresh 1 MiB adjoint; kept to the end of the
        # walk they would add one activation per node to its peak.
        act = 128 * 1024 * 8
        tracemalloc.start()
        try:
            tape = Tape()
            h = x = tape.leaf(make_rng(10).normal(size=(128, 1024)))
            for _ in range(nodes):
                h = tc.relu(tc.add(h, 0.25))
            loss = tc.mean(h)
            del h
            retained = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = tc.backward(tape, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grads[x.nid].shape == (128, 1024)
        assert peak < retained + 3 * act, (peak - retained) / act

    def test_add_node_does_not_keep_its_operands_alive(self):
        # add keeps shapes, relu its mask and mean a size and shape.
        for op in (lambda x: tc.add(x, 1.0), tc.relu, tc.mean):
            tape = Tape()
            x = tc.relu(tape.leaf(make_rng(8).normal(size=(4, 3))))
            alive = weakref.ref(x.data)
            y = op(x)
            del x
            assert alive() is None
            assert y.tape is tape

    def test_second_pass_on_a_tape_rejected(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        loss = tc.mean(tc.mul(x, x))
        tc.backward(tape, loss)
        with pytest.raises(errors.ContractError, match="already been differentiated"):
            tc.backward(tape, loss)

    def test_tape_length_unchanged(self):
        # Nodes recorded after the loss are part of the tape too.
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        loss = tc.mean(x)
        tc.relu(x)
        assert len(tape) == 3
        tc.backward(tape, loss)
        assert len(tape) == 3

    def test_replay_is_bitwise_deterministic(self):
        def run():
            tape = Tape()
            x = tape.leaf(make_rng(3).normal(size=(4, 3)))
            h = tc.relu(tc.linear(x, make_rng(4).normal(size=(2, 3)), np.zeros(2), False))
            h = tc.dropout(h, 0.4, "train", make_rng(9))
            loss = tc.mean(tc.mul(h, h))
            g = tc.backward(tape, loss)
            return loss.item(), g[x.nid].data.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


class TestGradCheck:
    """Finite differences are the independent oracle for every vjp."""

    def test_matmul_chain(self):
        # A feature map then a time map, every operand a leaf.
        rng = make_rng(21)
        shapes = [(3, 4), (5, 4), (5,), (2, 3), (2,)]
        arrays = [rng.normal(size=s) for s in shapes]
        probe = make_rng(22).normal(size=(2, 5))

        def f(ps):
            h = tc.linear(ps[0], ps[1], ps[2], False)
            return tc.mean(tc.mul(tc.linear(h, ps[3], ps[4], True), Tensor(probe)))

        assert tc.grad_check(f, arrays) < 1e-4

    def test_broadcast_ops(self):
        rng = make_rng(23)
        x = rng.normal(size=(4, 3))
        bias = rng.normal(size=(1, 3))
        scale = rng.normal(size=(4, 1))
        center = rng.normal(size=(1, 3))

        def f(ps):
            y = tc.add(ps[0], ps[1])
            y = tc.mul(y, ps[2])
            y = tc.add(y, ps[3])
            return tc.mean(tc.mul(y, y))

        assert tc.grad_check(f, [x, bias, scale, center]) < 1e-4

    def test_division(self):
        # The one division left on the tape: by a fixed deviation, in standardize.
        rng = make_rng(24)
        x = rng.uniform(0.5, 2.0, size=(3, 3))
        stats = (rng.normal(size=(1, 3)), rng.uniform(1.0, 3.0, size=(1, 3)))

        def f(ps):
            q = tc.standardize(ps[0], None, FLOOR, stats=stats)[0]
            return tc.mean(tc.mul(q, q))

        assert tc.grad_check(f, [x]) < 1e-4

    def test_nonlinearities(self):
        x = make_rng(25).uniform(0.2, 3.0, size=(2, 5))

        def f(ps):
            return tc.mean(tc.softplus(ps[0]))

        assert tc.grad_check(f, [x]) < 1e-4

    @staticmethod
    def softplus_grad(x):
        # x.size is a power of two, so scaling mean's 1 / n back is exact.
        tape = Tape()
        leaf = tape.leaf(x)
        return tc.backward(tape, tc.mean(tc.softplus(leaf)))[leaf.nid].data * x.size

    def test_softplus_gradient_is_the_logistic(self):
        for x in np.linspace(-700.0, 700.0, 32 * 1024).reshape(32, 1024):
            want = expit(x)
            assert np.max(np.abs(self.softplus_grad(x) - want) / want) <= 5e-16
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(self.softplus_grad(np.array([-800.0, 800.0])),
                                          [0.0, 1.0])

    def test_relu_away_from_kink(self):
        x = make_rng(26).normal(size=(4, 4))
        x = np.where(np.abs(x) < 1e-3, 0.5, x)  # keep FD away from the kink

        def f(ps):
            return tc.mean(tc.relu(ps[0]))

        assert tc.grad_check(f, [x]) < 1e-4

    def test_reductions_and_reshape(self):
        rng = make_rng(27)
        x = rng.normal(size=(2, 3, 4))
        y = rng.normal(size=(1, 4))

        def f(ps):
            z = tc.add(ps[0], ps[1])
            return tc.mean(tc.mul(z, z))

        assert tc.grad_check(f, [x, y]) < 1e-4

    def test_concat_expand_transpose(self):
        rng = make_rng(28)
        a = rng.normal(size=(3, 2))
        s = rng.normal(size=(1, 4))

        def f(ps):
            wide = tc.concat(ps[0], tc.expand_rows(ps[1], 3), axis=-1)
            return tc.mean(tc.mul(wide, wide))

        assert tc.grad_check(f, [a, s]) < 1e-4

    def test_standardize_variance_floor_branch(self):
        x = make_rng(29).normal(size=(3, 4, 2))
        x[1] = 0.75 + 1e-5 * x[1]  # a nearly constant sample: its variance is floored
        probe = make_rng(32).normal(size=x.shape)
        _, _, v = tc.standardize(x, (-2, -1), FLOOR)
        assert v[1] <= FLOOR < v[0].min()

        def f(ps):
            return tc.mean(tc.mul(tc.standardize(ps[0], (-2, -1), FLOOR)[0], Tensor(probe)))

        assert tc.grad_check(f, [x]) < 1e-4

    def test_dropout_gradient_with_fixed_mask(self):
        x = make_rng(30).normal(size=(5, 5))

        def f(ps):
            out = tc.dropout(ps[0], 0.4, "train", make_rng(31))
            return tc.mean(tc.mul(out, out))

        assert tc.grad_check(f, [x]) < 1e-4


NORM_AXES = [(0, 1, 2), (0, 1), (-2, -1)]  # batch2d joint, batch2d per feature, layer


def composite_standardize(x, axes, floor):
    """The seven-op normalization (mean, sub, mul, mean, floor, sqrt, div)
    that ``tc.standardize`` replaces, in plain numpy."""
    m = x.mean(axis=axes, keepdims=True)
    d = x - m
    v = (d * d).mean(axis=axes, keepdims=True)
    return d / np.sqrt(np.maximum(v, floor)), m, v


class TestStandardize:
    @pytest.mark.parametrize("axes", NORM_AXES)
    def test_forward_equals_composite(self, axes):
        x = make_rng(33).normal(loc=2.0, scale=3.0, size=(4, 5, 3))
        x[:, :, 1] = -1.5  # a constant feature, floored under per-feature axes
        out, m, v = tc.standardize(x, axes, FLOOR)
        for got, want in zip((out.data, m, v), composite_standardize(x, axes, FLOOR)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("axes", NORM_AXES)
    def test_grad_check(self, axes):
        x = make_rng(34).normal(loc=1.0, scale=2.0, size=(3, 4, 2))
        probe = make_rng(35).normal(size=x.shape)

        def f(ps):
            return tc.mean(tc.mul(tc.standardize(ps[0], axes, FLOOR)[0], Tensor(probe)))

        assert tc.grad_check(f, [x]) < 1e-4

    def test_records_one_tape_node(self):
        tape = Tape()
        out, _, _ = tc.standardize(tape.leaf(make_rng(36).normal(size=(3, 4))), (0, 1), FLOOR)
        assert out.nid == 1 and len(tape) == 2

    def test_non_finite_input_raises(self):
        x = np.ones((2, 3))
        x[0, 1] = np.nan
        with pytest.raises(errors.NumericError, match="standardize"):
            tc.standardize(x, (-1,), FLOOR)
        with pytest.raises(errors.NumericError, match="standardize"):
            tc.standardize(x, None, FLOOR, stats=(0.0, 1.0))


class TestBatchedMatmul:
    """The batched time-axis ``tc.linear``, whose weight gradient is one GEMM."""

    def test_weight_gradient_builds_no_per_sample_array(self):
        rng = make_rng(45)
        tape = Tape()
        w = tape.leaf(rng.normal(size=(64, 64)))
        x = tape.leaf(rng.normal(size=(16, 64, 3)))
        b = tape.leaf(rng.normal(size=64))
        loss = tc.mean(tc.linear(x, w, b, True))
        tracemalloc.start()
        try:
            grads = tc.backward(tape, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grads[w.nid].shape == (64, 64)
        assert peak < 16 * 64 * 64 * 8

    def test_time_axis_node_does_not_keep_its_input_alive(self):
        rng = make_rng(46)
        tape = Tape()
        x = tc.relu(tape.leaf(rng.normal(size=(4, 5, 3))))
        alive = weakref.ref(x.data)
        tc.linear(x, tape.leaf(rng.normal(size=(2, 5))), tape.leaf(rng.normal(size=2)), True)
        del x
        assert alive() is None


class TestRequireFinite:
    """``_require_finite`` checks with min and max; these pin what it means."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_raises_on_any_non_finite_element(self, bad):
        arr = np.arange(7.0)
        arr[3] = bad
        with pytest.raises(errors.NumericError, match="probe"):
            tc._require_finite(arr, "probe")

    def test_accepts_empty_and_extreme_finite_arrays(self):
        tc._require_finite(np.empty((0, 3)), "probe")
        tc._require_finite(np.array([1.7e308, -1.7e308, 1.7e308]), "probe")


class TestOwnedEpilogues:
    """Without a tape, the bias and the affine go into the op's own output."""

    def test_untaped_affine_equals_taped(self):
        rng = make_rng(48)
        x = rng.normal(size=(4, 6, 3))
        scale, shift = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        tape = Tape()
        taped = tc.standardize(tape.leaf(x), (0, 1), FLOOR, (scale, shift))[0]
        untaped = tc.standardize(x, (0, 1), FLOOR, (scale, shift))[0]
        np.testing.assert_array_equal(untaped.data, taped.data)

    def test_untaped_time_axis_bias_allocates_one_output(self):
        rng = make_rng(49)
        cols = tc.NARROW_COLS + 8
        frame = dt.SeriesFrame(rng.normal(size=(400, cols)), [f"c{j}" for j in range(cols)],
                               {f"c{j}": "target" for j in range(cols)})
        history = dt.make_windows(frame, dt.WindowSpec(256, 24)).history
        w, b = Tensor(rng.normal(size=(24, 256))), Tensor(rng.normal(size=24))
        tc.linear(history, w, b, True)  # warm-up: nothing lazy is counted below
        tracemalloc.start()
        try:
            out = tc.linear(history, w, b, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.data.nbytes, (peak, out.data.nbytes)

    @pytest.mark.parametrize("shape, rows", [
        ((5, 16, 3), 40), ((16, 3), 40), ((5, 16, tc.NARROW_COLS), tc.NARROW_COLS + 1),
        ((5, 16, tc.NARROW_COLS + 1), 40), ((5, 16, 3), tc.NARROW_COLS)])
    def test_untaped_time_axis_matches_einsum_in_one_gemm(self, shape, rows, monkeypatch):
        """Both layouts, on either side of each ``NARROW_COLS`` bound."""
        rng = make_rng(50)
        x, w, b = rng.normal(size=shape), rng.normal(size=(rows, 16)), rng.normal(size=rows)
        calls = []
        matmul = tc.matmul
        monkeypatch.setattr(tc, "matmul", lambda a, c, **kw: calls.append(1) or matmul(a, c, **kw))
        got = tc.linear(x, w, b, True).data
        want = np.einsum("oi,...ic->...oc", w, x) + b[:, None]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert len(calls) == 1


class TestCOrderedResults:
    """An op's result of ``WORKSPACE_MIN`` elements or more is C-ordered,
    whatever its operands' layouts, in a workspace and out of one, so no bit
    depends on the workspace."""

    @staticmethod
    def stored(rng, shape, step):
        """A read-only array of ``shape`` (so ops share it, uncopied) stored
        with its axes in a random order; ``step`` > 1 strides its fastest axis."""
        order = list(rng.permutation(len(shape)))
        full = [shape[ax] for ax in order]
        full[-1] *= step
        base = rng.normal(size=full)
        base.setflags(write=False)
        return base[..., ::step].transpose(np.argsort(order))

    @staticmethod
    def run(a, b, c, scale, w, seed):
        """Results and gradients of a chain through every op that writes a
        full-size result: add, concat, standardize, dropout and linear."""
        tape = Tape()
        a, b, scale = tape.leaf(a), tape.leaf(b), tape.leaf(scale)
        s = tc.add(a, b)
        j = tc.concat(s, c)
        n, _, _ = tc.standardize(j, (1, 2), FLOOR, (scale, 0.5))
        d = tc.dropout(n, 0.25, "train", make_rng(seed))
        y = tc.add(d, tc.linear(d, w, np.zeros(len(w)), True, relu=True))
        loss = tc.mean(tc.mul(y, y))
        grads = tc.backward(tape, loss)
        return [s.data, j.data, n.data, d.data, y.data], [grads[t.nid].data for t in (a, b, scale)]

    def test_results_are_c_ordered_and_the_same_in_a_workspace(self):
        rng = make_rng(80)
        for trial in range(12):
            rows, cols = int(rng.integers(24, 40)), int(rng.integers(8, 24))
            shape = (tc.WORKSPACE_MIN // (rows * cols) + int(rng.integers(1, 3)), rows, cols)
            a = self.stored(rng, shape, int(rng.integers(1, 3)))
            kept = int(rng.integers(0, 3))  # b broadcasts over leading axes
            b = self.stored(rng, tuple(1 if rng.random() < 0.3 else n for n in shape[kept:]),
                            int(rng.integers(1, 3)))
            c = self.stored(rng, shape[:2] + (int(rng.integers(1, 4)),), 1)
            scale = self.stored(rng, (1, rows, cols + c.shape[-1]), int(rng.integers(1, 3)))
            w = rng.normal(size=(rows, rows)) / rows
            outside = self.run(a, b, c, scale, w, trial)
            with tc.workspace() as ws:
                ws.grow = True
                inside = self.run(a, b, c, scale, w, trial)
                assert ws.bufs
            for got, want in zip(inside[0], outside[0]):
                assert got.size >= tc.WORKSPACE_MIN
                assert got.flags.c_contiguous and want.flags.c_contiguous
                np.testing.assert_array_equal(got, want)
            for got, want in zip(inside[1], outside[1]):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("x_shape, w_shape, time_axis", [
        ((4, 96, 24), (128, 96), True), ((2048, 6, 1), (8, 6), True),
        ((8, 64, 32), (48, 32), False), ((96, 40), (256, 96), True)])
    @pytest.mark.parametrize("in_workspace", [False, True])
    @pytest.mark.parametrize("consumer", ["add", "linear"])
    def test_relu_linear_equals_relu_of_linear_at_64_kib_and_more(self, x_shape, w_shape,
                                                                   time_axis, in_workspace,
                                                                   consumer):
        """The fused map's values and taped gradients, bit for bit, at sizes
        where results and adjoints come from ``_empty``: ``add`` hands the
        node a C-ordered adjoint, a time-axis ``linear`` a batch view of one."""
        rng = make_rng(81)
        x, w, b = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=w_shape[:1])
        out_shape = tc.linear(x, w, b, time_axis).shape
        head = rng.normal(size=(5, out_shape[-2]))

        def run(fused):
            tape = Tape()
            bound = [tape.leaf(v) for v in (x, w, b)]
            h = (tc.linear(*bound, time_axis, relu=True) if fused
                 else tc.relu(tc.linear(*bound, time_axis)))
            y = (tc.add(h, 1.0) if consumer == "add"
                 else tc.linear(h, head, np.zeros(5), True))
            loss = tc.mean(tc.mul(h, y) if consumer == "add" else tc.mul(y, y))
            grads = tc.backward(tape, loss)
            return [h.data, loss.data] + [grads[t.nid].data for t in bound]

        with tc.workspace() if in_workspace else contextlib.nullcontext() as ws:
            if ws is not None:
                ws.grow = True
            fused, ref = run(True), run(False)
        assert fused[0].size >= tc.WORKSPACE_MIN
        for got, want in zip(fused, ref):
            np.testing.assert_array_equal(got, want)


class TestLayoutFreeBits:
    """``_empty`` gives a C-ordered array at every size, and a time-axis
    ``linear``'s gradients read one C-ordered copy of the adjoint, so their
    bits do not depend on how the adjoint is laid out."""

    @pytest.mark.parametrize("in_workspace", [False, True])
    def test_small_results_are_c_ordered_arrays_too(self, in_workspace):
        with tc.workspace() if in_workspace else contextlib.nullcontext() as ws:
            if ws is not None:
                ws.grow = True
            for shape in [(), (3,), (5, 6, 3), (tc.WORKSPACE_MIN - 1,)]:
                out = tc._empty(shape)
                assert isinstance(out, np.ndarray) and out.shape == shape
                assert out.flags.c_contiguous and out.base is None
            assert not in_workspace or not ws.bufs

    @pytest.mark.parametrize("x_shape, rows", [((33, 6, 1), 7), ((64, 96, 1), 128),
                                               ((32, 96, 24), 128)])
    @pytest.mark.parametrize("relu", [False, True])
    def test_time_axis_gradients_do_not_depend_on_the_adjoints_layout(self, x_shape, rows,
                                                                      relu):
        """``mul`` hands the node an adjoint laid out as its other operand."""
        rng = make_rng(82)
        x, w = rng.normal(size=x_shape), rng.normal(size=(rows, x_shape[1]))
        b, probe = rng.normal(size=rows), rng.normal(size=(x_shape[0], rows, x_shape[2]))

        def grads(p):
            tape = Tape()
            bound = [tape.leaf(v) for v in (x, w, b)]
            loss = tc.mean(tc.mul(tc.linear(*bound, True, relu=relu), p))
            got = tc.backward(tape, loss)
            return [got[t.nid].data for t in bound]

        for got, want in zip(grads(np.asfortranarray(probe)), grads(probe)):
            np.testing.assert_array_equal(got, want)


class TestReluEpilogue:
    """``linear(..., relu=True)`` is ``relu(linear(...))`` in one node: the
    same values and gradients, bit for bit, with no second activation."""

    # (input shape, weight shape, time_axis): a batch and a 2-D input on each
    # axis, one column with a batch of 33 (its bias gradient is one sum over
    # the adjoint's column copy), and the untaped narrow-and-tall and wide
    # time-axis layouts.
    CASES = [((5, 6, 3), (4, 3), False), ((6, 3), (4, 3), False),
             ((5, 6, 3), (7, 6), True), ((6, 3), (7, 6), True), ((33, 6, 1), (7, 6), True),
             ((4, 6, 3), (tc.NARROW_COLS + 1, 6), True),
             ((4, 6, tc.NARROW_COLS + 1), (7, 6), True)]

    @staticmethod
    def inputs(x_shape, w_shape, seed):
        rng = make_rng(seed)
        return (rng.normal(size=x_shape), rng.normal(size=w_shape),
                rng.normal(size=w_shape[:1]))

    @pytest.mark.parametrize("x_shape, w_shape, time_axis", CASES)
    def test_untaped_equals_relu_of_linear(self, x_shape, w_shape, time_axis):
        x, w, b = self.inputs(x_shape, w_shape, 51)
        fused = tc.linear(x, w, b, time_axis, relu=True)
        np.testing.assert_array_equal(fused.data,
                                      tc.relu(tc.linear(x, w, b, time_axis)).data)
        assert fused.tape is None

    @pytest.mark.parametrize("x_shape, w_shape, time_axis", CASES)
    @pytest.mark.parametrize("consumer", ["mul", "linear", "dropout"])
    @pytest.mark.parametrize("watched", ["xwb", "x", "wb"])
    def test_taped_values_and_gradients_equal_relu_of_linear(self, x_shape, w_shape, time_axis,
                                                             consumer, watched):
        """``mul`` hands the node a read-only adjoint, ``linear`` and
        ``dropout`` a fresh one it may mask in place."""
        x, w, b = self.inputs(x_shape, w_shape, 52)
        out_shape = tc.linear(x, w, b, time_axis).shape
        probe = make_rng(53).normal(size=out_shape)
        head = make_rng(54).normal(size=(2, out_shape[-1]))

        def run(fused):
            tape = Tape()
            bound = [tape.leaf(a) if name in watched else a for name, a in zip("xwb", (x, w, b))]
            h = (tc.linear(*bound, time_axis, relu=True) if fused
                 else tc.relu(tc.linear(*bound, time_axis)))
            if consumer == "mul":
                y = tc.mul(h, probe)
            elif consumer == "linear":
                y = tc.linear(h, head, np.zeros(2), False)
            else:
                y = tc.dropout(h, 0.3, "train", make_rng(55))
            loss = tc.mean(tc.mul(y, y))
            grads = tc.backward(tape, loss)
            return h.data, [grads[t.nid].data for t in bound if isinstance(t, Tensor)], len(tape)

        fused_h, fused_grads, fused_nodes = run(True)
        ref_h, ref_grads, ref_nodes = run(False)
        np.testing.assert_array_equal(fused_h, ref_h)
        assert len(fused_grads) == len(ref_grads) == len(watched)
        for got, want in zip(fused_grads, ref_grads):
            np.testing.assert_array_equal(got, want)
        assert fused_nodes == ref_nodes - 1

    @pytest.mark.parametrize("x_shape, w_shape, time_axis", [
        ((3, 4, 5), (5, 5), False),
        # 2-D, so the node's column layout is a view of its adjoint.
        ((4, 5), (4, 4), True)])
    def test_masks_no_adjoint_another_node_reads(self, x_shape, w_shape, time_axis):
        """``add`` hands one adjoint to both parents; the ReLU linear, made
        after ``plain``, is reached first and must not mask ``plain``'s."""
        x, w, b = self.inputs(x_shape, w_shape, 56)
        plain = make_rng(57).normal(size=x_shape)

        def f(ps):
            plain_t, x_t, w_t, b_t = ps
            h = tc.add(plain_t, tc.linear(x_t, w_t, b_t, time_axis, relu=True))
            return tc.mean(tc.mul(h, h))

        assert tc.grad_check(f, [plain, x, w, b]) < 1e-6

    def test_pass_through_adjoint_is_read_only(self):
        g = np.ones((2, 3))
        passed = tc._unbroadcast(g, (2, 3))
        assert passed.base is g and not passed.flags.writeable
        assert tc._unbroadcast(g, (3,)).flags.writeable
