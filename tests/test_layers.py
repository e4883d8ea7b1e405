"""Mixing blocks, 2-D normalization, reversible instance normalization,
and the binary parameter container."""

import tracemalloc

import numpy as np
import pytest

from mixcast import errors
from mixcast import layers as ly
from mixcast import tensor as tc
from mixcast.params_io import load_params, save_params
from mixcast.rng import make_rng
from mixcast.tensor import Tape, Tensor


def lin(out_dim, in_dim, rng):
    w, b = ly.linear_init(out_dim, in_dim, rng)
    b = rng.normal(size=out_dim) * 0.1
    return ly.LinearParams(Tensor(w), Tensor(b))


def identity_norm(rows, cols):
    return ly.NormParams("identity", Tensor(np.ones((rows, cols))), Tensor(np.zeros((rows, cols))))


def layer_norm(rows, cols):
    return ly.NormParams("layer", Tensor(np.ones((rows, cols))), Tensor(np.zeros((rows, cols))))


def batch_norm(rows, cols, per_feature=False):
    rm, rv = ly.norm_stats_init(cols, per_feature)
    return ly.NormParams("batch2d", Tensor(np.ones((rows, cols))), Tensor(np.zeros((rows, cols))),
                         running_mean=rm, running_var=rv, per_feature=per_feature)


def fm_params(in_dim, hidden, out_dim, rng):
    return ly.FeatureMixParams(
        hidden=lin(hidden, in_dim, rng),
        out=lin(out_dim, hidden, rng),
        residual=None if out_dim == in_dim else lin(out_dim, in_dim, rng),
    )


class TestLinearMaps:
    def test_temporal_projection_stepwise_oracle(self):
        rng = make_rng(40)
        x = rng.normal(size=(5, 3))
        p = lin(2, 5, rng)
        got = ly.temporal_projection(x, p).data
        want = p.weight.data @ x + p.bias.data[:, None]
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_temporal_projection_batched(self):
        rng = make_rng(41)
        x = rng.normal(size=(4, 5, 3))
        p = lin(2, 5, rng)
        got = ly.temporal_projection(x, p).data
        for i in range(4):
            np.testing.assert_allclose(got[i], p.weight.data @ x[i] + p.bias.data[:, None])

    def test_feature_linear_rowwise(self):
        rng = make_rng(42)
        x = rng.normal(size=(5, 3))
        p = lin(4, 3, rng)
        got = ly.feature_linear(x, p).data
        for r in range(5):
            np.testing.assert_allclose(got[r], p.weight.data @ x[r] + p.bias.data)

    def test_shape_mismatch_messages(self):
        rng = make_rng(43)
        with pytest.raises(errors.DimensionError, match=r"weight \(2, 4\).*shape \(5, 3\)"):
            ly.temporal_projection(np.zeros((5, 3)), lin(2, 4, rng))
        with pytest.raises(errors.DimensionError, match=r"weight \(2, 4\).*shape \(5, 3\)"):
            ly.feature_linear(np.zeros((5, 3)), lin(2, 4, rng))

    def test_each_map_records_one_tape_node(self):
        rng = make_rng(44)
        for layer, shape in ((ly.temporal_projection, (4, 5, 3)), (ly.feature_linear, (4, 3, 5))):
            tape = Tape()
            p = lin(2, 5, rng)
            x, w, b = (tape.leaf(a) for a in (rng.normal(size=shape), p.weight, p.bias))
            out = layer(x, ly.LinearParams(w, b))
            assert (out.nid, len(tape)) == (3, 4), layer.__name__


# Every kind x mode of norm2d; batch2d eval with running statistics other than 0 / 1.
NORM_CASES = [("layer", "train", False), ("layer", "eval", False),
              ("identity", "train", False), ("identity", "eval", False),
              ("batch2d", "train", False), ("batch2d", "train", True),
              ("batch2d", "eval", False), ("batch2d", "eval", True)]


def stat_norm(kind, scale, shift, per_feature=False):
    """A norm of ``kind`` on (4 x 2) cells with the given affine; batch2d
    carries running statistics drawn away from their initial 0 / 1."""
    if kind != "batch2d":
        return ly.NormParams(kind, scale, shift)
    rng = make_rng(58)
    shape = (2,) if per_feature else ()
    return ly.NormParams("batch2d", scale, shift, running_mean=rng.normal(size=shape),
                         running_var=rng.uniform(0.5, 2.0, size=shape), per_feature=per_feature)


def composite_norm2d(x, scale, shift, g, kind, per_feature, stats):
    """The multi-node norm2d that one ``tc.standardize`` node replaces, in plain
    numpy and in its operation order: output, then the gradients of x, scale
    and shift for the output adjoint ``g``.  Identity was mul + add, running
    statistics sub + div + mul + add, and own statistics standardize + mul + add."""
    if kind == "identity":
        xn, back = x, lambda h: h
    elif stats is not None:
        std = np.sqrt(np.maximum(stats[1], ly.VAR_FLOOR))
        xn, back = (x - stats[0]) / std, lambda h: h / std
    else:
        axes = ((0, 1) if per_feature else (0, 1, 2)) if kind == "batch2d" else (-2, -1)
        m = x.mean(axis=axes, keepdims=True)
        d = x - m
        v = (d * d).mean(axis=axes, keepdims=True)
        std = np.sqrt(np.maximum(v, ly.VAR_FLOOR))
        xn = d / std

        def back(h):
            gy = (h * xn).mean(axis=axes, keepdims=True) * (v > ly.VAR_FLOOR)
            return (h - h.mean(axis=axes, keepdims=True) - xn * gy) / std
    return xn * scale + shift, back(g * scale), (g * xn).sum(axis=0), g.sum(axis=0)


class TestNorm2d:
    def test_layer_kind_per_sample_moments(self):
        x = make_rng(44).normal(loc=3.0, scale=2.5, size=(4, 6, 5))
        out = ly.norm2d(x, layer_norm(6, 5)).data
        for i in range(4):
            assert abs(out[i].mean()) < 1e-10
            assert abs(out[i].var() - 1.0) < 1e-10

    def test_batch2d_joint_moments_in_train(self):
        x = make_rng(45).normal(loc=-1.0, scale=3.0, size=(3, 4, 2))
        out = ly.norm2d(x, batch_norm(4, 2), mode="train").data
        assert abs(out.mean()) < 1e-10
        assert abs(out.var() - 1.0) < 1e-10

    def test_batch2d_per_feature_moments(self):
        x = make_rng(46).normal(loc=5.0, scale=0.5, size=(3, 4, 2))
        out = ly.norm2d(x, batch_norm(4, 2, per_feature=True), mode="train").data
        for c in range(2):
            assert abs(out[:, :, c].mean()) < 1e-10
            assert abs(out[:, :, c].var() - 1.0) < 1e-10

    def test_batch2d_running_stats_momentum(self):
        x = make_rng(47).normal(loc=2.0, size=(4, 3, 2))
        norm = batch_norm(3, 2)
        ly.norm2d(x, norm, mode="train")
        assert norm.running_mean == pytest.approx(0.9 * 0.0 + 0.1 * x.mean())
        assert norm.running_var == pytest.approx(0.9 * 1.0 + 0.1 * x.var())

    def test_batch2d_eval_uses_running_stats(self):
        norm = batch_norm(3, 2)
        norm.running_mean[...] = 4.0
        norm.running_var[...] = 9.0
        x = np.full((2, 3, 2), 7.0)
        out = ly.norm2d(x, norm, mode="eval").data
        np.testing.assert_allclose(out, (7.0 - 4.0) / 3.0)

    def test_batch2d_single_sample_train_rejected(self):
        with pytest.raises(errors.ConfigurationError, match="batch"):
            ly.norm2d(np.zeros((1, 3, 2)), batch_norm(3, 2), mode="train")
        with pytest.raises(errors.ConfigurationError):
            ly.norm2d(np.zeros((3, 2)), batch_norm(3, 2), mode="train")

    def test_identity_kind_is_affine_only(self):
        x = make_rng(48).normal(size=(3, 4))
        norm = identity_norm(3, 4)
        norm.scale = Tensor(np.full((3, 4), 2.0))
        norm.shift = Tensor(np.full((3, 4), -1.0))
        np.testing.assert_array_equal(ly.norm2d(x, norm).data, x * 2.0 - 1.0)

    def test_constant_input_hits_variance_floor(self):
        x = np.full((4, 3, 2), 5.0)
        out = ly.norm2d(x, layer_norm(3, 2)).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, 0.0)

    def test_affine_shape_checked(self):
        with pytest.raises(errors.DimensionError):
            ly.norm2d(np.zeros((3, 4)), layer_norm(4, 3))

    def test_grad_check_layer_and_batch_kinds(self):
        rng = make_rng(49)
        x = rng.normal(size=(3, 4, 2))
        scale = rng.normal(size=(4, 2))
        shift = rng.normal(size=(4, 2))
        probe = make_rng(50).normal(size=(3, 4, 2))

        def f(kind, mode, per_feature=False):
            def loss(ps):
                norm = stat_norm(kind, ps[1], ps[2], per_feature)
                return tc.mean(tc.mul(ly.norm2d(ps[0], norm, mode=mode), Tensor(probe)))
            return loss

        for kind, mode, per_feature in NORM_CASES:
            err = tc.grad_check(f(kind, mode, per_feature), [x, scale, shift])
            assert err < 1e-4, (kind, mode, per_feature)

    @pytest.mark.parametrize("kind, mode, per_feature", NORM_CASES)
    def test_one_node_bitwise_equal_to_the_composite(self, kind, mode, per_feature):
        rng = make_rng(56)
        x, probe = rng.normal(loc=1.5, size=(3, 4, 2)), rng.normal(size=(3, 4, 2))
        scale, shift = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        tape = Tape()
        leaves = [tape.leaf(a) for a in (x, scale, shift)]
        norm = stat_norm(kind, leaves[1], leaves[2], per_feature)
        stats = None  # what batch2d eval applies: the running copies
        if kind == "batch2d" and mode == "eval":
            stats = (np.array(norm.running_mean), np.array(norm.running_var))
        out = ly.norm2d(leaves[0], norm, mode=mode)
        assert out.nid == 3 and len(tape) == 4
        grads = tc.backward(tape, tc.mean(tc.mul(out, Tensor(probe))))
        g = (1.0 / probe.size) * probe  # the adjoint mean(out * probe) hands the node
        want = composite_norm2d(x, scale, shift, g, kind, per_feature, stats)
        for got, expected in zip([out.data] + [grads[t.nid].data for t in leaves], want):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("per_feature", [False, True])
    def test_eval_node_keeps_no_running_buffer(self, per_feature):
        x = make_rng(57).normal(size=(3, 4, 2))

        def eval_grad(mutate):
            tape = Tape()
            leaf = tape.leaf(x)
            norm = stat_norm("batch2d", np.ones((4, 2)), np.zeros((4, 2)), per_feature)
            loss = tc.mean(tc.mul(ly.norm2d(leaf, norm, mode="eval"), Tensor(x)))
            if mutate:
                norm.running_mean[...] += 5.0
                norm.running_var[...] *= 7.0
            return tc.backward(tape, loss)[leaf.nid].data

        np.testing.assert_array_equal(eval_grad(True), eval_grad(False))


class TestRevIn:
    def test_roundtrip_identity(self):
        x = make_rng(51).normal(loc=40.0, scale=7.0, size=(3, 12, 2))
        xn, state = ly.rev_in_normalize(x)
        back = ly.rev_in_denormalize(xn, state).data
        np.testing.assert_allclose(back, x, atol=1e-12)

    def test_normalized_moments(self):
        x = make_rng(52).normal(loc=-3.0, scale=2.0, size=(2, 50, 3))
        xn, _ = ly.rev_in_normalize(x)
        np.testing.assert_allclose(xn.data.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(xn.data.std(axis=1), 1.0, atol=1e-6)

    def test_constant_channel_is_finite(self):
        x = np.ones((2, 8, 1)) * 3.0
        xn, state = ly.rev_in_normalize(x)
        assert np.all(np.isfinite(xn.data))
        np.testing.assert_allclose(ly.rev_in_denormalize(xn, state).data, x, atol=1e-12)

    def test_state_shape_mismatch(self):
        x = make_rng(53).normal(size=(2, 8, 3))
        _, state = ly.rev_in_normalize(x)
        with pytest.raises(errors.StateError):
            ly.rev_in_denormalize(np.zeros((2, 4, 2)), state)

    def test_is_one_standardize_node(self):
        # A taped input is differentiated as tc.standardize over time,
        # statistics included; a model's history is data, so no model tapes it.
        # The inverse is one node too, bitwise y * std + mean.
        x = make_rng(54).normal(size=(2, 6, 3))
        x[1, :, 2] = 4.0  # a constant channel: its variance is floored
        r = make_rng(55).normal(size=(2, 6, 3))
        tape = Tape()
        xn, state = ly.rev_in_normalize(tape.leaf(x))
        assert len(tape) == 2
        out, m, v = tc.standardize(x, (1,), ly.VAR_FLOOR)
        np.testing.assert_array_equal(xn.data, out.data)
        np.testing.assert_array_equal(state.mean, m)
        np.testing.assert_array_equal(state.std, np.sqrt(np.maximum(v, ly.VAR_FLOOR)))
        y = tape.leaf(r)
        back = ly.rev_in_denormalize(y, state)
        assert back.nid == 3 and len(tape) == 4
        np.testing.assert_array_equal(back.data, r * state.std + state.mean)
        tape2 = Tape()
        y2 = tape2.leaf(r)
        back2 = tc.add(tc.mul(y2, Tensor(state.std)), Tensor(state.mean))
        np.testing.assert_array_equal(
            tc.backward(tape, tc.mean(tc.mul(back, Tensor(x))))[y.nid].data,
            tc.backward(tape2, tc.mean(tc.mul(back2, Tensor(x))))[y2.nid].data)

        def f(ps):
            return tc.mean(tc.mul(ly.rev_in_normalize(ps[0])[0], Tensor(r)))

        assert tc.grad_check(f, [x]) < 1e-4


class TestTimeMixing:
    def test_zero_projection_reduces_to_norm(self):
        x = np.abs(make_rng(56).normal(size=(5, 3))) + 0.1
        p = ly.LinearParams(Tensor(np.zeros((5, 5))), Tensor(np.zeros(5)))
        norm = layer_norm(5, 3)
        got = ly.time_mixing(x, p, norm)
        want = ly.norm2d(Tensor(x), norm)
        np.testing.assert_array_equal(got.data, want.data)

    def test_zero_projection_pre_placement_is_identity(self):
        x = np.abs(make_rng(57).normal(size=(5, 3))) + 0.1
        p = ly.LinearParams(Tensor(np.zeros((5, 5))), Tensor(np.zeros(5)))
        got = ly.time_mixing(x, p, layer_norm(5, 3), placement="pre")
        np.testing.assert_array_equal(got.data, x)

    def test_requires_square_projection(self):
        rng = make_rng(58)
        with pytest.raises(errors.DimensionError, match="square"):
            ly.time_mixing(np.zeros((5, 3)), lin(4, 5, rng), identity_norm(5, 3))

    def test_grad_check(self):
        rng = make_rng(59)
        x = rng.normal(size=(4, 3))
        p = lin(4, 4, rng)
        scale = rng.normal(size=(4, 3))
        shift = rng.normal(size=(4, 3))
        probe = make_rng(60).normal(size=(4, 3))

        def f(ps):
            params = ly.LinearParams(ps[1], ps[2])
            norm = ly.NormParams("layer", ps[3], ps[4])
            return tc.mean(tc.mul(ly.time_mixing(ps[0], params, norm), Tensor(probe)))

        args = [x, p.weight.data, p.bias.data, scale, shift]
        assert tc.grad_check(f, args) < 1e-4


class TestFeatureMixing:
    def test_zero_hidden_path_reduces_to_norm(self):
        rng = make_rng(61)
        x = rng.normal(size=(4, 3))
        p = ly.FeatureMixParams(
            hidden=ly.LinearParams(Tensor(np.zeros((6, 3))), Tensor(np.zeros(6))),
            out=ly.LinearParams(Tensor(np.zeros((3, 6))), Tensor(np.zeros(3))),
        )
        norm = layer_norm(4, 3)
        got = ly.feature_mixing(x, p, norm)
        np.testing.assert_array_equal(got.data, ly.norm2d(Tensor(x), norm).data)

    def test_channel_change_needs_residual_projection(self):
        rng = make_rng(62)
        p = ly.FeatureMixParams(hidden=lin(6, 3, rng), out=lin(5, 6, rng))
        with pytest.raises(errors.ConfigurationError, match="residual"):
            ly.feature_mixing(np.zeros((4, 3)), p, identity_norm(4, 5))

    def test_channel_change_shape(self):
        rng = make_rng(63)
        p = fm_params(3, 6, 5, rng)
        out = ly.feature_mixing(make_rng(64).normal(size=(2, 4, 3)), p, identity_norm(4, 5))
        assert out.shape == (2, 4, 5)

    def test_rows_processed_independently(self):
        # A block with no time mixing maps equal rows to equal rows.
        rng = make_rng(65)
        p = fm_params(3, 6, 5, rng)
        row = rng.normal(size=3)
        x = np.tile(row, (4, 1))
        out = ly.feature_mixing(x, p, identity_norm(4, 5)).data
        for r in range(1, 4):
            np.testing.assert_allclose(out[r], out[0], rtol=1e-14)

    def test_grad_check_with_channel_change(self):
        rng = make_rng(66)
        p = fm_params(3, 4, 2, rng)
        x = rng.normal(size=(3, 3))
        probe = make_rng(67).normal(size=(3, 2))

        def f(ps):
            params = ly.FeatureMixParams(
                hidden=ly.LinearParams(ps[1], ps[2]),
                out=ly.LinearParams(ps[3], ps[4]),
                residual=ly.LinearParams(ps[5], ps[6]),
            )
            norm = ly.NormParams("layer", ps[7], ps[8])
            return tc.mean(tc.mul(ly.feature_mixing(ps[0], params, norm), Tensor(probe)))

        args = [x, p.hidden.weight.data, p.hidden.bias.data, p.out.weight.data,
                p.out.bias.data, p.residual.weight.data, p.residual.bias.data,
                np.ones((3, 2)), np.zeros((3, 2))]
        assert tc.grad_check(f, args) < 1e-4


class TestConditionalFeatureMixing:
    def cfm(self, in_dim, hidden, statics, rng):
        return ly.CondFeatureMixParams(
            joint=fm_params(in_dim + (hidden if statics else 0), hidden, hidden, rng),
            joint_norm=identity_norm(4, hidden),
            static_mix=fm_params(statics, hidden, hidden, rng) if statics else None,
            static_norm=identity_norm(4, hidden) if statics else None,
        )

    def test_without_statics_equals_plain_feature_mixing(self):
        rng = make_rng(68)
        p = self.cfm(3, 5, 0, rng)
        x = rng.normal(size=(4, 3))
        got = ly.conditional_feature_mixing(x, None, p)
        want = ly.feature_mixing(Tensor(x), p.joint, p.joint_norm)
        np.testing.assert_array_equal(got.data, want.data)

    def test_static_row_reaches_every_time_step(self):
        rng = make_rng(69)
        p = self.cfm(3, 5, 2, rng)
        x = rng.normal(size=(4, 3))
        s0 = rng.normal(size=(1, 2))
        s1 = s0 + [[1.0, -2.0]]
        out0 = ly.conditional_feature_mixing(x, s0, p).data
        out1 = ly.conditional_feature_mixing(x, s1, p).data
        # changing the static row changes every output row
        assert np.all(np.abs(out0 - out1).max(axis=-1) > 1e-12)

    def test_batched_static_shape_check(self):
        rng = make_rng(70)
        p = self.cfm(3, 5, 2, rng)
        with pytest.raises(errors.DimensionError):
            ly.conditional_feature_mixing(rng.normal(size=(4, 3)), rng.normal(size=(2, 2)), p)

    def test_grad_check_through_static_branch(self):
        rng = make_rng(71)
        x = rng.normal(size=(4, 3))
        s = rng.normal(size=(1, 2))
        p = self.cfm(3, 4, 2, rng)
        probe = make_rng(72).normal(size=(4, 4))

        def f(ps):
            params = ly.CondFeatureMixParams(
                joint=ly.FeatureMixParams(
                    hidden=ly.LinearParams(ps[2], ps[3]),
                    out=ly.LinearParams(ps[4], ps[5]),
                    residual=ly.LinearParams(ps[6], ps[7]),
                ),
                joint_norm=identity_norm(4, 4),
                static_mix=ly.FeatureMixParams(
                    hidden=ly.LinearParams(ps[8], ps[9]),
                    out=ly.LinearParams(ps[10], ps[11]),
                    residual=ly.LinearParams(ps[12], ps[13]),
                ),
                static_norm=identity_norm(4, 4),
            )
            return tc.mean(tc.mul(ly.conditional_feature_mixing(ps[0], ps[1], params), Tensor(probe)))

        j, sm = p.joint, p.static_mix
        args = [x, s,
                j.hidden.weight.data, j.hidden.bias.data, j.out.weight.data, j.out.bias.data,
                j.residual.weight.data, j.residual.bias.data,
                sm.hidden.weight.data, sm.hidden.bias.data, sm.out.weight.data, sm.out.bias.data,
                sm.residual.weight.data, sm.residual.bias.data]
        assert tc.grad_check(f, args) < 1e-4


class TestMixerLayers:
    def test_mixer_layer_composes_time_then_feature(self):
        rng = make_rng(73)
        p = ly.MixerLayerParams(
            time=lin(4, 4, rng), time_norm=identity_norm(4, 3),
            feat=ly.CondFeatureMixParams(fm_params(3, 5, 3, rng), identity_norm(4, 3)),
        )
        x = rng.normal(size=(2, 4, 3))
        got = ly.mixer_layer(x, p)
        step = ly.time_mixing(Tensor(x), p.time, p.time_norm)
        want = ly.feature_mixing(step, p.feat.joint, p.feat.joint_norm)
        np.testing.assert_array_equal(got.data, want.data)

    def test_unknown_placement_rejected(self):
        rng = make_rng(77)
        x = rng.normal(size=(4, 3))
        with pytest.raises(errors.ParameterError, match="placement"):
            ly.time_mixing(x, lin(4, 4, rng), identity_norm(4, 3), placement="mid")
        with pytest.raises(errors.ParameterError, match="placement"):
            ly.feature_mixing(x, fm_params(3, 5, 3, rng), identity_norm(4, 3), placement="mid")

    def test_mixer_layer_with_static_composes(self):
        rng = make_rng(74)
        cfm = ly.CondFeatureMixParams(
            joint=fm_params(3 + 5, 5, 5, rng), joint_norm=identity_norm(4, 5),
            static_mix=fm_params(2, 5, 5, rng), static_norm=identity_norm(4, 5),
        )
        p = ly.MixerLayerParams(time=lin(4, 4, rng), time_norm=identity_norm(4, 3), feat=cfm)
        x = rng.normal(size=(4, 3))
        s = rng.normal(size=(1, 2))
        got = ly.mixer_layer(x, p, s)
        step = ly.time_mixing(Tensor(x), p.time, p.time_norm)
        want = ly.conditional_feature_mixing(step, Tensor(s), cfm)
        np.testing.assert_array_equal(got.data, want.data)


class TestParamContainer:
    def test_roundtrip(self, tmp_path):
        rng = make_rng(75)
        params = {
            "block0.time.weight": rng.normal(size=(4, 4)),
            "block0.time.bias": rng.normal(size=4),
            "scalar": np.array(3.5),
            "cube": rng.normal(size=(2, 3, 4)),
        }
        path = tmp_path / "params.bin"
        save_params(path, params)
        back = load_params(path)
        assert set(back) == set(params)
        for name in params:
            np.testing.assert_array_equal(back[name], np.asarray(params[name], dtype=np.float64))
            assert back[name].shape == np.asarray(params[name]).shape

    def test_serialization_is_order_independent(self, tmp_path):
        rng = make_rng(76)
        a = {"x": rng.normal(size=3), "y": rng.normal(size=(2, 2))}
        b = dict(reversed(list(a.items())))
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        save_params(pa, a)
        save_params(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMYPACK" + b"\x00" * 30)
        with pytest.raises(errors.FormatError, match="magic"):
            load_params(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "v9.bin"
        save_params(path, {"x": np.ones(2)})
        blob = bytearray(path.read_bytes())
        blob[7] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(errors.FormatError, match="version"):
            load_params(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        save_params(path, {"x": np.ones(8)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(errors.FormatError, match="truncated"):
            load_params(path)


def test_eval_norm2d_allocates_one_output():
    """An eval-mode batch norm writes its affine into its own output, and its
    finiteness check allocates nothing."""
    norm = batch_norm(512, 21)
    norm.running_mean[...], norm.running_var[...] = 0.3, 1.7
    x = Tensor(make_rng(61).normal(size=(64, 512, 21)))
    ly.norm2d(x, norm, "eval")  # warm-up: nothing lazy is counted below
    tracemalloc.start()
    try:
        out = ly.norm2d(x, norm, "eval")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.data.nbytes, (peak, out.data.nbytes)
