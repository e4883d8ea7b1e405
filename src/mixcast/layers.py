"""Mixer building blocks.

Tensors flowing through this module are matrices of rows x cols (time
steps x channels), optionally with a leading batch axis.  Two linear map
orientations cover everything:

* temporal projection — one weight matrix applied to every *column*
  (channel), mapping ``rows`` time steps to a new count of time steps;
* feature (row-wise) linear — one weight matrix applied to every *row*
  (time step), mapping channels to channels.

On top of these sit the residual mixing blocks:

* time mixing:     x + Drop(relu(TemporalProj_square(x)))   (+ norm)
* feature mixing:  x + Drop(W_out @ Drop(relu(W_hidden @ x)))  (+ norm),
  with a learned row-wise projection on the residual path whenever the
  block changes the channel count;
* conditional feature mixing: static features are expanded along rows,
  feature-mixed to hidden width, concatenated, then feature-mixed jointly;
  without static features this is plain feature mixing;
* mixer layer: time mixing, then conditional feature mixing — the one
  layer every family stacks.

``placement`` controls where a block's norm sits: ``"post"`` normalizes
the residual sum (the literal block formula), ``"pre"`` normalizes the
block input and leaves the residual stream untouched.

Also here: 2-D matrix normalization (batch / per-sample / identity
kinds) and reversible per-instance normalization whose statistics are
treated as constants of the forward pass and undone on the forecast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .errors import ConfigurationError, DimensionError, ParameterError, StateError
from .tensor import Tensor, _lift

# Variance floor shared by every normalizer: keeps 1/sqrt finite on
# constant inputs without perturbing healthy variances.
VAR_FLOOR = 1e-8

NORM_KINDS = ("batch2d", "layer", "identity")
PLACEMENTS = ("pre", "post")


# ---------------------------------------------------------------------------
# linear maps


@dataclass
class LinearParams:
    """Weight (out x in) and bias (out,) of one linear map."""

    weight: Tensor
    bias: Tensor


def linear_init(out_dim: int, in_dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Fan-in uniform weights, zero bias."""
    if out_dim < 1 or in_dim < 1:
        raise ParameterError(f"linear_init: dimensions must be positive, got {out_dim}x{in_dim}")
    bound = 1.0 / np.sqrt(in_dim)
    weight = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    return weight, np.zeros(out_dim)


def temporal_projection(x, p: LinearParams) -> Tensor:
    """Map ``rows`` time steps to ``out`` steps, shared across channels."""
    return tc.linear(x, p.weight, p.bias, True)


def feature_linear(x, p: LinearParams) -> Tensor:
    """Map channels to channels, shared across rows (applied row-wise)."""
    return tc.linear(x, p.weight, p.bias, False)


# ---------------------------------------------------------------------------
# 2-D normalization


@dataclass
class NormParams:
    """State of one 2-D normalizer.

    ``scale``/``shift`` is the learned per-cell affine (rows x cols).
    Batch normalization keeps running statistics here as plain mutable
    arrays — shape () when pooling batch, rows, and cols jointly, shape
    (cols,) in per-feature mode.
    """

    kind: str
    scale: Tensor
    shift: Tensor
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None
    per_feature: bool = False


# Weight of the newest batch statistics in the running copies.
MOMENTUM = 0.1


def norm_affine_init(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The identity affine: scale 1 and shift 0 per cell."""
    return np.ones((rows, cols)), np.zeros((rows, cols))


def norm_stats_init(cols: int, per_feature: bool) -> tuple[np.ndarray, np.ndarray]:
    shape = (cols,) if per_feature else ()
    return np.zeros(shape), np.ones(shape)


def norm2d(x, norm: NormParams, mode: str = "eval") -> Tensor:
    """Normalize a (batch x) rows x cols tensor and apply the affine, as one
    ``tc.standardize`` node; this function only chooses the statistics.

    kinds: ``batch2d`` pools statistics over the whole batch (training
    mode recomputes them and updates the running copies in place; eval
    mode applies the running copies), ``layer`` pools per sample over
    rows and cols, ``identity`` uses mean 0 and variance 1, so it is the
    affine alone: ``x - 0`` and ``x / 1`` are exact.
    """
    x = _lift(x)
    if mode not in ("train", "eval"):
        raise ParameterError(f"norm2d: mode must be 'train' or 'eval', got {mode!r}")
    if norm.kind not in NORM_KINDS:
        raise ConfigurationError(f"norm2d: unknown kind {norm.kind!r}")
    scale, shift = _lift(norm.scale), _lift(norm.shift)
    if x.ndim < 2 or scale.shape != x.shape[-2:] or shift.shape != x.shape[-2:]:
        raise DimensionError(
            f"norm2d: affine shape {scale.shape} does not match input shape {x.shape}"
        )

    batch = norm.kind == "batch2d"
    if batch and (norm.running_mean is None or norm.running_var is None):
        raise ConfigurationError("norm2d: batch2d requires running statistics")
    stats = None  # statistics of this input: per sample (layer) or per batch
    if norm.kind == "identity":
        stats = (0.0, 1.0)
    elif batch and mode == "eval":
        stats = (norm.running_mean, norm.running_var)
    elif batch and (x.ndim != 3 or x.shape[0] < 2):
        raise ConfigurationError(
            "norm2d: batch2d training statistics need a batch of >= 2 samples; "
            f"got input shape {x.shape} (use kind='layer' for single samples)"
        )
    axes = ((0, 1) if norm.per_feature else (0, 1, 2)) if batch else (-2, -1)
    out, m, v = tc.standardize(x, axes, VAR_FLOOR, (scale, shift), stats)
    if batch and stats is None:  # running copies blend detached batch statistics
        for run, stat in ((norm.running_mean, m), (norm.running_var, v)):
            run[...] = (1.0 - MOMENTUM) * run + MOMENTUM * stat.reshape(run.shape)
    return out


# ---------------------------------------------------------------------------
# reversible instance normalization


@dataclass
class RevInState:
    """Per-(sample, channel) mean and deviation captured on the way in."""

    mean: np.ndarray  # (batch, 1, cols)
    std: np.ndarray   # (batch, 1, cols)


def rev_in_normalize(x) -> tuple[Tensor, RevInState]:
    """Standardize each sample's channels over time as one ``tc.standardize``
    node, and keep the statistics that ``rev_in_denormalize`` reverses it by."""
    x = _lift(x)
    if x.ndim != 3:
        raise DimensionError(f"rev_in_normalize expects batch x rows x cols, got shape {x.shape}")
    out, m, v = tc.standardize(x, (1,), VAR_FLOOR)
    return out, RevInState(mean=m, std=np.sqrt(np.maximum(v, VAR_FLOOR)))


def rev_in_denormalize(y, state: RevInState) -> Tensor:
    """Undo ``rev_in_normalize`` on a forecast sharing batch and channels."""
    y = _lift(y)
    if y.ndim != 3:
        raise DimensionError(f"rev_in_denormalize expects batch x rows x cols, got shape {y.shape}")
    if y.shape[0] != state.mean.shape[0] or y.shape[2] != state.mean.shape[2]:
        raise StateError(
            f"rev_in state of shape {state.mean.shape} does not match forecast shape {y.shape}"
        )
    return tc.add(tc.mul(y, Tensor(state.std)), Tensor(state.mean))


# ---------------------------------------------------------------------------
# mixing blocks


@dataclass
class FeatureMixParams:
    """Two-layer row-wise MLP with residual: in -> hidden -> out.

    ``residual`` is the learned projection of the skip path; it must be
    present exactly when out != in.
    """

    hidden: LinearParams
    out: LinearParams
    residual: LinearParams | None = None


def _residual(x: Tensor, res: Tensor, body, norm: NormParams, mode: str,
              placement: str) -> Tensor:
    """``res + body(x)`` with the block norm where ``placement`` puts it:
    on the sum (``"post"``) or on the body's input (``"pre"``)."""
    if placement not in PLACEMENTS:
        raise ParameterError(f"placement must be 'pre' or 'post', got {placement!r}")
    if placement == "post":
        return norm2d(tc.add(res, body(x)), norm, mode)
    return tc.add(res, body(norm2d(x, norm, mode)))


def time_mixing(x, p: LinearParams, norm: NormParams, rate: float = 0.0,
                mode: str = "eval", rng=None, placement: str = "post") -> Tensor:
    """Residual block mixing information across time steps.

    The projection must be square (rows -> rows) so the residual sum is
    well formed.
    """
    x = _lift(x)
    w = _lift(p.weight)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionError(f"time_mixing requires a square projection, got weight {w.shape}")

    def body(inp: Tensor) -> Tensor:
        return tc.dropout(tc.relu(temporal_projection(inp, p)), rate, mode, rng)

    return _residual(x, x, body, norm, mode, placement)


def feature_mixing(x, p: FeatureMixParams, norm: NormParams, rate: float = 0.0,
                   mode: str = "eval", rng=None, placement: str = "post") -> Tensor:
    """Residual block mixing information across channels."""
    x = _lift(x)
    in_dim = x.shape[-1]
    out_dim = _lift(p.out.weight).shape[0]
    if out_dim != in_dim and p.residual is None:
        raise ConfigurationError(
            f"feature_mixing maps {in_dim} -> {out_dim} channels and needs a residual projection"
        )

    def body(inp: Tensor) -> Tensor:
        u = tc.dropout(tc.relu(feature_linear(inp, p.hidden)), rate, mode, rng)
        return tc.dropout(feature_linear(u, p.out), rate, mode, rng)

    res = x if p.residual is None else feature_linear(x, p.residual)
    return _residual(x, res, body, norm, mode, placement)


@dataclass
class CondFeatureMixParams:
    """Feature mixing conditioned on static features.

    ``static_mix`` lifts the expanded static row to hidden width; absent
    when there are no static features, in which case the block reduces
    to plain feature mixing.
    """

    joint: FeatureMixParams
    joint_norm: NormParams
    static_mix: FeatureMixParams | None = None
    static_norm: NormParams | None = None


def conditional_feature_mixing(x, static, p: CondFeatureMixParams, rate: float = 0.0,
                               mode: str = "eval", rng=None, placement: str = "post") -> Tensor:
    """Feature-mix ``x`` jointly with a static row expanded along time.

    ``static`` is (batch x) 1 x static-channels; every time step receives
    the same lifted static representation.
    """
    x = _lift(x)
    if p.static_mix is None:
        return feature_mixing(x, p.joint, p.joint_norm, rate, mode, rng, placement)
    static = _lift(static)
    if static.ndim != x.ndim or static.shape[-2] != 1:
        raise DimensionError(
            f"static features must be rank-{x.ndim} with one row, got shape {static.shape}"
        )
    lifted = feature_mixing(tc.expand_rows(static, x.shape[-2]), p.static_mix,
                            p.static_norm, rate, mode, rng, placement)
    joined = tc.concat(x, lifted, axis=-1)
    return feature_mixing(joined, p.joint, p.joint_norm, rate, mode, rng, placement)


@dataclass
class MixerLayerParams:
    """Time mixing, then (conditional) feature mixing unless ``feat`` is absent."""

    time: LinearParams
    time_norm: NormParams
    feat: CondFeatureMixParams | None = None


def mixer_layer(x, p: MixerLayerParams, static=None, rate: float = 0.0, mode: str = "eval",
                rng=None, placement: str = "post") -> Tensor:
    """Time mixing followed by feature mixing conditioned on ``static``
    (time mixing only without ``feat``)."""
    h = time_mixing(x, p.time, p.time_norm, rate, mode, rng, placement)
    if p.feat is None:
        return h
    return conditional_feature_mixing(h, static, p.feat, rate, mode, rng, placement)
