"""Forecasting model families built from mixer blocks.

Four families share one interface:

* ``linear``      — a single temporal projection of the lookback window;
* ``tmix_only``   — stacked time-mixing blocks, then a temporal projection;
* ``tsmixer``     — stacked time + feature mixing blocks, then a temporal
                    projection;
* ``tsmixer_ext`` — covariate-aware: the lookback window is first aligned
                    onto the horizon, mixed with known-future and static
                    inputs through conditional blocks, and read out by a
                    per-step linear head (point or negative-binomial).

A ``Forecaster`` owns a flat name -> array parameter dict plus running
normalization statistics.  Each family is described once, by the layer
walk ``Forecaster._layers``: construction runs it to create the arrays,
and ``forward`` runs it to assemble layer structs from those arrays (or
from tape-bound leaves during training), so the same code path serves
inference and differentiation.

Also here: closed-form weight constructions that solve periodic and
affine-periodic signals exactly and track periodic signals under a
Lipschitz trend with bounded error, plus exact parameter counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import layers as ly
from . import tensor as tc
from .errors import ConfigurationError, DimensionError, ParameterError
from .rng import STREAM_INIT, make_rng
from .tensor import Tape, Tensor

FAMILIES = ("linear", "tmix_only", "tsmixer", "tsmixer_ext")
HEADS = ("point", "negative_binomial")

# Strictly positive floor added to softplus outputs of the distribution head.
HEAD_FLOOR = 1e-6


@dataclass
class ModelConfig:
    """Architecture description; every field is plain data."""

    family: str
    lookback: int
    horizon: int
    targets: int
    hist_covariates: int = 0
    future_covariates: int = 0
    static_features: int = 0
    hidden: int = 8
    blocks: int = 1
    dropout: float = 0.0
    norm: str = "batch2d"
    norm_placement: str = ""  # "" = family default
    batch_stats: str = "joint"
    head: str = "point"
    rev_in: bool = False

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigurationError(f"family must be one of {FAMILIES}, got {self.family!r}")
        for name in ("lookback", "horizon", "targets", "hidden", "blocks"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigurationError(f"{name} must be a positive integer, got {v!r}")
        for name in ("hist_covariates", "future_covariates", "static_features"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ConfigurationError(f"{name} must be a non-negative integer, got {v!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.norm not in ly.NORM_KINDS:
            raise ConfigurationError(f"norm must be one of {ly.NORM_KINDS}, got {self.norm!r}")
        if self.norm_placement not in ("", "pre", "post"):
            raise ConfigurationError(
                f"norm_placement must be '', 'pre' or 'post', got {self.norm_placement!r}"
            )
        if self.batch_stats not in ("joint", "per_feature"):
            raise ConfigurationError(
                f"batch_stats must be 'joint' or 'per_feature', got {self.batch_stats!r}"
            )
        if self.head not in HEADS:
            raise ConfigurationError(f"head must be one of {HEADS}, got {self.head!r}")
        has_covariates = self.hist_covariates or self.future_covariates or self.static_features
        if has_covariates and self.family != "tsmixer_ext":
            raise ConfigurationError(
                f"family {self.family!r} takes targets only; covariates need family 'tsmixer_ext'"
            )
        if self.head == "negative_binomial":
            if self.family != "tsmixer_ext":
                raise ConfigurationError("head 'negative_binomial' requires family 'tsmixer_ext'")
            if self.rev_in:
                raise ConfigurationError(
                    "rev_in shifts the output scale and cannot guarantee the strictly positive "
                    "parameters a negative-binomial head requires"
                )

    @property
    def placement(self) -> str:
        """Norm placement: residual-sum norm for the covariate-aware family,
        input norm for the long-horizon families."""
        if self.norm_placement:
            return self.norm_placement
        return "post" if self.family == "tsmixer_ext" else "pre"

    @property
    def input_channels(self) -> int:
        return self.targets + self.hist_covariates


@dataclass
class ForecastOutput:
    """Point forecast, or distribution parameters for the sampling head."""

    point: Tensor | None = None
    mean: Tensor | None = None
    dispersion: Tensor | None = None


def forward_linear(history, weight, bias) -> Tensor:
    """One temporal projection: forecast = weight @ window (+ bias per step)."""
    return ly.temporal_projection(history, ly.LinearParams(weight, bias))


# ---------------------------------------------------------------------------
# closed-form solutions


def construct_periodic_solution(period: int, lookback: int, horizon: int,
                                scale: float = 1.0, offset: float = 0.0):
    """Weights that forecast x(t) = scale * x(t - period) + offset exactly.

    Each horizon row is one-hot on the lookback position exactly one
    period behind it (within the final period of the window), times
    ``scale``; the bias carries ``offset``.  With scale=1, offset=0 this
    solves purely periodic signals.
    """
    if period < 1:
        raise ParameterError(f"period must be >= 1, got {period}")
    if lookback <= period:
        raise ParameterError(f"lookback must exceed the period, got {lookback} <= {period}")
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    weight = np.zeros((horizon, lookback))
    for row in range(horizon):
        step = row + 1  # 1-based horizon position
        # Most recent lag congruent to the step: period steps back maps to the
        # final window position, not one further period behind it.  For pure
        # periodic signals any congruent lag works; the affine recursion is
        # only exact one application deep, so the minimal lag is required.
        col = lookback - period + ((step - 1) % period) + 1  # 1-based position
        weight[row, col - 1] = scale
    bias = np.full(horizon, float(offset))
    return weight, bias


def construct_periodic_plus_trend_solution(period: int, lookback: int, horizon: int):
    """Weights that track a periodic signal riding on a slowly moving trend.

    Reads the final ``period + 1`` lookback positions w[0..period] (w[period]
    being the most recent observation) and forecasts horizon step i as

        w[i mod period] - w[0] + w[period]

    i.e. the periodic shape one period back, re-anchored at the latest
    trend level.  For a signal g(t) + f(t) with g period-periodic and
    |f(t+1) - f(t)| <= K, the error at horizon step i is bounded by
    K * (i + min(i, period)).  Contributions landing on the same
    position add, so step multiples of the period reduce to the pure
    trend-carry forecast w[period].
    """
    if period < 1:
        raise ParameterError(f"period must be >= 1, got {period}")
    if lookback < period + 1:
        raise ParameterError(
            f"lookback must cover period + 1 observations, got {lookback} < {period + 1}"
        )
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    weight = np.zeros((horizon, lookback))
    base = lookback - (period + 1)  # window offset of w[0]
    for row in range(horizon):
        step = row + 1
        weight[row, base + period] += 1.0
        weight[row, base + (step % period)] += 1.0
        weight[row, base] -= 1.0
    bias = np.zeros(horizon)
    return weight, bias


# ---------------------------------------------------------------------------
# the forecaster


class _Shapes:
    """The initializers of ``layers``, returning the shapes they would
    allocate instead of arrays."""

    linear_init = staticmethod(lambda out_dim, in_dim, rng: ((out_dim, in_dim), (out_dim,)))
    norm_affine_init = staticmethod(lambda rows, cols: ((rows, cols),) * 2)
    norm_stats_init = staticmethod(lambda cols, per_feature: (((cols,) if per_feature else ()),) * 2)


class Forecaster:
    """A configured model family with its learnable state.

    ``params`` maps dotted names to float64 arrays; ``buffers`` holds the
    non-learnable running statistics of batch normalizers.  ``forward``
    accepts an optional name -> Tensor dict so training can substitute
    tape-bound leaves; otherwise the stored arrays are used as constants.
    Input arrays are always consumed as constants.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        config.validate()
        self.config = config
        self.params: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self._layers(self.params, make_rng(seed, STREAM_INIT))

    # -- the architecture --------------------------------------------------

    @classmethod
    def shapes(cls, config: ModelConfig) -> tuple[dict[str, tuple], dict[str, tuple]]:
        """The parameter and buffer shapes of ``config`` by name, in walk
        order, allocating none of them."""
        config.validate()
        model = cls.__new__(cls)
        model.config, model.buffers = config, {}
        params: dict[str, tuple] = {}
        model._layers(params, init=_Shapes)
        return params, model.buffers

    def _layers(self, P: dict, rng=None, init=ly) -> dict:
        """The layer structs of this configuration, read from ``P`` by name.

        A parameter missing from ``P`` (or a running statistic missing from
        ``buffers``) is created on the spot by ``init``'s initializers,
        drawing from ``rng``.  Only construction (and ``shapes``) meets
        missing names, so this walk order is the initialization order and
        the parameter order.  ``linear`` is the mixer stack with no blocks.
        """
        cfg = self.config
        L, T, C, H = cfg.lookback, cfg.horizon, cfg.targets, cfg.hidden
        per_feature = cfg.batch_stats == "per_feature"

        def linear(name: str, out_dim: int, in_dim: int) -> ly.LinearParams:
            if f"{name}.weight" not in P:
                P[f"{name}.weight"], P[f"{name}.bias"] = init.linear_init(out_dim, in_dim, rng)
            return ly.LinearParams(P[f"{name}.weight"], P[f"{name}.bias"])

        def norm(name: str, rows: int, cols: int) -> ly.NormParams:
            if f"{name}.scale" not in P:
                P[f"{name}.scale"], P[f"{name}.shift"] = init.norm_affine_init(rows, cols)
            if cfg.norm == "batch2d" and f"{name}.mean" not in self.buffers:
                self.buffers[f"{name}.mean"], self.buffers[f"{name}.var"] = (
                    init.norm_stats_init(cols, per_feature))
            return ly.NormParams(cfg.norm, P[f"{name}.scale"], P[f"{name}.shift"],
                                 running_mean=self.buffers.get(f"{name}.mean"),
                                 running_var=self.buffers.get(f"{name}.var"),
                                 per_feature=per_feature)

        def fm(name: str, in_dim: int, out_dim: int) -> ly.FeatureMixParams:
            return ly.FeatureMixParams(
                hidden=linear(f"{name}.hidden", H, in_dim),
                out=linear(f"{name}.out", out_dim, H),
                residual=linear(f"{name}.residual", out_dim, in_dim) if out_dim != in_dim else None,
            )

        def cfm(name: str, in_dim: int) -> ly.CondFeatureMixParams:
            # Pre placement normalizes a block's input, post its H-wide output.
            pre = cfg.placement == "pre"
            static_mix = static_norm = None
            if cfg.static_features:
                static_mix = fm(f"{name}.static", cfg.static_features, H)
                static_norm = norm(f"{name}.static_norm", T, cfg.static_features if pre else H)
                in_dim += H
            joint = fm(f"{name}.joint", in_dim, H)
            joint_norm = norm(f"{name}.joint_norm", T, in_dim if pre else H)
            return ly.CondFeatureMixParams(joint=joint, joint_norm=joint_norm,
                                           static_mix=static_mix, static_norm=static_norm)

        if cfg.family != "tsmixer_ext":
            feat = cfg.family == "tsmixer"
            blocks = [] if cfg.family == "linear" else [
                ly.MixerLayerParams(
                    time=linear(f"block{k}.time", L, L),
                    time_norm=norm(f"block{k}.time_norm", L, C),
                    feat=ly.CondFeatureMixParams(fm(f"block{k}.feat", C, C),
                                                 norm(f"block{k}.feat_norm", L, C)) if feat else None,
                )
                for k in range(cfg.blocks)]
            return {"blocks": blocks, "proj": linear("proj", T, L)}

        widths = [2 * H if cfg.future_covariates else H] + [H] * (cfg.blocks - 1)
        return {  # evaluated in order, so this is also the tsmixer_ext walk order
            "align_time": linear("align_time", T, L),
            "hist": cfm("hist", cfg.input_channels),
            "future": cfm("future", cfg.future_covariates) if cfg.future_covariates else None,
            "blocks": [ly.MixerLayerParams(time=linear(f"block{k}.time", T, T),
                                           time_norm=norm(f"block{k}.time_norm", T, width),
                                           feat=cfm(f"block{k}.cfm", width))
                       for k, width in enumerate(widths)],
            "head": linear("head", C, H),
            "dispersion": linear("dispersion", C, H) if cfg.head == "negative_binomial" else None,
        }

    # -- assembly ----------------------------------------------------------

    def bind(self, tape: Tape) -> dict[str, Tensor]:
        """Bind every learnable array as a leaf of ``tape``."""
        return {name: tape.leaf(arr) for name, arr in self.params.items()}

    def _tensors(self, params) -> dict[str, Tensor]:
        if params is None:
            return {name: Tensor(arr) for name, arr in self.params.items()}
        missing = set(self.params) - set(params)
        if missing:
            raise ConfigurationError(f"forward: missing parameters {sorted(missing)[:3]}...")
        return params

    # -- forward -----------------------------------------------------------

    def _check_inputs(self, history, future, static):
        cfg = self.config
        hist = np.asarray(history.data if isinstance(history, Tensor) else history, dtype=np.float64)
        if hist.ndim != 3 or hist.shape[1] != cfg.lookback or hist.shape[2] != cfg.input_channels:
            raise DimensionError(
                f"history must be batch x {cfg.lookback} x {cfg.input_channels}, got {hist.shape}"
            )
        checked = [hist]
        for x, what, rows, cols in ((future, "future covariates", cfg.horizon, cfg.future_covariates),
                                    (static, "static features", 1, cfg.static_features)):
            arr = None
            if cols:
                if x is None:
                    raise DimensionError(f"this configuration requires {what}")
                arr = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
                if arr.shape != (hist.shape[0], rows, cols):
                    raise DimensionError(
                        f"{what} must be {hist.shape[0]} x {rows} x {cols}, got {arr.shape}")
            checked.append(arr)
        return checked

    def forward(self, history, future=None, static=None, *, mode: str = "eval",
                rng=None, params: dict[str, Tensor] | None = None) -> ForecastOutput:
        cfg = self.config
        if mode not in ("train", "eval"):
            raise ParameterError(f"forward: mode must be 'train' or 'eval', got {mode!r}")
        hist, fut, stat = self._check_inputs(history, future, static)
        P = self._tensors(params)
        rate, placement = cfg.dropout, cfg.placement

        rev_state = None
        if cfg.rev_in:
            h, rev_state = ly.rev_in_normalize(hist[:, :, : cfg.targets])
            if cfg.hist_covariates:
                h = tc.concat(h, Tensor(hist[:, :, cfg.targets:]), axis=-1)
        else:
            h = Tensor(hist)

        layers = self._layers(P)
        s = Tensor(stat) if stat is not None else None
        ext = cfg.family == "tsmixer_ext"
        if ext:  # stem: align the lookback onto the horizon, mix in the covariates
            aligned = ly.temporal_projection(h, layers["align_time"])
            h = ly.conditional_feature_mixing(aligned, s, layers["hist"],
                                              rate, mode, rng, placement)
            if layers["future"] is not None:
                z = ly.conditional_feature_mixing(Tensor(fut), s, layers["future"],
                                                  rate, mode, rng, placement)
                h = tc.concat(h, z, axis=-1)
        for block in layers["blocks"]:
            h = ly.mixer_layer(h, block, s, rate, mode, rng, placement)
        if not ext:
            out = ly.temporal_projection(h, layers["proj"])
        elif layers["dispersion"] is not None:
            mean = tc.add(tc.softplus(ly.feature_linear(h, layers["head"])), HEAD_FLOOR)
            disp = tc.add(tc.softplus(ly.feature_linear(h, layers["dispersion"])), HEAD_FLOOR)
            return ForecastOutput(mean=mean, dispersion=disp)
        else:
            out = ly.feature_linear(h, layers["head"])

        if rev_state is not None:
            out = ly.rev_in_denormalize(out, rev_state)
        return ForecastOutput(point=out)


# ---------------------------------------------------------------------------
# bookkeeping


def param_count(config: ModelConfig, include_norm_affine: bool = True) -> int:
    """Exact number of learnable scalars of a model built from ``config``.

    Norm affine parameters (scale/shift per normalized cell) can be
    excluded to expose the additive lookback/channel growth of the
    mixing weights themselves.
    """
    return sum(math.prod(shape) for name, shape in Forecaster.shapes(config)[0].items()
               if include_norm_affine or not name.endswith((".scale", ".shift")))
