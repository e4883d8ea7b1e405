"""Losses, the Adam optimizer, and the training loop.

Each loss is one tape node: its value is computed in numpy and its VJPs
are closed form.

The loop is deterministic given its seed: batch shuffling and dropout
draw from separate counter-based streams, so two runs with the same seed
produce bitwise-identical parameter trajectories and histories.  Early
stopping tracks the best validation loss (ties and sub-1e-12 wiggles do
not count as improvement), keeps a snapshot of the best parameters, and
restores them when training ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from . import tensor as tc
from .data import WindowBatch
from .errors import ConfigurationError, NumericError, ParameterError
from .models import Forecaster
from .rng import STREAM_DROPOUT, STREAM_SHUFFLE, make_rng
from .tensor import Tape, Tensor, _lift

OBJECTIVES = ("mse", "nb_nll")

# Validation improvements smaller than this are treated as ties.
IMPROVEMENT_ATOL = 1e-12

# Windows per eval-mode forward pass, bounding its memory.
EVAL_CHUNK = 256

# Adam moment decay rates and denominator floor.
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


# ---------------------------------------------------------------------------
# losses


def mse_loss(pred, target) -> Tensor:
    """Mean squared error over the broadcast operands, as one node.  Its VJP
    2 (g / n) d is bitwise the composite mean(d * d)'s: (g / n) d + (g / n) d."""
    pred, target = _lift(pred), _lift(target)
    tc._check_broadcast(pred, target, "mse_loss")
    d = pred.data - target.data
    sp, st = pred.shape, target.shape
    return tc._join(np.asarray((d * d).mean()), (
        (pred, lambda g: tc._unbroadcast(2.0 * ((g / d.size) * d), sp)),
        (target, lambda g: tc._unbroadcast(-2.0 * ((g / d.size) * d), st)),
    ))


def nb_nll_loss(mean, dispersion, counts) -> Tensor:
    """Mean negative log-likelihood of counts under a negative binomial.

    Parameterized by mean mu > 0 and dispersion alpha > 0 with variance
    mu + alpha * mu^2; alpha -> 0 recovers the Poisson limit.  ``counts``
    must be non-negative (integer-valued in the usual use).  The operands
    broadcast, and the loss is one tape node with closed-form VJPs.
    """
    mu, alpha = _lift(mean), _lift(dispersion)
    y = np.asarray(counts.data if isinstance(counts, Tensor) else counts, dtype=np.float64)
    if np.any(y < 0):
        raise ParameterError("nb_nll_loss: counts must be non-negative")
    if np.any(mu.data <= 0) or np.any(alpha.data <= 0):
        raise ParameterError("nb_nll_loss: mean and dispersion must be strictly positive")
    with np.errstate(all="ignore"):
        r = 1.0 / alpha.data  # number of failures; Poisson limit as r -> inf
        r_mu = r + mu.data
        log_sum, log_r = np.log(r_mu), np.log(r)
        ll = (_sp.gammaln(y + r) - _sp.gammaln(r) - _sp.gammaln(y + 1.0)
              + r * (log_r - log_sum) + y * (np.log(mu.data) - log_sum))
    tc._require_finite(ll, "nb_nll_loss")
    n = ll.size

    def vjp_mu(g):
        return tc._unbroadcast(g * ((r + y) / r_mu - y / mu.data) / n, mu.data.shape)

    def vjp_alpha(g):  # d(-ll)/dr times dr/dalpha = -r^2
        dr = _sp.digamma(y + r) - _sp.digamma(r) + log_r - log_sum + 1.0 - (r + y) / r_mu
        return tc._unbroadcast(g * r * r * dr / n, alpha.data.shape)

    return tc._join(np.asarray(-ll.mean()), ((mu, vjp_mu), (alpha, vjp_alpha)))


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place."""
    if set(grads) != set(params):
        raise ParameterError("adam_step: gradient names do not match parameter names")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 100
    patience: int = 5
    batch_size: int = 32
    objective: str = "mse"
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("max_epochs", "patience", "batch_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigurationError(f"{name} must be a positive integer, got {v!r}")
        if self.objective not in OBJECTIVES:
            raise ConfigurationError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = math.inf
    stop_reason: str = ""


def _loss_for(model: Forecaster, batch: WindowBatch, objective: str, mode: str,
              rng, params) -> Tensor:
    out = model.forward(batch.history, batch.future, batch.static,
                        mode=mode, rng=rng, params=params)
    if objective == "mse":
        return mse_loss(out.point, batch.target)
    return nb_nll_loss(out.mean, out.dispersion, batch.target)


def dataset_loss(model: Forecaster, windows: WindowBatch, objective: str = "mse") -> float:
    """Eval-mode loss over a whole window set, size-weighted over chunks."""
    if len(windows) == 0:
        raise ParameterError("dataset_loss: empty window set")
    total = 0.0
    for lo in range(0, len(windows), EVAL_CHUNK):
        chunk = windows.subset(slice(lo, lo + EVAL_CHUNK))
        loss = _loss_for(model, chunk, objective, "eval", None, None)
        total += loss.item() * len(chunk)
    return total / len(windows)


def _batch_slices(n: int, batch_size: int, avoid_singleton: bool) -> list[slice]:
    slices = [slice(lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]
    # A trailing single-sample batch cannot feed batch statistics; fold it
    # into its neighbor.
    if avoid_singleton and len(slices) > 1 and slices[-1].stop - slices[-1].start == 1:
        slices[-2:] = [slice(slices[-2].start, n)]
    return slices


def train(model: Forecaster, train_windows: WindowBatch, val_windows: WindowBatch,
          config: TrainConfig) -> tuple[dict[str, np.ndarray], TrainHistory]:
    """Fit ``model`` in place; returns its parameters and the epoch history.

    Aborts with a NumericError naming the epoch and batch if a training step
    fails numerically (its loss goes non-finite, or a forward or backward
    op raises), or naming the epoch if its validation pass does.
    """
    config.validate()
    if len(train_windows) == 0 or len(val_windows) == 0:
        raise ParameterError("train: empty train or validation window set")
    if config.objective == "nb_nll" and model.config.head != "negative_binomial":
        raise ConfigurationError("objective nb_nll requires a negative_binomial head")
    if config.objective == "mse" and model.config.head != "point":
        raise ConfigurationError("objective mse requires a point head")

    shuffle_rng = make_rng(config.seed, STREAM_SHUFFLE)
    dropout_rng = make_rng(config.seed, STREAM_DROPOUT)
    opt = adam_init(model.params)
    history = TrainHistory()
    best_params = {k: p.copy() for k, p in model.params.items()}
    best_buffers = {k: b.copy() for k, b in model.buffers.items()}
    bad_epochs = 0
    slices = _batch_slices(len(train_windows), config.batch_size, model.config.norm == "batch2d")

    where = ""  # the step or validation pass running, named by a NumericError
    try:
        with np.errstate(all="ignore"):  # no numpy warnings: the checks below name a failure
            for epoch in range(1, config.max_epochs + 1):
                order = shuffle_rng.permutation(len(train_windows))
                epoch_loss = 0.0
                for bi, sl in enumerate(slices):
                    where = f"at epoch {epoch}, batch {bi}"
                    batch = train_windows.subset(order[sl])
                    tape = Tape()
                    bound = model.bind(tape)
                    loss = _loss_for(model, batch, config.objective, "train", dropout_rng, bound)
                    value = loss.item()
                    if not np.isfinite(value):
                        raise NumericError("training loss went non-finite")
                    grads = tc.backward(tape, loss)
                    adam_step(model.params, {k: grads[t.nid].data for k, t in bound.items()},
                              opt, config.learning_rate)
                    epoch_loss += value * len(batch)
                epoch_loss /= len(train_windows)
                where = f"in the validation pass of epoch {epoch}"
                val_loss = dataset_loss(model, val_windows, config.objective)
                history.records.append(EpochRecord(epoch, epoch_loss, val_loss))

                if val_loss < history.best_val_loss - IMPROVEMENT_ATOL:
                    history.best_val_loss = val_loss
                    history.best_epoch = epoch
                    best_params = {k: p.copy() for k, p in model.params.items()}
                    best_buffers = {k: b.copy() for k, b in model.buffers.items()}
                    bad_epochs = 0
                else:
                    bad_epochs += 1
                    if bad_epochs >= config.patience:
                        history.stop_reason = "early_stopping"
                        break
    except NumericError as exc:
        raise NumericError(f"{exc} {where}") from None
    if not history.stop_reason:
        history.stop_reason = "max_epochs"

    # Restore the best snapshot in place so external references stay valid.
    for k, p in model.params.items():
        p[...] = best_params[k]
    for k, b in model.buffers.items():
        b[...] = best_buffers[k]
    return model.params, history
