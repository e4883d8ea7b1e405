"""Losses, the Adam optimizer, and the training loop.

Each loss is one tape node: its value is computed in numpy and its VJPs
are closed form.  The negative binomial's log-gamma is a series evaluated
here, and its dispersion gradient one cancellation-free series with no
digamma, so training needs numpy alone.

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

from . import tensor as tc
from .data import WindowBatch
from .errors import ConfigurationError, NumericError, ParameterError
from .models import Forecaster
from .rng import STREAM_DROPOUT, STREAM_SHUFFLE, make_rng
from .tensor import Tape, Tensor, _lift

OBJECTIVES = ("mse", "nb_nll")

# Validation improvements smaller than this are treated as ties.
IMPROVEMENT_ATOL = 1e-12

# Windows per eval-mode forward pass, bounding its memory: at most
# EVAL_CHUNK, and no more than fit one chunk's widest activation into EVAL_BYTES.
EVAL_CHUNK = 256
EVAL_BYTES = 8 << 20

# Adam moment decay rates and denominator floor.
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


# ---------------------------------------------------------------------------
# losses


def mse_loss(pred, target) -> Tensor:
    """Mean squared error over the broadcast operands, as one node.  Its VJP
    2 (g / n) d is bitwise the composite mean(d * d)'s: (g / n) d + (g / n) d."""
    pred, target = _lift(pred), _lift(target)
    shape = tc._check_broadcast(pred, target, "mse_loss")
    d = np.subtract(pred.data, target.data, out=tc._empty(shape))
    sp, st = pred.shape, target.shape

    def vjp_pred(g):
        out = np.multiply(g / d.size, d, out=tc._empty(shape))
        out *= 2.0
        return tc._unbroadcast(out, sp)

    return tc._join(np.asarray(np.multiply(d, d, out=tc._empty(shape)).mean()), (
        (pred, vjp_pred),
        (target, lambda g: tc._unbroadcast(-2.0 * ((g / d.size) * d), st)),
    ))


def nb_nll_loss(mean, dispersion, counts) -> Tensor:
    """Mean negative log-likelihood of counts under a negative binomial.

    Parameterized by mean mu > 0 and dispersion alpha > 0 with variance
    mu + alpha * mu^2; alpha -> 0 recovers the Poisson limit.  ``counts``
    must be finite and non-negative (integer-valued in the usual use).  The
    operands broadcast, and the loss is one tape node with closed-form VJPs.
    """
    mu, alpha = _lift(mean), _lift(dispersion)
    y = np.asarray(counts.data if isinstance(counts, Tensor) else counts, dtype=np.float64)
    if not np.all((y >= 0.0) & (y < np.inf)):  # NaN fails both
        raise ParameterError("nb_nll_loss: counts must be finite and non-negative")
    if np.any(mu.data <= 0) or np.any(alpha.data <= 0):
        raise ParameterError("nb_nll_loss: mean and dispersion must be strictly positive")
    with np.errstate(all="ignore"):
        r = 1.0 / alpha.data  # number of failures; Poisson limit as r -> inf
        r_mu = r + mu.data
        log_sum, log_r = np.log(r_mu), np.log(r)
        ll = (_log_gamma(y + r) - _log_gamma(r) - _log_gamma(y + 1.0)
              + r * (log_r - log_sum) + y * (np.log(mu.data) - log_sum))
    tc._require_finite(ll, "nb_nll_loss")
    n = ll.size

    def vjp_mu(g):
        return tc._unbroadcast(g * ((r + y) / r_mu - y / mu.data) / n, mu.data.shape)

    def vjp_alpha(g):  # d(-ll)/dr times dr/dalpha = -r^2
        b = _nb_bracket(r, y, mu.data)
        # r * b -> 1 as r -> 0, while r * r loses digits from r = 1.5e-154 down.
        return tc._unbroadcast(np.where(r < 1e-100, g * r * (r * b), g * r * r * b) / n,
                               alpha.data.shape)

    return tc._join(np.asarray(-ll.mean()), ((mu, vjp_mu), (alpha, vjp_alpha)))


def _nb_bracket(r, y, mu):
    """psi(y+r) - psi(r) + log r - log(r+mu) + 1 - (r+y)/(r+mu) on broadcast
    operands, free of the cancellation of that expression (about 1e-14 relative).

    It is [phi(a+y) - phi(a)] + [log1p(t) - t], with phi(x) = psi(x) - log x,
    t = (y-mu)/(r+mu) and a = r from r = 10 up.  phi is its asymptotic series
    sum_n -c_n x^-n (``PHI_COEFS``), differenced term by term in closed form:
    u^n - v^n = y u v sum_{j<n} u^(n-1-j) v^j, with u = 1/a and v = 1/(a+y).
    Below r = 10, a = r + 10, and digamma's ten recurrence steps add
    y sum_{k<10} 1/((r+k)(r+k+y)) + log1p(y/a) - log1p(y/r).
    log1p(t) - t is its Taylor series where |t| < 0.1.
    """
    below = r < 10.0
    a = np.where(below, r + 10.0, r)
    u, v = 1.0 / a, 1.0 / (a + y)
    s = v_pow = np.ones_like(v)  # sum_{j<n} u^(n-1-j) v^j and v^(n-1), from n = 1
    phi_diff = PHI_COEFS[0] * s
    for c in PHI_COEFS[1:]:
        v_pow = v_pow * v
        s = u * s + v_pow
        phi_diff += c * s
    # The steps at r < 10 and y > 0 only: p = inf zeroes them elsewhere, where
    # r may be tiny and y = 0.  Smallest term first.
    p = np.where(below & (y > 0.0), r, np.inf)
    steps = sum(1.0 / ((p + k) * (p + k + y)) for k in range(9, -1, -1))
    with np.errstate(over="ignore"):  # from alpha y = 1.8e308 on, where log1p(y/r) = log(y/r)
        y_r = y / r
    log1p_y_r = np.where(y_r < np.inf, np.log1p(y_r), np.log(y + r) - np.log(r))
    shift = y * steps + (np.log1p(y / a) - log1p_y_r)
    t = (y - mu) / (r + mu)
    # asarray: a 0-d tail is written below.  log1p(t) would round 1 + t to 0 once mu >> r.
    tail = np.asarray(np.log((r + y) / (r + mu)) - t)
    small = np.abs(t) < 0.1
    ts, series = t[small], 0.0
    for k in range(17, 1, -1):  # log1p(t) - t = -t^2 sum_{k>=2} (-t)^(k-2) / k
        series = series * -ts + 1.0 / k
    tail[small] = -ts * ts * series
    return y * u * v * phi_diff + shift + tail


# phi(x) = psi(x) - log x has the asymptotic series -sum_n c_n x^-n, n = 1..14
# (Bernoulli numbers through B_14); Stirling's series for log Gamma has the
# coefficients c_2k / (2k - 1).  Both are used at x >= 10.
PHI_COEFS = (1 / 2, 1 / 12, 0.0, -1 / 120, 0.0, 1 / 252, 0.0, -1 / 240, 0.0, 1 / 132,
             0.0, -691 / 32760, 0.0, 1 / 12)
STIRLING_COEFS = PHI_COEFS[1::2] / np.arange(1.0, 14.0, 2.0)
HALF_LOG_2PI_LESS_HALF = 0.5 * math.log(2.0 * math.pi) - 0.5


def _log_gamma(x):
    """log Gamma(x) for x > 0: Stirling's series at z = x + 10 less the log of
    the product x (x + 1) ... (x + 9) below 10, and at z = x above."""
    below = x < 10.0
    z, p = np.where(below, x + 10.0, x), np.minimum(x, 10.0)  # p: unused products stay finite
    prod = p.copy()
    for k in range(1, 10):
        prod *= p + k
    w = 1.0 / z
    w2, s = w * w, 0.0
    for c in STIRLING_COEFS[::-1]:
        s = s * w2 + c
    # The two large terms first: where log Gamma is small they nearly cancel, and
    # their difference is exact.  (z - 1/2)(log z - 1) rounds less than (z - 1/2) log z - z.
    return ((z - 0.5) * (np.log(z) - 1.0) - np.where(below, np.log(prod), 0.0)
            + (HALF_LOG_2PI_LESS_HALF + w * s))


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
        g, m, v = grads[name], state.m[name], state.v[name]
        # Two scratch arrays per parameter, each op in the order of
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) with m and v updated first.
        a = np.multiply(1.0 - BETA1, g, out=tc._empty(g.shape))
        m *= BETA1
        m += a
        np.multiply(1.0 - BETA2, g, out=a)
        a *= g
        v *= BETA2
        v += a
        np.divide(m, bc1, out=a)
        np.multiply(lr, a, out=a)
        b = np.divide(v, bc2, out=tc._empty(v.shape))
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        p -= a


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


def _loss_for(model: Forecaster, batch: WindowBatch, mode: str, rng, params) -> Tensor:
    """MSE on a point forecast, the negative binomial's NLL on mean and dispersion."""
    out = model.forward(batch.history, batch.future, batch.static,
                        mode=mode, rng=rng, params=params)
    if out.point is not None:
        return mse_loss(out.point, batch.target)
    return nb_nll_loss(out.mean, out.dispersion, batch.target)


def dataset_loss(model: Forecaster, windows: WindowBatch) -> float:
    """Eval-mode loss over a whole window set, size-weighted over chunks."""
    if len(windows) == 0:
        raise ParameterError("dataset_loss: empty window set")
    total = 0.0
    for _, chunk in eval_chunks(windows, model.config.activation_width):
        loss = _loss_for(model, chunk, "eval", None, None)
        total += loss.item() * len(chunk)
    return total / len(windows)


def eval_chunks(windows: WindowBatch, width: int):
    """``(rows, windows.subset(rows))`` for consecutive slices ``rows`` that
    cover ``windows``, each small enough for one eval-mode forward pass: its
    widest activation, lookback x max(history channels, ``width``) per window
    (``ModelConfig.activation_width``), fits in ``EVAL_BYTES``."""
    step = _eval_rows(windows, width)
    for lo in range(0, len(windows), step):
        rows = slice(lo, lo + step)
        yield rows, windows.subset(rows)


def _eval_rows(windows: WindowBatch, width: int) -> int:
    """Windows per chunk of ``eval_chunks``."""
    lookback, channels = windows.history.shape[1:]
    return min(EVAL_CHUNK, max(1, EVAL_BYTES // (8 * lookback * max(channels, width))))


def _batch_slices(n: int, batch_size: int, avoid_singleton: bool) -> list[slice]:
    slices = [slice(lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]
    # A trailing single-sample batch cannot feed batch statistics; fold it
    # into its neighbor.
    if avoid_singleton and len(slices) > 1 and slices[-1].stop - slices[-1].start == 1:
        slices[-2:] = [slice(slices[-2].start, n)]
    return slices


def _step(model: Forecaster, batch: WindowBatch, config: TrainConfig, rng,
          opt: AdamState, ws: tc.Workspace) -> float:
    """One Adam step on ``batch``; returns its loss.  The tape, its leaves and
    the gradients are locals here, so they are freed when the step returns,
    before the next step's forward or the validation pass.  The workspace
    ``ws`` grows during the forward only."""
    tape = Tape()
    bound = model.bind(tape)
    ws.grow = True
    loss = _loss_for(model, batch, "train", rng, bound)
    ws.grow = False
    value = loss.item()
    if not np.isfinite(value):
        raise NumericError("training loss went non-finite")
    grads = tc.backward(tape, loss)
    # The leaves view the parameters, which adam_step changes: backward has
    # consumed the tape by now, so nothing reads them again.
    adam_step(model.params, {k: grads[t.nid].data for k, t in bound.items()},
              opt, config.learning_rate)
    return value


def train(model: Forecaster, train_windows: WindowBatch, val_windows: WindowBatch,
          config: TrainConfig) -> tuple[dict[str, np.ndarray], TrainHistory]:
    """Fit ``model`` in place; returns its parameters and the epoch history.

    Aborts with a NumericError naming the epoch and batch if a training step
    fails numerically (its loss goes non-finite, or a forward or backward
    op raises), or naming the epoch if its validation pass does.
    A model with batch2d norms and a batch of one window is refused before
    the first step.
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
    bad_epochs = 0
    width = model.config.activation_width
    slices = _batch_slices(len(train_windows), config.batch_size, model.config.norm == "batch2d")
    if model.buffers and min(sl.stop - sl.start for sl in slices) < 2:  # batch2d norms
        need = "batch2d norms need training batches of >= 2 windows, but"
        if len(train_windows) == 1:  # no batch_size helps
            lo = int(train_windows.starts[0])
            hi = lo + model.config.lookback + model.config.horizon
            raise ConfigurationError(
                f"{need} the training split holds a single window, rows [{lo}, {hi}); use more "
                "rows, a smaller window.stride or norm = layer")
        raise ConfigurationError(
            f"{need} batch_size = {config.batch_size} over {len(train_windows)} training "
            "windows leaves a batch of 1; raise batch_size or set norm = layer")

    # The best epoch's parameters and buffers, copied into these arrays.
    best_params = {k: np.empty_like(p) for k, p in model.params.items()}
    best_buffers = {k: np.empty_like(b) for k, b in model.buffers.items()}
    where = ""  # the step or validation pass running, named by a NumericError
    try:
        # No numpy warnings: the checks below name a failure.  The step's
        # full-size arrays come from the workspace, which ends with the loop.
        with np.errstate(all="ignore"), tc.workspace() as ws:
            for epoch in range(1, config.max_epochs + 1):
                order = shuffle_rng.permutation(len(train_windows))
                epoch_loss = 0.0
                for bi, sl in enumerate(slices):
                    where = f"at epoch {epoch}, batch {bi}"
                    rows = order[sl]
                    epoch_loss += _step(model, train_windows.subset(rows), config,
                                        dropout_rng, opt, ws) * len(rows)
                epoch_loss /= len(train_windows)
                where = f"in the validation pass of epoch {epoch}"
                if min(_eval_rows(val_windows, width), len(val_windows)) > config.batch_size:
                    ws.bufs.clear()  # too small for chunks larger than the batches
                val_loss = dataset_loss(model, val_windows)
                if not math.isfinite(val_loss):
                    raise NumericError("loss went non-finite")
                history.records.append(EpochRecord(epoch, epoch_loss, val_loss))

                if val_loss < history.best_val_loss - IMPROVEMENT_ATOL:  # always at epoch 1
                    history.best_val_loss = val_loss
                    history.best_epoch = epoch
                    for k, p in model.params.items():
                        np.copyto(best_params[k], p)
                    for k, b in model.buffers.items():
                        np.copyto(best_buffers[k], b)
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
