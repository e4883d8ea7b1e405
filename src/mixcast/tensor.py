"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are immutable numpy arrays of rank 0..3.  Differentiation is
define-by-run: a Tape records one node per operation whose inputs are
bound to it, each node holding (parent id, vector-Jacobian product)
closures.  ``backward`` walks the records in reverse order from a scalar
loss, accumulating adjoints additively, and returns a gradient per leaf.
It consumes the tape: each node's closures, and with them the operands
they hold, are dropped as the walk passes the node, and so is each
non-leaf adjoint once that node's VJPs have read it.  The forward's
intermediates are freed during the pass, a training step peaks by the end
of its forward, and no reference cycle outlives the walk.  A second
``backward`` on the same tape raises ``ContractError``.  Each VJP closure
holds only what it reads; ``relu`` and ``dropout`` hold a bool mask.

Operations are free functions.  They accept Tensors, numpy arrays, or
Python scalars; non-Tensor inputs are lifted to constants, copied unless
nothing can write to them (see ``Tensor``).  When no
input is bound to a tape the result is a plain constant and nothing is
recorded, so the same code path serves both inference and training.
``matmul`` is the one function here that takes and returns arrays: the
untaped product ``linear`` computes through, and never a node.

``linear`` records a whole linear map (``w`` along the rows or columns,
plus a bias) and ``standardize`` a whole 2-D norm with its affine, each as
one node; there is no ``sub`` or ``div``.  The time-axis product of
``linear`` is one GEMM over every column of the batch; without a tape it is
the broadcast product, which reads the input in place where the GEMM layout
would copy it, unless the input is narrow and the map tall (``NARROW_COLS``).
Without a tape, each op writes its epilogue (bias, affine) into the buffer
it just allocated.

Every op is numpy alone: ``softplus``'s gradient computes the logistic
itself.

``grad_check`` compares tape gradients against central finite
differences and is the ground truth the rest of the package is tested
against.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    NumericError,
    ParameterError,
    RankError,
)

MAX_RANK = 3

# An untaped time-axis ``linear`` on at most this many columns, with more than
# this many output rows, uses the one-GEMM column layout: there one GEMM per
# sample is too narrow to be fast, and the map is tall enough to pay for the
# copy.  Measured at lookbacks 24 to 512 and 12 to 321 columns, 1 BLAS thread.
NARROW_COLS = 32


class Tensor:
    """Immutable float64 array, optionally bound to a Tape node.

    ``data`` is always read-only.  Building a Tensor from external data
    copies it, so callers can never mutate a value after the fact; only a
    float64 ndarray read-only down its whole ``.base`` chain is shared.
    """

    __slots__ = ("data", "tape", "nid")

    def __init__(self, data):
        self._set(data if _frozen(data) else np.array(data, dtype=np.float64), None, None)

    @classmethod
    def _wrap(cls, arr: np.ndarray, tape: "Tape | None" = None, nid: int | None = None) -> "Tensor":
        # Internal fast path: trusts ``arr`` (freshly computed), no copy.
        # asarray (not ascontiguousarray) because the latter promotes 0-d
        # arrays to rank 1.
        t = object.__new__(cls)
        t._set(np.asarray(arr, dtype=np.float64), tape, nid)
        return t

    def _set(self, arr: np.ndarray, tape: "Tape | None", nid: int | None) -> None:
        if arr.ndim > MAX_RANK:
            raise RankError(f"rank {arr.ndim} exceeds the supported maximum of {MAX_RANK}")
        arr.setflags(write=False)
        self.data, self.tape, self.nid = arr, tape, nid

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        bound = f", tape node {self.nid}" if self.tape is not None else ""
        return f"Tensor(shape={self.shape}{bound})\n{self.data}"


# The link ``as_strided`` (so ``sliding_window_view``) puts between a view and its source.
_STRIDED_LINK = type(np.lib.stride_tricks.as_strided(np.zeros(1)).base)


def _frozen(x) -> bool:
    """True when ``x`` is a float64 ndarray that nothing can write through:
    every array down its ``.base`` chain is read-only, and the chain ends
    in an array, not in a foreign buffer."""
    if type(x) is not np.ndarray or x.dtype != np.float64:
        return False
    while type(x) is _STRIDED_LINK or (type(x) is np.ndarray and not x.flags.writeable):
        x = x.base
    return x is None


class Tape:
    """Append-only trace of operations for one differentiation pass."""

    __slots__ = ("_parents", "_leaves")

    def __init__(self):
        # _parents[nid] is a tuple of (parent nid, vjp closure) pairs, or
        # None once ``backward`` has used it.
        self._parents: list[tuple[tuple[int, Callable], ...] | None] = []
        # leaf nid -> shape, used to zero-fill gradients of unused leaves.
        self._leaves: dict[int, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._parents)

    def _push(self, parents: tuple[tuple[int, Callable], ...]) -> int:
        self._parents.append(parents)
        return len(self._parents) - 1

    def leaf(self, value) -> Tensor:
        """Bind ``value`` as a watched input; its gradient will be reported."""
        t = value if isinstance(value, Tensor) else Tensor(value)
        nid = self._push(())
        self._leaves[nid] = t.data.shape
        return Tensor._wrap(t.data, self, nid)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _join(out: np.ndarray, entries: Sequence[tuple[Tensor, Callable]]) -> Tensor:
    """Record a node if any input is tape-bound; otherwise return a constant."""
    tape = None
    for t, _ in entries:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ContractError("operation mixes tensors bound to different tapes")
    if tape is None:
        return Tensor._wrap(out)
    parents = tuple((t.nid, vjp) for t, vjp in entries if t.tape is not None)
    return Tensor._wrap(out, tape, tape._push(parents))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, (ge, se) in enumerate(zip(g.shape, shape)):
        if se == 1 and ge != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> tuple[int, ...]:
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def _require_finite(arr: np.ndarray, op: str) -> None:
    # min and max propagate NaN and allocate nothing, unlike isfinite(arr).
    if not (arr.size == 0 or (math.isfinite(arr.min()) and math.isfinite(arr.max()))):
        raise NumericError(f"{op} produced non-finite values")


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    """Elementwise sum with numpy-style broadcasting."""
    a, b = _lift(a), _lift(b)
    _check_broadcast(a, b, "add")
    sa, sb = a.shape, b.shape  # shapes, so the VJPs keep neither operand alive
    return _join(a.data + b.data, (
        (a, lambda g: _unbroadcast(g, sa)),
        (b, lambda g: _unbroadcast(g, sb)),
    ))


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_broadcast(a, b, "mul")
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape  # each VJP holds only the operand it reads
    return _join(ad * bd, (
        (a, lambda g: _unbroadcast(g * bd, sa)),
        (b, lambda g: _unbroadcast(g * ad, sb)),
    ))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` on float64 arrays, recording nothing.  Every product of
    ``linear`` runs through this one module-global name, so a profiler that
    wraps it (``bench/spans.py``) counts each GEMM and its flop."""
    return a @ b


def linear(x, w, b, time_axis: bool) -> Tensor:
    """``w`` (O x I) applied along the rows of ``x`` (``time_axis``) or along
    its columns, plus ``b`` (O,), as one node with closed-form VJPs.  The
    bias is added into the product's own output.

    The time-axis product is one (O x I) @ (I x batch*cols) GEMM over every
    column of the batch, forward and backward, instead of one GEMM per sample
    plus a per-sample weight gradient that is summed away; ``x`` is copied
    once into that column layout, which the weight gradient needs too.
    Without a tape it is the plain broadcast product instead, which reads
    ``x`` in place, except when ``x`` has at most ``NARROW_COLS`` columns and
    ``w`` more than ``NARROW_COLS`` rows.
    """
    x, w, b = _lift(x), _lift(w), _lift(b)
    if w.ndim != 2 or b.shape != w.shape[:1]:
        raise DimensionError(f"linear: weight {w.shape} and bias {b.shape} are not a linear map")
    if x.ndim < 2 or x.shape[-2 if time_axis else -1] != w.shape[1]:
        along = "rows" if time_axis else "columns"
        raise DimensionError(f"linear: weight {w.shape} cannot map the {along} of shape {x.shape}")
    if not time_axis:
        out = matmul(x.data, w.data.T)
        out += b.data
        return _join(out, (
            (x, lambda g: g @ w.data),
            (w, lambda g: _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.shape[::-1]).T),
            (b, lambda g: _unbroadcast(g, b.data.shape)),
        ))
    narrow_and_tall = x.shape[-1] <= NARROW_COLS < w.shape[0]
    if x.tape is None and w.tape is None and b.tape is None and not narrow_and_tall:
        out = matmul(w.data, x.data)
        out += b.data[:, None]
        return Tensor._wrap(out)
    # At rank <= 3, swapaxes(0, -2) is moveaxis(-2, 0) and its inverse, at less cost.
    O, I = w.shape
    cols = x.data.swapaxes(0, -2).reshape(I, -1)
    others = x.shape[:-2] + x.shape[-1:]  # a shape, so no VJP keeps ``x`` alive

    def batch_view(m: np.ndarray) -> np.ndarray:
        return m.reshape(m.shape[:1] + others).swapaxes(0, -2)

    def as_cols(g: np.ndarray) -> np.ndarray:
        return g.swapaxes(0, -2).reshape(O, -1)

    out = batch_view(matmul(w.data, cols))
    out += b.data[:, None]
    return _join(out, (
        (x, lambda g: batch_view(w.data.T @ as_cols(g))),
        (w, lambda g: as_cols(g) @ cols.T),
        (b, lambda g: _unbroadcast(g, (O, 1))[:, 0]),
    ))


def concat(a, b, axis: int = -1) -> Tensor:
    """Join two tensors along ``axis`` (defaults to the feature axis)."""
    a, b = _lift(a), _lift(b)
    if a.ndim != b.ndim:
        raise DimensionError(f"concat: rank mismatch {a.shape} vs {b.shape}")
    ax = axis % a.ndim if a.ndim else 0
    for d in range(a.ndim):
        if d != ax and a.shape[d] != b.shape[d]:
            raise DimensionError(f"concat: shapes {a.shape} and {b.shape} disagree off axis {axis}")
    out = np.concatenate([a.data, b.data], axis=ax)
    na = a.shape[ax]

    def take(g, start, stop):
        idx = [slice(None)] * g.ndim
        idx[ax] = slice(start, stop)
        return g[tuple(idx)]

    return _join(out, (
        (a, lambda g: take(g, 0, na)),
        (b, lambda g: take(g, na, None)),
    ))


def expand_rows(a, n: int) -> Tensor:
    """Repeat a single row n times along the second-to-last axis."""
    a = _lift(a)
    if a.ndim < 2:
        raise RankError(f"expand_rows requires rank >= 2, got shape {a.shape}")
    if a.shape[-2] != 1:
        raise DimensionError(f"expand_rows: row extent must be 1, got shape {a.shape}")
    if n < 1:
        raise ParameterError(f"expand_rows: target row count must be >= 1, got {n}")
    out = np.repeat(a.data, n, axis=-2)
    return _join(out, ((a, lambda g: g.sum(axis=-2, keepdims=True)),))


# ---------------------------------------------------------------------------
# reductions


def mean(a) -> Tensor:
    """Mean over every element, as a scalar."""
    a = _lift(a)
    n, shape = a.size, a.shape  # so the VJP keeps no operand alive
    return _join(np.asarray(a.data.mean()), ((a, lambda g: np.broadcast_to(g / n, shape)),))


def standardize(a, axes, floor: float, affine=None,
                stats=None) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """(a - mean) / sqrt(max(var, floor)) * scale + shift as one node, plus the
    mean and the unfloored variance: ``a``'s own moments over the ``axes`` tuple
    (kept), which the gradient flows through except where var <= floor, or the
    fixed ``stats = (mean, var)``, constants the closed-form VJPs never read.
    ``affine = (scale, shift)`` is optional and must broadcast into ``a``'s shape."""
    a = _lift(a)
    if stats is None:
        m = a.data.mean(axis=axes, keepdims=True)
        xn = a.data - m
        v = (xn * xn).mean(axis=axes, keepdims=True)
    else:
        m, v = stats
        xn = a.data - m
    std = np.sqrt(np.maximum(v, float(floor)))
    xn /= std
    _require_finite(xn, "standardize")

    def vjp(g):
        g = g if affine is None else g * scale.data
        if stats is None:
            gy = (g * xn).mean(axis=axes, keepdims=True) * (v > floor)
            g = g - g.mean(axis=axes, keepdims=True) - xn * gy
        return g / std

    if affine is None:
        return _join(xn, ((a, vjp),)), m, v
    scale, shift = map(_lift, affine)
    if a.tape is None and scale.tape is None and shift.tape is None:
        out = xn  # no VJP will read ``xn``, so the affine overwrites it
        out *= scale.data
    else:
        out = xn * scale.data
    out += shift.data
    return _join(out, (
        (a, vjp),
        (scale, lambda g: _unbroadcast(g * xn, scale.shape)),
        (shift, lambda g: _unbroadcast(g, shift.shape)),
    )), m, v


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken as 0."""
    a = _lift(a)
    mask = a.data > 0.0 if a.tape is not None else None  # the VJP keeps this, not the operand
    return _join(np.maximum(a.data, 0.0), ((a, lambda g: g * mask),))


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed overflow-free via logaddexp."""
    a = _lift(a)
    out = np.logaddexp(0.0, a.data)

    def vjp(g):  # the logistic 1 / (1 + exp(-x)), from exp(-|x|) so nothing overflows
        e = np.exp(-np.abs(a.data))
        return g * np.where(a.data >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    return _join(out, ((a, vjp),))


def dropout(a, rate: float, mode: str, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout at ``rate`` rounded to a multiple of 2**-16, with an
    exact expectation.

    Each raw 64-bit output of ``rng``'s bit generator is four 16-bit lanes,
    lowest bits first.  An element is dropped when its lane is below
    ``k = min(round(rate * 65536), 65535)``, and survivors are scaled by
    ``65536 / (65536 - k)``.  The node keeps the bool mask, one byte per
    element.  Eval mode (and rate 0) is the identity and consumes no
    randomness, so expectations match between train and eval.
    """
    a = _lift(a)
    if mode not in ("train", "eval"):
        raise ParameterError(f"dropout: mode must be 'train' or 'eval', got {mode!r}")
    rate = float(rate)
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout: rate must lie in [0, 1), got {rate}")
    if mode == "eval" or rate == 0.0:
        return a
    if rng is None:
        raise ParameterError("dropout: train mode with rate > 0 requires an rng")
    n, k = a.data.size, min(round(rate * 65536), 65535)
    # Little-endian words make lane j of each draw its bits 16j..16j+15 on any host.
    lanes = rng.bit_generator.random_raw(-(-n // 4)).astype("<u8", copy=False).view("<u2")
    keep, scale = lanes[:n].reshape(a.shape) >= k, 65536 / (65536 - k)

    def apply(x: np.ndarray) -> np.ndarray:
        # x * keep * scale is bitwise x * (keep * scale), signed zeros included,
        # so the node holds the one-byte mask and no float copy of it.
        out = x * keep
        out *= scale
        return out

    return _join(apply(a.data), ((a, apply),))


# ---------------------------------------------------------------------------
# differentiation


def backward(tape: Tape, loss: Tensor) -> dict[int, Tensor]:
    """Accumulate d(loss)/d(leaf) for every leaf bound to ``tape``.

    ``loss`` must be a scalar recorded on ``tape``.  Unused leaves get
    zero gradients of their own shape.  Each node's entry is blanked as the
    walk reaches it, so the tape keeps its length but serves one pass only,
    and a non-leaf node's adjoint is dropped once its VJPs have read it, so
    the walk holds only the adjoints still to be read.
    """
    if not isinstance(loss, Tensor) or loss.tape is not tape or loss.nid is None:
        raise ContractError("backward: loss is not a node of this tape")
    if loss.data.ndim != 0:
        raise ContractError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
    records = tape._parents
    if records[loss.nid] is None:
        raise ContractError("backward: this tape has already been differentiated")
    adjoint: list[np.ndarray | None] = [None] * len(records)
    adjoint[loss.nid] = np.ones((), dtype=np.float64)
    for nid in range(len(records) - 1, -1, -1):
        entry, records[nid] = records[nid], None
        g = adjoint[nid]
        if g is None or not entry:  # a leaf keeps its adjoint: it is the gradient
            continue
        adjoint[nid] = None  # the VJPs below are its last readers
        for pid, vjp in entry:
            adjoint[pid] = vjp(g) if adjoint[pid] is None else adjoint[pid] + vjp(g)
    grads: dict[int, Tensor] = {}
    for lid, shape in tape._leaves.items():
        g = adjoint[lid]
        grads[lid] = Tensor._wrap(np.zeros(shape) if g is None else np.asarray(g))
    return grads


def grad_check(f, params: Sequence, step: float = 1e-5) -> float:
    """Worst relative error between tape and central-difference gradients.

    ``f`` maps a list of bound Tensors to a scalar Tensor and must be
    deterministic (re-seed any rng it uses internally).  Every element of
    every parameter is perturbed by ±step; the error metric is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    base = [np.array(_lift(p).data) for p in params]
    tape = Tape()
    bound = [tape.leaf(p) for p in base]
    loss = f(bound)
    if not isinstance(loss, Tensor) or loss.data.ndim != 0:
        raise ContractError("grad_check: f must return a scalar Tensor")
    grads = backward(tape, loss)
    analytic = [np.array(grads[t.nid].data) for t in bound]

    def value_at(arrs) -> float:
        out = f([Tensor(a) for a in arrs])
        v = float(out.data)
        if not np.isfinite(v):
            raise NumericError("grad_check: f returned a non-finite value")
        return v

    worst = 0.0
    for pi in range(len(base)):
        flat = base[pi].reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            work = [b if i != pi else b.copy() for i, b in enumerate(base)]
            wflat = work[pi].reshape(-1)
            wflat[k] = orig + step
            up = value_at(work)
            wflat[k] = orig - step
            down = value_at(work)
            numeric = (up - down) / (2.0 * step)
            a = analytic[pi].reshape(-1)[k]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst
