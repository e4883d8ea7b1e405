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

The adjoint contract: a VJP may overwrite its ``g`` only when ``g`` is
writable, and hands ``g`` itself on to a parent only as a read-only view.
``_unbroadcast`` returns an adjoint it leaves unsummed that way, so the one
array ``add`` hands to both its parents is written by neither.  Every other
VJP returns an array it allocated, or a view of ``g`` that is read-only
whenever ``g`` is.  A writable ``g`` therefore belongs to its node alone.

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
Each op writes its epilogue into the buffer it just allocated: ``linear``
its bias and, with ``relu=True``, ``max(., 0)``, keeping only the bool mask
on a tape; ``standardize`` its affine without a tape.  A ReLU ``linear``
masks its adjoint once for all its VJPs, in place under the contract above.
``relu`` stays as the reference the fused map is tested against.

Each result ``_empty`` gives is C-ordered, whatever its size and its
operands' layouts, and the op writes into it with ``out=``.
``training.train`` keeps a ``Workspace`` for exactly its own call, active
for its own thread alone (``workspace``); a result of 64 KiB or more
(``WORKSPACE_MIN`` elements) is then a view of one of its free buffers.
The layout is the same either way, so every bit is as without a workspace.
A batched time-axis ``linear``'s gradients, its bias gradient included,
read one C-ordered column copy of the adjoint, whatever the adjoint's layout.

Every op is numpy alone: ``softplus``'s gradient computes the logistic
itself.

``grad_check`` compares tape gradients against central finite
differences and is the ground truth the rest of the package is tested
against.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import sys
import threading
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
    float64 ndarray read-only down its whole ``.base`` chain is shared.  The
    one exception is a model's parameters: ``Forecaster.bind`` and an
    eval-mode forward see them as read-only views of the writable arrays,
    valid until the parameters next change.
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
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting.  With nothing
    to sum it returns ``g`` itself as a read-only view: ``add`` hands that to
    both its parents, so neither may overwrite it."""
    out = g
    while out.ndim > len(shape):
        out = out.sum(axis=0)
    for ax, (ge, se) in enumerate(zip(out.shape, shape)):
        if se == 1 and ge != 1:
            out = out.sum(axis=ax, keepdims=True)
    if out is g and g.flags.writeable:
        out = g.view()
        out.flags.writeable = False
    return out


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
# the training workspace


class Workspace:
    """Float64 buffers, smallest first, that ``_empty`` hands out as views
    while this workspace is its thread's active one (``workspace``), and adds
    to only while ``grow`` is set.  Each is an anonymous memory map,
    page-aligned: numpy's loops run fastest there (on an AVX-512 Xeon, adding
    two 192 KiB arrays took 8.4 us against 14.7 us at the 16-byte alignment
    malloc gives)."""

    def __init__(self):
        self.grow, self.bufs = False, []


def _free(bufs: list[np.ndarray], n: int, unviewed: int | None) -> np.ndarray | None:
    """The first of ``bufs`` with ``n`` elements or more that nothing views:
    each view's ``.base`` is its buffer, so a live view adds a reference."""
    return next((b for b in bufs if len(b) >= n and sys.getrefcount(b) == unviewed), None)


# The count ``_free`` reads for a buffer nothing views, as this interpreter
# counts; None, and no workspace is ever active, where there is none.
_UNVIEWED = next((k for k in range(1, 8) if _free([np.empty(1)], 1, k) is not None), None)
WORKSPACE_MIN = 8192  # elements: malloc reuses arrays under 64 KiB without page faults


class _Active(threading.local):
    ws: Workspace | None = None  # this thread's active workspace


_ACTIVE = _Active()


@contextlib.contextmanager
def workspace():
    """Make a new ``Workspace`` this thread's active one until the block
    exits, on error too; each thread's blocks nest on their own."""
    previous, ws = _ACTIVE.ws, Workspace()
    _ACTIVE.ws = ws if _UNVIEWED else None
    try:
        yield ws
    finally:
        _ACTIVE.ws = previous


def _empty(shape: tuple[int, ...]) -> np.ndarray:
    """A C-ordered array of ``shape`` for an op to write its result into.  In
    the thread's active workspace, one of ``WORKSPACE_MIN`` elements or more
    is a view of a free buffer, or of a new one while it grows; every other
    is ``np.empty``.  The layout is the same either way, so no bit depends on
    where the memory comes from."""
    n = math.prod(shape)
    ws = _ACTIVE.ws if n >= WORKSPACE_MIN else None
    buf = None if ws is None else _free(ws.bufs, n, _UNVIEWED)
    if buf is None and ws is not None and ws.grow:
        buf = np.frombuffer(mmap.mmap(-1, 8 * n))
        ws.bufs = sorted(ws.bufs + [buf], key=len)
    return np.empty(shape) if buf is None else buf[:n].reshape(shape)


def _c_copy(a: np.ndarray) -> np.ndarray:
    """A C-ordered copy of ``a`` from ``_empty``."""
    out = _empty(a.shape)
    np.copyto(out, a)
    return out


def _cols(a: np.ndarray, rows: int) -> np.ndarray:
    """``a.reshape(rows, -1)`` at rank <= 3: a view where the trailing axes
    merge, else a C-ordered copy by ``_c_copy``."""
    if a.ndim < 3 or a.strides[1] == a.shape[2] * a.strides[2]:
        return a.reshape(rows, -1)
    return _c_copy(a).reshape(rows, -1)

# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    """Elementwise sum with numpy-style broadcasting."""
    a, b = _lift(a), _lift(b)
    shape = _check_broadcast(a, b, "add")
    sa, sb = a.shape, b.shape  # shapes, so the VJPs keep neither operand alive
    return _join(np.add(a.data, b.data, out=_empty(shape)), (
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


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` on float64 arrays, into ``out`` if given, recording nothing.
    Every forward product of ``linear`` runs through this one module-global
    name, so a profiler that wraps it (``bench/spans.py``) counts each forward
    GEMM and its flop; the VJPs' products are not counted."""
    return np.matmul(a, b, out=out)


def _masked(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``g * mask``, written into ``g`` when ``g`` is writable, which under
    the adjoint contract (module docstring) means that no other node reads it."""
    if g.flags.writeable:
        g *= mask
        return g
    return np.multiply(g, mask, out=_empty(g.shape))


def _once(f: Callable) -> Callable:
    """``f`` of a node's adjoint, computed by the first of the node's VJPs
    that the walk calls and shared with the others."""
    held = []

    def shared(g: np.ndarray) -> np.ndarray:
        if not held:
            held.append(f(g))
        return held[0]

    return shared


def linear(x, w, b, time_axis: bool, relu: bool = False) -> Tensor:
    """``w`` (O x I) applied along the rows of ``x`` (``time_axis``) or along
    its columns, plus ``b`` (O,), as one node with closed-form VJPs.  The
    bias is added into the product's own output, and with ``relu`` so is
    ``max(., 0)``: the node keeps the bool mask, and its VJPs read the
    adjoint masked once, as ``relu(linear(...))`` would hand it on.

    The time-axis product is one (O x I) @ (I x batch*cols) GEMM over every
    column of the batch, forward and backward, instead of one GEMM per sample
    plus a per-sample weight gradient that is summed away; ``x`` is copied
    once into that column layout, which the weight gradient needs too, and
    so is the adjoint, once for all three VJPs.  Without a tape it is the
    plain broadcast product instead, which reads ``x`` in place, except when
    ``x`` has at most ``NARROW_COLS`` columns and ``w`` more than
    ``NARROW_COLS`` rows.  The weight VJP runs first and lets go of the
    input it read, before the input VJP allocates its result.
    """
    x, w, b = _lift(x), _lift(w), _lift(b)
    if w.ndim != 2 or b.shape != w.shape[:1]:
        raise DimensionError(f"linear: weight {w.shape} and bias {b.shape} are not a linear map")
    if x.ndim < 2 or x.shape[-2 if time_axis else -1] != w.shape[1]:
        along = "rows" if time_axis else "columns"
        raise DimensionError(f"linear: weight {w.shape} cannot map the {along} of shape {x.shape}")
    taped = x.tape is not None or w.tape is not None or b.tape is not None
    O, I = w.shape
    in_cols = time_axis and (taped or x.shape[-1] <= NARROW_COLS < O)
    if not time_axis:
        out = matmul(x.data, w.data.T, out=_empty(x.shape[:-1] + (O,)))
        out += b.data
    elif not in_cols:
        out = matmul(w.data, x.data, out=_empty(x.shape[:-2] + (O, x.shape[-1])))
        out += b.data[:, None]
    else:
        # At rank <= 3, swapaxes(0, -2) is moveaxis(-2, 0) and its inverse, at less cost.
        cols = _cols(x.data.swapaxes(0, -2), I)
        others = x.shape[:-2] + x.shape[-1:]  # a shape, so no VJP keeps ``x`` alive

        def batch_view(m: np.ndarray) -> np.ndarray:
            return m.reshape(m.shape[:1] + others).swapaxes(0, -2)

        out = matmul(w.data, cols, out=_empty((O, cols.shape[1])))  # column layout until it returns
        out += b.data[:, None]
    mask = out > 0.0 if relu and taped else None  # the VJPs keep this, not the output
    if relu:
        np.maximum(out, 0.0, out=out)
    if not taped:
        return Tensor._wrap(batch_view(out) if in_cols else out)
    if not time_axis:
        xd = x.data
        adjoint = (lambda g: g) if mask is None else _once(lambda g: _masked(g, mask))

        def vjp_w(g):
            nonlocal xd
            xt, xd = np.swapaxes(xd, -1, -2), None  # the last read of the input
            wt = np.matmul(xt, adjoint(g), out=_empty(xt.shape[:-1] + (O,)))
            return _unbroadcast(wt, w.shape[::-1]).T

        return _join(out, (
            (w, vjp_w),
            (x, lambda g: np.matmul(adjoint(g), w.data, out=_empty(g.shape[:-1] + (I,)))),
            (b, lambda g: _unbroadcast(adjoint(g), b.shape)),
        ))
    def to_cols(g):
        gc = _cols(g.swapaxes(0, -2), O)
        return gc if mask is None else _masked(gc, mask)

    g_cols = _once(to_cols)

    def vjp_w(g):
        nonlocal cols
        c, cols = cols, None  # the last read of the input's column copy
        return np.matmul(g_cols(g), c.T, out=_empty((O, I)))

    return _join(batch_view(out), (
        (w, vjp_w),
        (x, lambda g: batch_view(np.matmul(w.data.T, g_cols(g), out=_empty((I, g.size // O))))),
        (b, lambda g: g_cols(g).sum(axis=1)),
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
    out = np.concatenate([a.data, b.data], axis=ax, out=_empty(
        a.shape[:ax] + (a.shape[ax] + b.shape[ax],) + a.shape[ax + 1:]))
    lead = (slice(None),) * ax
    ia, ib = lead + (slice(0, a.shape[ax]),), lead + (slice(a.shape[ax], None),)
    return _join(out, ((a, lambda g: g[ia]), (b, lambda g: g[ib])))


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
    m = np.asarray(a.data.mean(axis=axes, keepdims=True) if stats is None else stats[0])
    xn = np.subtract(a.data, m, out=_empty(a.shape))
    v = (np.multiply(xn, xn, out=_empty(xn.shape)).mean(axis=axes, keepdims=True)
         if stats is None else stats[1])
    std = np.sqrt(np.maximum(v, float(floor)))
    xn /= std
    _require_finite(xn, "standardize")

    def vjp(g):
        g = (np.multiply(g, scale.data, out=_empty(g.shape))
             if affine is not None else _c_copy(g))  # the one buffer it writes
        if stats is None:
            t = np.multiply(g, xn, out=_empty(g.shape))
            gy = t.mean(axis=axes, keepdims=True) * (v > floor)
            g -= g.mean(axis=axes, keepdims=True)
            g -= np.multiply(xn, gy, out=t)  # elementwise: any layout of ``t`` serves
        g /= std
        return g

    if affine is None:
        return _join(xn, ((a, vjp),)), m, v
    scale, shift = map(_lift, affine)
    if a.tape is None and scale.tape is None and shift.tape is None:
        out = xn  # no VJP will read ``xn``, so the affine overwrites it
        out *= scale.data
    else:
        out = np.multiply(xn, scale.data, out=_empty(xn.shape))
    out += shift.data
    return _join(out, (
        (a, vjp),
        (scale, lambda g: _unbroadcast(np.multiply(g, xn, out=_empty(g.shape)),
                                       scale.shape)),
        (shift, lambda g: _unbroadcast(g, shift.shape)),
    )), m, v


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken as 0."""
    a = _lift(a)
    mask = a.data > 0.0 if a.tape is not None else None  # the VJP keeps this, not the operand
    return _join(np.maximum(a.data, 0.0),
                 ((a, lambda g: np.multiply(g, mask, out=_empty(g.shape))),))


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
        out = np.multiply(x, keep, out=_empty(x.shape))
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
            adjoint[pid] = (vjp(g) if adjoint[pid] is None  # two adjoints share a shape
                            else np.add(adjoint[pid], vjp(g), out=_empty(adjoint[pid].shape)))
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
    for pi, p in enumerate(base):
        flat = p.reshape(-1)  # a view: each probe perturbs ``base`` and restores it
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            up = value_at(base)
            flat[k] = orig - step
            down = value_at(base)
            flat[k] = orig
            numeric = (up - down) / (2.0 * step)
            a = analytic[pi].reshape(-1)[k]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst
