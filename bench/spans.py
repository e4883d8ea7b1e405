"""In-memory spans around mixcast's public functions, and the per-layer
metrics derived from them.

The program is measured from outside: ``Tracer.install`` replaces each
function listed by ``targets`` with a wrapper that records a span, at the
place where its caller looks the name up, and ``Tracer.remove`` puts the
originals back.  A span is ``[name, start, end, parent, attrs]`` with
``parent`` a span index, so the spans of one operation form a tree under
the span the harness opens for it.  Spans stay in memory until the run
ends and ``write_spans`` saves them.

Values carried in ``attrs`` are counted (tape nodes, CSV cells) or
computed from array shapes (matmul flop, window bytes, parameter bytes),
not measured, so they repeat exactly between runs of one commit.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time

OP = "op"
STEP = "training.step"
VALIDATION = "training.dataset_loss"
UNITS = (OP, STEP, VALIDATION)

MIB = float(1 << 20)


def matmul_flop(a, b) -> int:
    """Flop of ``a @ b`` (2 per multiply-add), from the operand shapes."""
    sa, sb = _shape(a), _shape(b)
    n = max(len(sa), len(sb)) - 2
    pa, pb = (1,) * (n - len(sa) + 2) + sa[:-2], (1,) * (n - len(sb) + 2) + sb[:-2]
    batch = math.prod(max(x, y) for x, y in zip(pa, pb))
    return 2 * batch * sa[-2] * sa[-1] * sb[-1]


def _shape(x) -> tuple[int, ...]:
    return tuple(getattr(x, "data", x).shape)


def window_bytes(batch) -> int:
    """Bytes held by the arrays of one WindowBatch."""
    return sum(int(getattr(batch, f).nbytes)
               for f in ("history", "future", "static", "target", "starts"))


class Tracer:
    """Span recorder; installed only around the operations it traces."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, **attrs) -> None:
        now = time.perf_counter()
        self.spans[idx][4].update(attrs)
        # Unwind to ``idx``, ending any span an exception left open (a step
        # whose ``adam_step`` never ran) so it cannot adopt later spans.
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == idx:
                break

    def close_innermost(self, name: str) -> None:
        for idx in reversed(self._stack):
            if self.spans[idx][0] == name:
                self.close(idx)
                return

    def wrap(self, owner, attr: str, name, count=None, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``name`` is a span name or a function of ``(args, kwargs)`` giving
        one; ``count(args, kwargs, result)`` gives the span's computed
        attributes; ``before``/``after`` run outside the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before:
                before()
            idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(idx, error=True)
                raise
            tracer.close(idx, **(count(args, kwargs, result) if count else {}))
            if after:
                after()
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, mixcast) -> None:
        for owner, attr, name, count, *hooks in targets(self, mixcast):
            self.wrap(owner, attr, name, count, *hooks)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")


def targets(tracer: Tracer, mixcast) -> list[tuple]:
    """(owner, attribute, span name, count[, before, after]) per wrapped name.

    Each name is wrapped where its caller looks it up: ``cli`` imported
    ``load_params`` by name, ``training`` calls ``adam_step``, the losses
    and ``dataset_loss`` as module globals, and methods are looked up on
    their class.  A training step runs from ``bind`` to the return of
    ``adam_step``, so those two open and close the step span.
    """
    tc, ly, md, tr, dt, cli, mt = (mixcast.tensor, mixcast.layers, mixcast.models,
                                   mixcast.training, mixcast.data, mixcast.cli,
                                   mixcast.metrics)
    return [
        (tc, "matmul", "tensor.matmul", lambda a, k, r: {"flop": matmul_flop(a[0], a[1])}),
        (tc, "backward", "tensor.backward", lambda a, k, r: {"tape_nodes": len(a[0])}),
        (ly, "temporal_projection", "layers.temporal_projection", None),
        (ly, "feature_linear", "layers.feature_linear", None),
        (ly, "norm2d", "layers.norm2d", None),
        (ly, "time_mixing", "layers.time_mixing", None),
        (ly, "feature_mixing", "layers.feature_mixing", None),
        (ly, "conditional_feature_mixing", "layers.conditional_feature_mixing", None),
        (ly, "rev_in_normalize", "layers.rev_in", None),
        (ly, "rev_in_denormalize", "layers.rev_in", None),
        (md.Forecaster, "forward", lambda a, k: "models.forward_" + k.get("mode", "eval"), None),
        (md.Forecaster, "bind", "models.bind", None, lambda: tracer.open(STEP)),
        (tr, "adam_step", "training.adam_step", None, None,
         lambda: tracer.close_innermost(STEP)),
        (tr, "mse_loss", "training.loss", None),
        (tr, "nb_nll_loss", "training.loss", None),
        (tr, "dataset_loss", VALIDATION, None),
        (dt, "load_csv", "data.load_csv", lambda a, k, r: {"cells": int(r.values.size)}),
        (dt, "make_windows", "data.make_windows", lambda a, k, r: {"bytes": window_bytes(r)}),
        (dt, "split_windows", "data.split_windows",
         lambda a, k, r: {"bytes": sum(window_bytes(b) for b in r)}),
        (dt.Standardizer, "apply", "data.standardizer_apply", None),
        (dt.Standardizer, "invert", "data.standardizer_invert", None),
        (dt.WindowBatch, "subset", "data.subset", None),
        (cli, "load_params", "params_io.load_params",
         lambda a, k, r: {"bytes": sum(int(v.nbytes) for v in r.values())}),
        (cli, "load_checkpoint", "cli.load_checkpoint", None),
        (cli, "cmd_evaluate", "cli.cmd_evaluate", None),
        (mt, "wrmsse", "metrics.wrmsse", None),
        (mt, "rmsse", "metrics.rmsse", None),
    ]


# ---------------------------------------------------------------------------
# derived metrics


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def nearest_units(spans: list[list]) -> list[int | None]:
    """Index of each span's closest enclosing unit span (op, step, validation)."""
    out: list[int | None] = []
    for name, _, _, parent, _ in spans:
        if parent is None:
            out.append(None)
        elif spans[parent][0] in UNITS:
            out.append(parent)
        else:
            out.append(out[parent])
    return out


def nearest_rank(values, pct: float) -> float:
    """The ``pct``-th percentile by nearest rank (a value that occurred)."""
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[k - 1]


def tail_percentile(values, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 25.0, 10.0),
                    min_beyond: int = 10):
    """Highest candidate percentile with at least ``min_beyond`` samples
    above its nearest-rank position; ``(pct, value)`` or ``None``."""
    n = len(values)
    for pct in candidates:
        k = max(1, math.ceil(pct / 100.0 * n))
        if n - k >= min_beyond:
            return pct, nearest_rank(values, pct)
    return None


class SpanTable:
    """Per-unit aggregation of a finished span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.selfs = self_times(self.spans)
        self.units = nearest_units(self.spans)

    def units_named(self, unit: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == unit]

    def per_unit(self, name: str, unit: str, field: str = "dur") -> list[float]:
        """One sum per unit span named ``unit`` over the spans named ``name``
        inside it.  ``field`` is ``dur``, ``self``, ``calls`` or an attr."""
        sums = {u: 0.0 for u in self.units_named(unit)}
        for i, s in enumerate(self.spans):
            if s[0] != name or self.units[i] not in sums:
                continue
            if field == "dur":
                v = s[2] - s[1]
            elif field == "self":
                v = self.selfs[i]
            elif field == "calls":
                v = 1
            else:
                v = s[4].get(field, 0)
            sums[self.units[i]] += v
        return list(sums.values())

    def calls(self, name: str, field: str = "dur", unit: str | None = None) -> list[float]:
        """One value per span named ``name``, optionally only those whose
        closest enclosing unit span is named ``unit``."""
        out = []
        for i, s in enumerate(self.spans):
            if s[0] != name:
                continue
            owner = self.units[i]
            if unit is not None and (owner is None or self.spans[owner][0] != unit):
                continue
            out.append(s[2] - s[1] if field == "dur" else s[4].get(field, 0))
        return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


class Layout:
    """Which unit per-step values are taken over: the training step where
    the run has steps, otherwise the evaluate operation.  Eval-mode
    forwards in training are taken per validation pass."""

    def __init__(self, table: SpanTable):
        has_steps = bool(table.units_named(STEP))
        self.step = STEP if has_steps else OP
        self.eval = VALIDATION if has_steps else OP


def _per(name, unit=None, field="dur"):
    """Values per unit; ``unit`` None means the layout's step unit."""
    return lambda t, lay: t.per_unit(name, unit or lay.step, field)


def _calls(name, field="dur", unit=None):
    return lambda t, lay: t.calls(name, field, unit)


def _rate(name, field):
    """One value: ``field`` summed over all calls per second of those calls."""
    return lambda t, lay: [_ratio(sum(t.calls(name, field)), sum(t.calls(name)))]


def _matmul_rate(t, lay):
    return [_ratio(sum(t.per_unit("tensor.matmul", lay.step, "flop")),
                   sum(t.per_unit("tensor.matmul", lay.step)))]


def _eval_forward(t, lay):
    return t.per_unit("models.forward_eval", lay.eval)


def _window_bytes(t, lay):
    return t.calls("data.make_windows", "bytes") + t.calls("data.split_windows", "bytes")


MS, GIGA = 1e3, 1e-9

# (metric, unit, better, scale, reduce, values(table, layout), kind).
# ``reduce`` turns the per-unit (or per-call) values into one number.
# ``kind`` is "timed", "count" (counted at a span) or "computed" (from
# array shapes); counts and computed values must repeat exactly.
PER_LAYER = [
    ("tensor.backward_ms", "ms", "lower", MS, "median", _per("tensor.backward", STEP), "timed"),
    ("tensor.tape_nodes_per_step", "count", "lower", 1, "median",
     _per("tensor.backward", STEP, "tape_nodes"), "count"),
    ("tensor.matmul_calls_per_step", "count", "lower", 1, "median",
     _per("tensor.matmul", field="calls"), "count"),
    ("tensor.matmul_ms", "ms", "lower", MS, "median", _per("tensor.matmul"), "timed"),
    ("tensor.matmul_gflop_per_step", "GFLOP", "lower", GIGA, "median",
     _per("tensor.matmul", field="flop"), "computed"),
    ("tensor.matmul_gflops", "GFLOP/s", "higher", GIGA, "median", _matmul_rate, "timed"),
    ("layers.temporal_projection_ms", "ms", "lower", MS, "median",
     _per("layers.temporal_projection"), "timed"),
    ("layers.feature_linear_ms", "ms", "lower", MS, "median", _per("layers.feature_linear"), "timed"),
    ("layers.norm2d_ms", "ms", "lower", MS, "median", _per("layers.norm2d"), "timed"),
    ("layers.time_mixing_self_ms", "ms", "lower", MS, "median",
     _per("layers.time_mixing", field="self"), "timed"),
    ("layers.feature_mixing_self_ms", "ms", "lower", MS, "median",
     _per("layers.feature_mixing", field="self"), "timed"),
    ("layers.conditional_feature_mixing_self_ms", "ms", "lower", MS, "median",
     _per("layers.conditional_feature_mixing", field="self"), "timed"),
    ("layers.rev_in_ms", "ms", "lower", MS, "median", _per("layers.rev_in"), "timed"),
    ("models.forward_train_ms", "ms", "lower", MS, "median", _per("models.forward_train", STEP),
     "timed"),
    ("models.forward_eval_ms", "ms", "lower", MS, "median", _eval_forward, "timed"),
    ("models.bind_ms", "ms", "lower", MS, "median", _per("models.bind", STEP), "timed"),
    ("training.step_ms_p50", "ms", "lower", MS, "p50", _calls(STEP), "timed"),
    ("training.step_ms_p90", "ms", "lower", MS, "p90", _calls(STEP), "timed"),
    ("training.adam_step_ms", "ms", "lower", MS, "median", _per("training.adam_step", STEP),
     "timed"),
    ("training.loss_ms", "ms", "lower", MS, "median", _per("training.loss", STEP), "timed"),
    ("training.dataset_loss_ms", "ms", "lower", MS, "median", _calls(VALIDATION), "timed"),
    ("data.load_csv_ms", "ms", "lower", MS, "median", _per("data.load_csv", OP), "timed"),
    ("data.load_csv_cells_per_s", "cells/s", "higher", 1, "median",
     _rate("data.load_csv", "cells"), "timed"),
    ("data.make_windows_ms", "ms", "lower", MS, "median", _per("data.make_windows", OP), "timed"),
    ("data.split_windows_ms", "ms", "lower", MS, "median", _calls("data.split_windows"), "timed"),
    ("data.window_mb", "MiB", "lower", 1 / MIB, "median", _window_bytes, "computed"),
    ("data.standardizer_apply_ms", "ms", "lower", MS, "median",
     _per("data.standardizer_apply", OP), "timed"),
    ("data.standardizer_invert_ms", "ms", "lower", MS, "median",
     _per("data.standardizer_invert", OP), "timed"),
    ("data.subset_ms", "ms", "lower", MS, "median", _calls("data.subset", unit=OP), "timed"),
    ("params_io.load_params_ms", "ms", "lower", MS, "median",
     _per("params_io.load_params", OP), "timed"),
    ("params_io.bytes_read", "bytes", "lower", 1, "median",
     _per("params_io.load_params", OP, "bytes"), "computed"),
    ("cli.load_checkpoint_ms", "ms", "lower", MS, "median", _per("cli.load_checkpoint", OP),
     "timed"),
    ("cli.cmd_evaluate_self_ms", "ms", "lower", MS, "median",
     _per("cli.cmd_evaluate", OP, "self"), "timed"),
    ("metrics.wrmsse_ms", "ms", "lower", MS, "median", _per("metrics.wrmsse", OP), "timed"),
    ("metrics.rmsse_calls", "count", "lower", 1, "median", _per("metrics.rmsse", OP, "calls"),
     "count"),
]

# Reported beside the derived metrics: traced versus untraced operations.
OVERHEAD = ("trace.overhead_pct", "%", "lower")

_REDUCE = {"median": _median,
           "p50": lambda v: nearest_rank(v, 50) if v else 0.0,
           "p90": lambda v: nearest_rank(v, 90) if v else 0.0}


def per_layer_metrics(spans: list[list]) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric, 0 where the workload does not exercise the
    layer, and the problems found: a computed count that is not the same
    in every unit of the run."""
    table = SpanTable(spans)
    layout = Layout(table)
    metrics, problems = {}, []
    for name, _, _, scale, reduce, values, kind in PER_LAYER:
        vals = values(table, layout)
        metrics[name] = _REDUCE[reduce](vals) * scale
        if kind != "timed" and len(set(vals)) > 1:
            problems.append(f"{kind} {name} differs between units: {sorted(set(vals))}")
    return metrics, problems
