"""Scaled forecast errors and hierarchical aggregation.

RMSSE scales the horizon's mean squared error by the training history's
mean squared one-step change, so a score of 1 matches a naive last-value
forecast on a random walk.  Leading zeros in the history (series not yet
"live") are excluded from the scale.

WRMSSE evaluates a whole hierarchy: each level groups base series into
aggregates (by summation), each aggregate contributes its RMSSE times a
level-local weight (weights sum to 1 per level), and the headline score
is the mean over levels.  An aggregate adds its members one by one in
listed order, straight from the caller's arrays, and a level is scored
``CHUNK`` aggregates at a time, so no array grows with the series count.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from .errors import MetricError, SchemaError, reading

WEIGHT_ATOL = 1e-9
CHUNK = 1024  # rows per ``rmsse`` call: series in ``rmsse_rows``, aggregates in ``wrmsse``


def rmsse(forecast, actual, train_history) -> float | np.ndarray:
    """Root mean squared scaled error over one horizon, one series per row:
    (k, T) forecasts and actuals with (k, n) histories give (k,) scores, and
    1-D arrays are one series and give a float.  A bad row raises for the
    first one; each row is scored exactly as it would be alone."""
    one = np.ndim(forecast) < 2
    f, a, h = (np.atleast_2d(np.asarray(x, dtype=np.float64))
               for x in (forecast, actual, train_history))
    if f.shape != a.shape or f.shape[1] == 0:
        raise MetricError(f"forecast horizon {f.shape[1:]} does not match actuals {a.shape[1:]}")
    live = np.logical_or.accumulate(h != 0, axis=1).sum(axis=1)  # from the first nonzero on
    scale = np.mean(np.diff(h, axis=1) ** 2, axis=1) if h.shape[1] > 1 else np.zeros(len(h))
    for i in np.flatnonzero((live < h.shape[1]) & (live > 1)):  # leading zeros: own live slice
        scale[i] = np.mean(np.diff(h[i, -live[i]:]) ** 2)
    bad = (live < 2) | (scale <= 0.0)
    if bad.any():
        i = int(bad.argmax())
        exc = MetricError("rmsse: history has no nonzero observations" if live[i] == 0 else
                          "rmsse: history needs at least two live observations" if live[i] < 2
                          else "rmsse: history is constant, the scale is undefined")
        exc.row = i  # so a caller can name the series
        raise exc
    scores = np.sqrt(np.mean((f - a) ** 2, axis=1) / scale)
    return float(scores[0]) if one else scores


def rmsse_rows(forecast, actual, history, name) -> np.ndarray:
    """``rmsse`` of (k, T), (k, T) and (k, n) arrays, ``CHUNK`` rows per call; a bad
    row's MetricError keeps ``rmsse``'s reason behind ``name(row)``."""
    scores = []
    for lo in range(0, len(forecast), CHUNK):
        try:
            scores.append(rmsse(*(x[lo:lo + CHUNK] for x in (forecast, actual, history))))
        except MetricError as exc:
            if not hasattr(exc, "row"):  # the arrays' shapes are wrong, not one row
                raise
            raise MetricError(f"{name(lo + exc.row)}: {exc}") from exc
    return np.concatenate(scores)


@dataclass
class HierarchyLevel:
    """One aggregation level: aggregate id -> member base series."""

    name: str
    groups: dict[str, list[str]]
    weights: dict[str, float]


@dataclass
class HierarchySpec:
    levels: list[HierarchyLevel]

    def validate(self, series_ids) -> None:
        """Raise a SchemaError unless every level has a name of its own,
        non-negative weights that sum to 1, and aggregates that each list
        known series at most once and together cover every series.  A
        series may sit in two aggregates of one level."""
        known = set(series_ids)
        if not self.levels:
            raise SchemaError("hierarchy has no levels")
        repeated = [name for name, n in Counter(lv.name for lv in self.levels).items() if n > 1]
        if repeated:
            raise SchemaError(f"hierarchy repeats level name {repeated[0]!r}")
        for level in self.levels:
            if set(level.weights) != set(level.groups):
                raise SchemaError(f"level {level.name!r}: weights do not match groups")
            for agg, weight in level.weights.items():
                if weight < 0:
                    raise SchemaError(f"level {level.name!r}: aggregate {agg!r} has "
                                      f"negative weight {weight!r}")
            total = sum(level.weights.values())
            if not abs(total - 1.0) <= WEIGHT_ATOL:  # a NaN weight fails too
                raise SchemaError(f"level {level.name!r}: weights sum to {total!r}, expected 1")
            covered = set()
            for agg, members in level.groups.items():
                if not members:
                    raise SchemaError(f"level {level.name!r}: aggregate {agg!r} is empty")
                unknown = set(members) - known
                if unknown:
                    raise SchemaError(
                        f"level {level.name!r}: aggregate {agg!r} references unknown "
                        f"series {sorted(unknown)}"
                    )
                repeated = [m for m, n in Counter(members).items() if n > 1]
                if repeated:
                    raise SchemaError(f"level {level.name!r}: aggregate {agg!r} lists "
                                      f"series {repeated[0]!r} more than once")
                covered |= set(members)
            orphans = known - covered
            if orphans:
                raise SchemaError(
                    f"level {level.name!r} does not cover series {sorted(orphans)}"
                )


def wrmsse(forecasts: dict[str, np.ndarray], actuals: dict[str, np.ndarray],
           histories: dict[str, np.ndarray], spec: HierarchySpec) -> tuple[float, dict[str, float]]:
    """Weighted RMSSE over a hierarchy; returns (score, per-level scores).

    ``forecasts``/``actuals`` map base series ids to horizon arrays and
    ``histories`` to their training histories, all of one length per kind.
    An aggregate adds its members one by one in listed order, reading the
    caller's arrays; a level is scored ``CHUNK`` aggregates at a time, and a
    bad aggregate's MetricError names its level and aggregate.
    """
    ids = sorted(forecasts)
    if set(actuals) != set(ids) or set(histories) != set(ids):
        raise MetricError("wrmsse: forecasts, actuals, and histories must cover the same series")
    spec.validate(ids)
    kinds = [{c: np.asarray(d[c], dtype=np.float64).reshape(-1) for c in ids}
             for d in (forecasts, actuals, histories)]
    lengths = [tuple(len(k[c]) for k in kinds) for c in ids]
    for c, n in zip(ids, lengths):
        if n != lengths[0]:
            raise MetricError(f"wrmsse: series {c!r} has forecast, actual and history lengths "
                              f"{n}, but {ids[0]!r} has {lengths[0]}")
    per_level: dict[str, float] = {}
    for level in spec.levels:
        aggregates, score = list(level.groups.items()), 0.0
        for lo in range(0, len(aggregates), CHUNK):
            part = aggregates[lo:lo + CHUNK]
            rows = [np.array([reduce(np.add, [k[m] for m in members]) for _, members in part])
                    for k in kinds]
            scores = rmsse_rows(*rows, lambda i: f"level {level.name!r}, aggregate {part[i][0]!r}")
            for (agg, _), r in zip(part, scores.tolist()):
                score += level.weights[agg] * r
        per_level[level.name] = score
    return float(np.mean(list(per_level.values()))), per_level


def _read_level(lv, path) -> HierarchyLevel:
    """One level of a hierarchy JSON: a string name, an object of aggregates
    whose members are lists of strings, and weights that are numbers."""
    name, groups, weights = lv["name"], lv["groups"], lv["weights"]
    if not isinstance(name, str):
        raise SchemaError(f"{path}: hierarchy level name {name!r} is not a string")
    if not isinstance(groups, dict) or not all(
            isinstance(ms, list) and all(isinstance(m, str) for m in ms)
            for ms in groups.values()):
        raise SchemaError(f"{path}: level {name!r}: groups must map each aggregate "
                          "to a list of series names")
    for agg, v in weights.items():
        if not isinstance(v, float):  # JSON numbers are read as floats; true is a bool
            raise SchemaError(f"{path}: hierarchy weight is not a number: level {name!r}, "
                              f"aggregate {agg!r} has {v!r}")
    return HierarchyLevel(name, groups, dict(weights))


def load_hierarchy(path) -> HierarchySpec:
    """Read a hierarchy spec from JSON: {"levels": [{name, groups, weights}]}."""
    with reading(path, SchemaError):
        text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text, parse_int=float)  # so an integer too large for a float is inf
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise SchemaError(f"{path}: invalid hierarchy JSON: {exc}") from exc
    try:
        levels = [_read_level(lv, path) for lv in raw["levels"]]
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"{path}: hierarchy JSON is missing fields: {exc}") from exc
    return HierarchySpec(levels)
