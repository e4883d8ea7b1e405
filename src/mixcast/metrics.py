"""Scaled forecast errors and hierarchical aggregation.

RMSSE scales the horizon's mean squared error by the training history's
mean squared one-step change, so a score of 1 matches a naive last-value
forecast on a random walk.  Leading zeros in the history (series not yet
"live") are excluded from the scale.

WRMSSE evaluates a whole hierarchy: each level groups base series into
aggregates (by summation), each aggregate contributes its RMSSE times a
level-local weight (weights sum to 1 per level), and the headline score
is the mean over levels.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MetricError, SchemaError, reading

WEIGHT_ATOL = 1e-9


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
        i = bad.argmax()
        raise MetricError("rmsse: history has no nonzero observations" if live[i] == 0 else
                          "rmsse: history needs at least two live observations" if live[i] < 2
                          else "rmsse: history is constant, the scale is undefined")
    scores = np.sqrt(np.mean((f - a) ** 2, axis=1) / scale)
    return float(scores[0]) if one else scores


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
        known = set(series_ids)
        if not self.levels:
            raise SchemaError("hierarchy has no levels")
        for level in self.levels:
            if set(level.weights) != set(level.groups):
                raise SchemaError(f"level {level.name!r}: weights do not match groups")
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
    ``histories`` to their training histories, all of one length per kind;
    aggregates sum their members in listed order.
    """
    ids = sorted(forecasts)
    if set(actuals) != set(ids) or set(histories) != set(ids):
        raise MetricError("wrmsse: forecasts, actuals, and histories must cover the same series")
    spec.validate(ids)
    parts = [[np.asarray(d[c], dtype=np.float64).reshape(-1)
              for d in (forecasts, actuals, histories)] for c in ids]
    lengths = [tuple(map(len, p)) for p in parts]
    for c, n in zip(ids, lengths):
        if n != lengths[0]:
            raise MetricError(f"wrmsse: series {c!r} has forecast, actual and history lengths "
                              f"{n}, but {ids[0]!r} has {lengths[0]}")
    base = np.array([np.concatenate(p) for p in parts])  # one row per series: f | a | h
    index = {c: i for i, c in enumerate(ids)}
    per_level: dict[str, float] = {}
    for level in spec.levels:
        rows = _aggregate(base, [[index[m] for m in ms] for ms in level.groups.values()])
        scores = rmsse(*np.split(rows, np.cumsum(lengths[0][:2]), axis=1))
        score = 0.0
        for agg, r in zip(level.groups, scores.tolist()):
            score += level.weights[agg] * r
        per_level[level.name] = score
    return float(np.mean(list(per_level.values()))), per_level


def _aggregate(rows: np.ndarray, groups: list[list[int]]) -> np.ndarray:
    """One row per group: its members' ``rows`` added in their listed order."""
    order = sorted(range(len(groups)), key=lambda k: len(groups[k]), reverse=True)
    ranked = [groups[k] for k in order]  # largest first, so the groups still adding lead
    out = rows[[g[0] for g in ranked]]
    for j in range(1, len(ranked[0])):
        members = [g[j] for g in itertools.takewhile(lambda g: len(g) > j, ranked)]
        out[:len(members)] += rows[members]
    return out[np.argsort(order)]


def load_hierarchy(path) -> HierarchySpec:
    """Read a hierarchy spec from JSON: {"levels": [{name, groups, weights}]}."""
    with reading(path, SchemaError):
        text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid hierarchy JSON: {exc}") from exc
    try:
        levels = [HierarchyLevel(lv["name"], {k: list(v) for k, v in lv["groups"].items()},
                                 {k: float(v) for k, v in lv["weights"].items()})
                  for lv in raw["levels"]]
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"{path}: hierarchy JSON is missing fields: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"{path}: hierarchy weight is not a number: {exc}") from exc
    return HierarchySpec(levels)
