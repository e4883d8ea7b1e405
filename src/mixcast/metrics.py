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

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MetricError, SchemaError, reading

WEIGHT_ATOL = 1e-9


def rmsse(forecast, actual, train_history) -> float:
    """Root mean squared scaled error of one series over one horizon."""
    f = np.asarray(forecast, dtype=np.float64).reshape(-1)
    a = np.asarray(actual, dtype=np.float64).reshape(-1)
    h = np.asarray(train_history, dtype=np.float64).reshape(-1)
    if f.shape != a.shape or f.size == 0:
        raise MetricError(f"forecast horizon {f.shape} does not match actuals {a.shape}")
    nonzero = np.nonzero(h)[0]
    if nonzero.size == 0:
        raise MetricError("rmsse: history has no nonzero observations")
    live = h[nonzero[0]:]
    if live.size < 2:
        raise MetricError("rmsse: history needs at least two live observations")
    scale = float(np.mean(np.diff(live) ** 2))
    if scale <= 0.0:
        raise MetricError("rmsse: history is constant, the scale is undefined")
    return float(np.sqrt(np.mean((f - a) ** 2) / scale))


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
    ``histories`` to their training histories; aggregates sum members.
    """
    ids = sorted(forecasts)
    if set(actuals) != set(ids) or set(histories) != set(ids):
        raise MetricError("wrmsse: forecasts, actuals, and histories must cover the same series")
    spec.validate(ids)
    per_level: dict[str, float] = {}
    for level in spec.levels:
        score = 0.0
        for agg, members in level.groups.items():
            f, a, h = (np.sum([np.asarray(series[m], dtype=np.float64) for m in members], axis=0)
                       for series in (forecasts, actuals, histories))
            score += level.weights[agg] * rmsse(f, a, h)
        per_level[level.name] = score
    return float(np.mean(list(per_level.values()))), per_level


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
