"""Scaled errors and hierarchical aggregation."""

import json

import numpy as np
import pytest

from mixcast import errors
from mixcast import metrics as mt
from mixcast.rng import make_rng


class TestRmsse:
    def test_hand_computed_value(self):
        history = np.array([1.0, 3.0, 2.0, 5.0])  # diffs 2, -1, 3 -> scale 14/3
        forecast = np.array([4.0, 4.0])
        actual = np.array([5.0, 2.0])  # squared errors 1, 4 -> mse 2.5
        want = np.sqrt(2.5 / (14.0 / 3.0))
        assert mt.rmsse(forecast, actual, history) == pytest.approx(want, rel=1e-12)

    def test_leading_zeros_excluded_from_scale(self):
        live = np.array([5.0, 7.0, 6.0])
        padded = np.concatenate([np.zeros(4), live])
        f, a = np.array([6.0]), np.array([8.0])
        assert mt.rmsse(f, a, padded) == mt.rmsse(f, a, live)

    def test_flat_history_rejected(self):
        with pytest.raises(errors.MetricError, match="constant"):
            mt.rmsse(np.ones(2), np.ones(2), np.full(10, 4.0))
        with pytest.raises(errors.MetricError, match="nonzero"):
            mt.rmsse(np.ones(2), np.ones(2), np.zeros(10))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(errors.MetricError):
            mt.rmsse(np.ones(3), np.ones(2), np.arange(5.0))

    def test_rows_score_each_series(self):
        forecasts, actuals, histories, _ = toy_problem()
        ids = sorted(forecasts)
        rows = [np.array([d[i] for i in ids]) for d in (forecasts, actuals, histories)]
        scores = mt.rmsse(*rows)
        assert scores.shape == (3,)
        assert scores.tolist() == [mt.rmsse(forecasts[i], actuals[i], histories[i]) for i in ids]
        assert isinstance(mt.rmsse(forecasts["s1"], actuals["s1"], histories["s1"]), float)

    def test_one_step_naive_on_random_walk_scores_near_one(self):
        # The scale is built from one-step differences, so the matching
        # reference is the one-step naive: forecast each horizon step from
        # the preceding observation.
        rng = make_rng(90)
        scores = []
        for _ in range(200):
            walk = np.cumsum(rng.normal(size=130))
            history, actual = walk[:120], walk[120:128]
            forecast = np.concatenate([[history[-1]], actual[:-1]])
            scores.append(mt.rmsse(forecast, actual, history))
        assert abs(np.mean(scores) - 1.0) < 0.15


def toy_problem(seed=91):
    rng = make_rng(seed)
    ids = ["s1", "s2", "s3"]
    horizons = {i: rng.normal(size=6) for i in ids}
    actuals = {i: horizons[i] + rng.normal(size=6) * 0.5 for i in ids}
    histories = {i: rng.normal(size=40).cumsum() + 10 for i in ids}
    spec = mt.HierarchySpec([
        mt.HierarchyLevel("total", {"all": ["s1", "s2", "s3"]}, {"all": 1.0}),
        mt.HierarchyLevel("series", {i: [i] for i in ids},
                          {"s1": 0.5, "s2": 0.3, "s3": 0.2}),
    ])
    return horizons, actuals, histories, spec


class TestWrmsse:
    def test_matches_bruteforce_recomputation(self):
        forecasts, actuals, histories, spec = toy_problem()
        score, per_level = mt.wrmsse(forecasts, actuals, histories, spec)

        # independent recomputation with plain loops
        def naive_rmsse(f, a, h):
            first = next(i for i, v in enumerate(h) if v != 0)
            diffs = [(h[i + 1] - h[i]) ** 2 for i in range(first, len(h) - 1)]
            scale = sum(diffs) / len(diffs)
            err = sum((fi - ai) ** 2 for fi, ai in zip(f, a)) / len(f)
            return (err / scale) ** 0.5

        level_scores = []
        for level in spec.levels:
            s = 0.0
            for agg, members in level.groups.items():
                f = sum(forecasts[m] for m in members)
                a = sum(actuals[m] for m in members)
                h = sum(histories[m] for m in members)
                s += level.weights[agg] * naive_rmsse(f, a, h)
            level_scores.append(s)
            assert per_level[level.name] == pytest.approx(s, abs=1e-12)
        assert score == pytest.approx(sum(level_scores) / len(level_scores), abs=1e-12)

    def test_perfect_forecast_scores_zero(self):
        forecasts, _, histories, spec = toy_problem()
        score, per_level = mt.wrmsse(forecasts, dict(forecasts), histories, spec)
        assert score == 0.0
        assert all(v == 0.0 for v in per_level.values())

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_series_of_different_lengths_named(self, which):
        problem = toy_problem()
        problem[which]["s2"] = problem[which]["s2"][:-1]
        with pytest.raises(errors.MetricError, match="series 's2' has forecast, actual and "
                           "history lengths"):
            mt.wrmsse(*problem)

    def test_orphan_series_named(self):
        forecasts, actuals, histories, spec = toy_problem()
        spec.levels[1].groups.pop("s3")
        spec.levels[1].weights.pop("s3")
        spec.levels[1].weights["s1"] = 0.7
        with pytest.raises(errors.SchemaError, match="s3"):
            mt.wrmsse(forecasts, actuals, histories, spec)

    def test_weights_must_sum_to_one(self):
        forecasts, actuals, histories, spec = toy_problem()
        spec.levels[0].weights["all"] = 0.9
        with pytest.raises(errors.SchemaError, match="sum"):
            mt.wrmsse(forecasts, actuals, histories, spec)

    def test_unknown_member_named(self):
        _, _, _, spec = toy_problem()
        spec.levels[0].groups["all"].append("ghost")
        with pytest.raises(errors.SchemaError, match="ghost"):
            spec.validate(["s1", "s2", "s3"])


class TestWeightsAndLoading:
    def test_load_hierarchy_roundtrip(self, tmp_path):
        spec = {
            "levels": [
                {"name": "total", "groups": {"all": ["x", "y"]}, "weights": {"all": 1.0}},
                {"name": "leaf", "groups": {"x": ["x"], "y": ["y"]},
                 "weights": {"x": 0.6, "y": 0.4}},
            ]
        }
        path = tmp_path / "hier.json"
        path.write_text(json.dumps(spec))
        loaded = mt.load_hierarchy(path)
        loaded.validate(["x", "y"])
        assert loaded.levels[1].weights == {"x": 0.6, "y": 0.4}

    def test_load_hierarchy_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(errors.SchemaError, match="JSON"):
            mt.load_hierarchy(path)
