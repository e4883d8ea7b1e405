"""Scaled errors and hierarchical aggregation."""

import functools
import json
import operator
import tracemalloc

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

    def test_column_major_rows_score_as_each_row_alone(self):
        rng = make_rng(92)
        f, a, h = (np.asfortranarray(rng.normal(size=(50, n))) for n in (28, 28, 300))
        assert mt.rmsse(f, a, h).tolist() == [mt.rmsse(f[i], a[i], h[i]) for i in range(50)]

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

    @pytest.mark.parametrize("horizon", [1, 5])
    def test_aggregates_add_members_one_by_one_in_listed_order(self, horizon):
        # Bitwise: a pairwise sum (numpy's for one-element-wide rows) differs
        # from one-by-one addition once an aggregate has more than 8 members.
        rng = make_rng(92)
        ids = [f"s{i:02d}" for i in range(60)]
        order = [ids[i] for i in rng.permutation(len(ids))]
        kinds = [{c: rng.lognormal(3.0, 1.0) * rng.normal(1.0, 0.3, size=n) for c in ids}
                 for n in (horizon, horizon, 30)]
        levels = [{"big": order[:40], "mid": order[40:49], "rest": order[49:]},
                  {f"p{k}": order[k::7] for k in range(7)}]
        spec = mt.HierarchySpec([mt.HierarchyLevel(f"l{j}", g, {k: 1 / len(g) for k in g})
                                 for j, g in enumerate(levels)])
        _, per_level = mt.wrmsse(*kinds, spec)
        for level in spec.levels:
            rows = [np.array([functools.reduce(operator.add, [d[m] for m in ms])
                              for ms in level.groups.values()]) for d in kinds]
            want = 0.0
            for agg, r in zip(level.groups, mt.rmsse(*rows).tolist()):
                want += level.weights[agg] * r
            assert per_level[level.name] == want

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

    @pytest.mark.parametrize("defect, message", [
        ("repeated_level", "hierarchy repeats level name 'total'"),
        ("repeated_member", "level 'total': aggregate 'all' lists series 's1' more than once"),
        ("negative_weight", "level 'series': aggregate 's3' has negative weight -0.5"),
    ])
    def test_a_spec_that_would_score_a_series_wrongly_is_named(self, defect, message):
        # Each was scored before: a repeated level replaced the first, a
        # repeated member was summed twice, and the weights still sum to 1.
        _, _, _, spec = toy_problem()
        if defect == "repeated_level":
            spec.levels.insert(1, mt.HierarchyLevel("total", {"all": ["s1", "s2", "s3"]},
                                                    {"all": 1.0}))
        elif defect == "repeated_member":
            spec.levels[0].groups["all"].insert(1, "s1")
        else:
            spec.levels[1].weights.update(s1=1.0, s2=0.5, s3=-0.5)
        with pytest.raises(errors.SchemaError, match=f"^{message}$"):
            spec.validate(["s1", "s2", "s3"])

    def test_a_series_may_sit_in_two_aggregates_of_one_level(self):
        forecasts, actuals, histories, spec = toy_problem()
        spec.levels[0] = mt.HierarchyLevel("pairs", {"a": ["s1", "s2"], "b": ["s2", "s3"]},
                                           {"a": 0.5, "b": 0.5})
        _, per_level = mt.wrmsse(forecasts, actuals, histories, spec)
        rows = [np.array([d["s1"] + d["s2"], d["s2"] + d["s3"]])
                for d in (forecasts, actuals, histories)]
        assert per_level["pairs"] == 0.5 * mt.rmsse(*rows)[0] + 0.5 * mt.rmsse(*rows)[1]


    def test_a_level_wider_than_a_chunk_scores_each_aggregate_as_alone(self):
        # 2,100 series: the pair level (1,050 aggregates) and the series level
        # (2,100) each span chunks, and each must sum to what one aggregate at a
        # time, added member by member and scored alone, gives bit for bit.
        rng = make_rng(93)
        ids = [f"s{i:04d}" for i in range(2100)]
        kinds = [{c: rng.normal(10.0, 3.0, size=n) for c in ids} for n in (3, 3, 12)]
        pairs = {f"p{k}": ids[k::1050] for k in range(1050)}
        spec = mt.HierarchySpec([
            mt.HierarchyLevel("pair", pairs, {k: 1 / len(pairs) for k in pairs}),
            mt.HierarchyLevel("series", {c: [c] for c in ids}, dict.fromkeys(ids, 1 / len(ids))),
        ])
        assert len(pairs) > mt.CHUNK
        _, per_level = mt.wrmsse(*kinds, spec)
        for level in spec.levels:
            want = 0.0
            for agg, members in level.groups.items():
                f, a, h = (functools.reduce(operator.add, [d[m] for m in members]) for d in kinds)
                want += level.weights[agg] * mt.rmsse(f, a, h)
            assert per_level[level.name] == want

    def test_peak_memory_is_under_the_inputs_own_bytes(self):
        # 3,000 series x 400 steps and three levels: the aggregates are summed
        # into one chunk at a time, never into a copy of every series.
        rng = make_rng(94)
        ids = [f"s{i}" for i in range(3000)]
        rows = [rng.normal(size=(len(ids), n)) for n in (28, 28, 400)]
        groups = {f"g{k}": ids[k::30] for k in range(30)}
        spec = mt.HierarchySpec([
            mt.HierarchyLevel("total", {"all": ids}, {"all": 1.0}),
            mt.HierarchyLevel("group", groups, {g: 1 / 30 for g in groups}),
            mt.HierarchyLevel("series", {c: [c] for c in ids}, dict.fromkeys(ids, 1 / len(ids))),
        ])
        kinds = [dict(zip(ids, r)) for r in rows]
        tracemalloc.start()
        try:
            mt.wrmsse(*kinds, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(r.nbytes for r in rows)

    def test_a_bad_aggregate_names_its_level_and_aggregate(self):
        forecasts, actuals, histories, spec = toy_problem()
        histories["s2"] = np.full(40, 3.0)
        with pytest.raises(errors.MetricError, match="^level 'series', aggregate 's2': rmsse: "
                           "history is constant, the scale is undefined$"):
            mt.wrmsse(forecasts, actuals, histories, spec)

    def test_an_empty_horizon_is_not_blamed_on_one_aggregate(self):
        _, _, histories, spec = toy_problem()
        empty = {c: np.zeros(0) for c in histories}
        with pytest.raises(errors.MetricError, match="^forecast horizon"):
            mt.wrmsse(empty, dict(empty), histories, spec)

    def test_rmsse_rows_names_a_bad_row_past_the_first_chunk(self):
        rng = make_rng(95)
        k = mt.CHUNK + 3
        f, a, h = (rng.normal(size=(k, n)) for n in (4, 4, 9))
        assert mt.rmsse_rows(f, a, h, None).tobytes() == mt.rmsse(f, a, h).tobytes()
        h[mt.CHUNK + 1] = 0.0
        with pytest.raises(errors.MetricError, match=f"^row {mt.CHUNK + 1}: rmsse: history has "
                           "no nonzero observations$"):
            mt.rmsse_rows(f, a, h, lambda i: f"row {i}")


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
