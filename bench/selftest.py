"""Self-tests of the benchmark: span nesting and self-time arithmetic,
percentile selection, metric naming, and the output checks on tiny
shapes.  Run from the root of a source checkout:

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import mixcast.cli  # noqa: E402
import spans as sp  # noqa: E402
import workloads as wk  # noqa: E402
from mixcast import models as md  # noqa: E402


@pytest.fixture
def workdir():
    path = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_children_once():
    spans = [["op", 0.0, 10.0, None, {}],
             ["a", 1.0, 4.0, 0, {}],
             ["b", 2.0, 3.0, 1, {}],
             ["c", 3.5, 9.0, 0, {}]]  # overlaps a by 0.5: counted once
    assert sp.self_times(spans) == [pytest.approx(2.0), pytest.approx(2.0),
                                    pytest.approx(1.0), pytest.approx(5.5)]


def test_wrapped_calls_nest_and_restore():
    def g(x):
        return x + 1

    def f(x):
        return ns.g(x) * 2

    def boom():
        raise ValueError("x")

    ns = types.SimpleNamespace(f=f, g=g, boom=boom)
    tracer = sp.Tracer()
    for name in ("f", "g", "boom"):
        tracer.wrap(ns, name, name)
    op = tracer.open(sp.OP)
    assert ns.f(1) == 4
    with pytest.raises(ValueError):
        ns.boom()
    assert ns.g(0) == 1
    tracer.close(op)
    tracer.remove()
    assert (ns.f, ns.g, ns.boom) == (f, g, boom)

    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["op", "f", "g", "boom", "g"]
    # g inside f is f's child; the failed call does not adopt later spans.
    assert parents == [None, 0, 1, 0, 0]
    assert tracer.spans[3][4] == {"error": True}
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_units_and_per_unit_sums():
    spans = [["op", 0.0, 10.0, None, {}],
             [sp.STEP, 1.0, 5.0, 0, {}],
             ["tensor.matmul", 1.0, 2.0, 1, {"flop": 10}],
             ["tensor.matmul", 2.0, 2.5, 1, {"flop": 10}],
             [sp.STEP, 5.0, 9.0, 0, {}],
             ["layers.x", 5.0, 8.0, 4, {}],
             ["tensor.matmul", 6.0, 7.0, 5, {"flop": 10}]]
    table = sp.SpanTable(spans)
    assert table.units == [None, 0, 1, 1, 0, 4, 4]
    assert table.per_unit("tensor.matmul", sp.STEP, "flop") == [20, 10]
    assert table.per_unit("tensor.matmul", sp.STEP, "calls") == [2, 1]
    assert table.per_unit("layers.x", sp.STEP, "self") == [0.0, pytest.approx(2.0)]


def test_matmul_flop_from_shapes():
    import numpy as np
    a, b = np.zeros((3, 4)), np.zeros((2, 4, 5))
    assert sp.matmul_flop(a, b) == 2 * 2 * 3 * 4 * 5
    assert sp.matmul_flop(np.zeros((2, 3, 4)), np.zeros((4, 6))) == 2 * 2 * 3 * 4 * 6


# ---------------------------------------------------------------------------
# percentiles


@pytest.mark.parametrize("n, expected", [(10, None), (11, None), (12, 10.0), (19, 25.0),
                                         (20, 50.0), (110, 90.0), (999, 95.0),
                                         (1000, 99.0), (11000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = list(range(n, 0, -1))
    got = sp.tail_percentile(values)
    if expected is None:
        assert got is None
        return
    pct, value = got
    assert pct == expected
    assert sum(v > value for v in values) >= 10
    assert value == sp.nearest_rank(values, pct)


def test_nearest_rank():
    assert sp.nearest_rank([5, 1, 3, 2, 4], 50) == 3
    assert sp.nearest_rank([5, 1, 3, 2, 4], 90) == 5
    assert sp.nearest_rank([7], 99.9) == 7


# ---------------------------------------------------------------------------
# output checks on tiny shapes


class TinyEvaluate(wk.EvaluateWide):
    lookback, horizon, channels, groups, period = 8, 4, 5, 2, 3
    rows = 30


class TinyTrain(wk.TrainWorkload):
    name = "tiny"
    config = md.ModelConfig(family="tsmixer", lookback=12, horizon=4, targets=2,
                            hidden=4, blocks=1, rev_in=True)
    ranges = ((0, 79), (79, 90), (90, 94))
    rows = 94
    learning_rate = 1e-2

    def make_frame(self):
        from mixcast import data as dt
        return dt.synth_periodic_plus_trend(4, self.rows, 0.01, variates=2, seed=self.seed)


def test_evaluate_check_passes_and_catches_wrong_reports(workdir):
    wl = TinyEvaluate(3, workdir)
    wl.setup()
    code, report = wl.run(wl.prepare())
    assert wl.check((code, report)) == []
    fields = dict(line.split(": ", 1) for line in report.splitlines() if ": " in line)
    for key in ("mse", "wrmsse"):
        got = float(fields[key])
        assert abs(got - wl.expected[key]) <= 1e-12 * abs(wl.expected[key])
        off = report.replace(f"{key}: {fields[key]}", f"{key}: {got * (1 + 1e-6)!r}")
        assert any(key in p for p in wl.check((code, off)))
    assert wl.check((1, report)) == ["evaluate exited 1"]
    assert wl.check((0, report.replace("wrmsse", "w"))) != []


def test_train_check_repeats_history_and_catches_bad_ones(workdir):
    wl = TinyTrain(5, workdir)
    wl.setup()
    first = wl.run(wl.prepare())
    assert wl.check(first) == []
    second = wl.run(wl.prepare())
    assert wl.check(second) == []

    good = list(wl.reference)
    assert wk.check_history(good, wl.epochs, good) == []
    assert wk.check_history(good[:1], wl.epochs, None) != []
    assert wk.check_history([(1.0, 1.0), (math.nan, 0.5)], 2, None) == ["non-finite loss"]
    assert wk.check_history([(1.0, 0.5), (0.9, 0.6)], 2, None) != []
    nudged = [good[0], (good[1][0], math.nextafter(good[1][1], 0.0))]
    assert wk.check_history(nudged, 2, good) == [
        "loss history differs from the first call of this run"]


def test_traced_tiny_train_gives_exact_counts(workdir):
    wl = TinyTrain(5, workdir)
    tracer = sp.Tracer()
    tracer.install(mixcast)
    wl.setup()
    model = wl.prepare()
    span = tracer.open(sp.OP)
    wl.run(model)
    tracer.close(span)
    tracer.remove()
    metrics, problems = sp.per_layer_metrics(tracer.spans)
    assert problems == []
    assert metrics["tensor.tape_nodes_per_step"] > 0
    assert metrics["tensor.matmul_calls_per_step"] > 0
    assert metrics["training.step_ms_p90"] >= metrics["training.step_ms_p50"] > 0
    assert metrics["data.window_mb"] > 0
    assert metrics["params_io.bytes_read"] == 0.0  # no checkpoint read in training


# ---------------------------------------------------------------------------
# the benchmark description


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == [row[:3] for row in sp.PER_LAYER] + [sp.OVERHEAD]
    assert [w["name"] for w in spec["workloads"]] == list(wk.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", "windows_per_s", "peak_rss_mb"}


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
