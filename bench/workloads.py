"""The three benchmark workloads: inputs made from a seed, one operation,
and the checks on its outputs.

Each workload is a closed loop with one caller: the harness starts the
next operation only after the previous one returned.

* ``train_long``: ``training.train`` on ``tsmixer`` at the paper's
  long-horizon shape (lookback 512, horizon 96, 21 channels as in
  Weather).  Time goes to the temporal-projection GEMMs and their VJPs.
* ``train_counts_ext``: ``training.train`` with the negative-binomial
  objective on ``tsmixer_ext`` with historical, future and static
  covariates (M5-like counts).  Small matrices and many tape nodes, so it
  costs Python and tape overhead rather than flops.
* ``evaluate_wide``: the user's ``mixcast evaluate`` path, in process, on
  a 321-channel CSV (Electricity width) with a three-level hierarchy.
  Ingest, windowing, scaling and metrics dominate; there is no tape.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from mixcast import cli, data as dt, models as md, training as tr

# Relative tolerance of the evaluate output check.  The reference forecast
# is the same float64 arithmetic in another summation order, so it agrees
# to about 1e-15; 1e-9 leaves room for that and nothing else.
EVAL_RTOL = 1e-9


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox([int(seed), 1000 + stream]))


# ---------------------------------------------------------------------------
# training workloads


class TrainWorkload:
    """One operation is a full ``training.train`` call on fixed windows.

    Every call starts from the same initial model and seed, so each must
    reproduce the first call's loss history bit for bit.  Epochs and
    patience are chosen so early stopping never fires.
    """

    epochs = 2
    batch_size = 32
    learning_rate = 1e-3
    objective = "mse"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.reference: list[tuple[float, float]] | None = None

    # subclasses define: config, rows, ranges, make_frame()

    def setup(self) -> None:
        frame = self.make_frame()
        self.train_w, self.val_w, _ = dt.split_windows(
            frame, dt.SplitSpec(ranges=self.ranges),
            dt.WindowSpec(self.config.lookback, self.config.horizon))

    @property
    def windows_per_op(self) -> int:
        return len(self.train_w) * self.epochs

    @property
    def steps_per_op(self) -> int:
        return math.ceil(len(self.train_w) / self.batch_size) * self.epochs

    def input_size(self) -> dict:
        c = self.config
        return {"rows": self.rows, "train_windows": len(self.train_w),
                "val_windows": len(self.val_w), "epochs": self.epochs,
                "batch_size": self.batch_size, "lookback": c.lookback,
                "horizon": c.horizon, "targets": c.targets,
                "hist_covariates": c.hist_covariates,
                "future_covariates": c.future_covariates,
                "static_features": c.static_features, "hidden": c.hidden,
                "blocks": c.blocks, "family": c.family, "head": c.head}

    def prepare(self):
        return md.Forecaster(self.config, seed=self.seed)

    def run(self, model):
        cfg = tr.TrainConfig(learning_rate=self.learning_rate, max_epochs=self.epochs,
                             patience=self.epochs + 1, batch_size=self.batch_size,
                             objective=self.objective, seed=self.seed)
        _, history = tr.train(model, self.train_w, self.val_w, cfg)
        return history

    def check(self, history) -> list[str]:
        """Problems with one call's history; empty when it passes.  The
        first passing history becomes the reference for later calls."""
        losses = [(r.train_loss, r.val_loss) for r in history.records]
        problems = check_history(losses, self.epochs, self.reference)
        if not problems and self.reference is None:
            self.reference = losses
        return problems


def check_history(losses, epochs: int, reference) -> list[str]:
    problems = []
    if len(losses) != epochs:
        problems.append(f"ran {len(losses)} epochs, expected {epochs}")
    if not all(math.isfinite(v) for pair in losses for v in pair):
        problems.append("non-finite loss")
    elif losses and not losses[-1][1] < losses[0][1]:
        problems.append(f"validation loss did not fall: {losses[0][1]!r} -> {losses[-1][1]!r}")
    if reference is not None and losses != reference:
        problems.append("loss history differs from the first call of this run")
    return problems


class TrainLong(TrainWorkload):
    name = "train_long"
    config = md.ModelConfig(family="tsmixer", lookback=512, horizon=96, targets=21,
                            hidden=64, blocks=2, norm="batch2d", rev_in=True)
    # 128 training windows (4 steps per epoch) and 64 validation windows.
    ranges = ((0, 735), (735, 894), (894, 990))
    rows = 990

    def make_frame(self):
        return dt.synth_periodic_plus_trend(24, self.rows, slope_limit=0.05,
                                            variates=self.config.targets, seed=self.seed)


class TrainCountsExt(TrainWorkload):
    name = "train_counts_ext"
    objective = "nb_nll"
    config = md.ModelConfig(family="tsmixer_ext", lookback=96, horizon=24, targets=10,
                            hist_covariates=2, future_covariates=4, static_features=3,
                            hidden=32, blocks=2, dropout=0.1, head="negative_binomial")
    # 256 training windows (8 steps per epoch) and 64 validation windows.
    ranges = ((0, 375), (375, 462), (462, 486))
    rows = 486

    def make_frame(self):
        return count_frame(self.rows, self.config, self.seed)


def count_frame(rows: int, config, seed: int) -> dt.SeriesFrame:
    """Seeded Poisson counts with weekly seasonality and per-series levels,
    plus historical, future (calendar and promotion) and static columns."""
    rng = _rng(seed, 0)
    t = np.arange(rows)
    n = config.targets
    level = rng.uniform(2.0, 20.0, size=n)
    weekly = 1.0 + 0.5 * np.sin(2 * np.pi * (t[:, None] + rng.uniform(0, 7, size=n)) / 7.0)
    promo = (rng.uniform(size=rows) < 0.1).astype(float)
    counts = rng.poisson(level * weekly * (1.0 + 0.5 * promo[:, None])).astype(float)
    hist = rng.normal(1.0, 0.1, size=(rows, config.hist_covariates))
    phase = 2 * np.pi * t / 7.0
    calendar = [np.sin(phase), np.cos(phase), promo, (t % 30 == 0).astype(float)]
    future = np.column_stack(calendar[: config.future_covariates])
    static = np.tile(rng.normal(size=config.static_features), (rows, 1))
    blocks = [("y", counts, "target"), ("h", hist, "historical"),
              ("f", future, "future"), ("s", static, "static")]
    columns, roles = [], {}
    for prefix, block, role in blocks:
        for j in range(block.shape[1]):
            columns.append(f"{prefix}{j}")
            roles[f"{prefix}{j}"] = role
    return dt.SeriesFrame(np.hstack([b for _, b, _ in blocks]), columns, roles)


# ---------------------------------------------------------------------------
# evaluation workload


class EvaluateWide:
    """One operation is ``cli.main(["evaluate", ...])`` on files written
    in set-up; its printed ``mse`` and ``wrmsse`` are checked against a
    plain-numpy recomputation from the checkpoint arrays."""

    name = "evaluate_wide"
    lookback, horizon, channels, groups, period = 512, 96, 321, 16, 24
    rows = 720

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def setup(self) -> None:
        L, T, C = self.lookback, self.horizon, self.channels
        base = dt.synth_periodic_plus_trend(self.period, self.rows, slope_limit=0.05,
                                            variates=C, seed=self.seed).values
        values = base + _rng(self.seed, 1).uniform(5.0, 50.0, size=C)
        frame = dt.SeriesFrame(values, [f"s{j:03d}" for j in range(C)],
                               {f"s{j:03d}": "target" for j in range(C)})
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.csv = self.workdir / "wide.csv"
        dt.save_csv(frame, self.csv)
        self.csv_bytes = self.csv.stat().st_size

        train_rows = int(0.7 * self.rows)
        mean = values[:train_rows].mean(axis=0)
        std = values[:train_rows].std(axis=0)
        scaler = dt.Standardizer(list(frame.columns), mean, std)
        model = md.Forecaster(md.ModelConfig(family="linear", lookback=L, horizon=T,
                                             targets=C), seed=self.seed)
        weight, bias = md.construct_periodic_plus_trend_solution(self.period, L, T)
        model.params["proj.weight"][...] = weight
        model.params["proj.bias"][...] = bias
        self.checkpoint = self.workdir / "ckpt"
        self.checkpoint.mkdir(exist_ok=True)
        cli.save_checkpoint(self.checkpoint, model, scaler, self.seed)

        levels = hierarchy_levels(frame.columns, self.groups)
        self.hierarchy = self.workdir / "hierarchy.json"
        self.hierarchy.write_text(json.dumps({"levels": levels}))
        self.expected = reference_scores(values, frame.columns, weight, bias, mean, std,
                                         L, T, levels)

    @property
    def windows_per_op(self) -> int:
        return self.rows - self.lookback - self.horizon + 1

    steps_per_op = 1

    def input_size(self) -> dict:
        return {"rows": self.rows, "channels": self.channels, "windows": self.windows_per_op,
                "lookback": self.lookback, "horizon": self.horizon,
                "hierarchy_levels": 3, "groups": self.groups,
                "csv_bytes": self.csv_bytes}

    def prepare(self):
        return ["evaluate", "--checkpoint", str(self.checkpoint), "--csv", str(self.csv),
                "--hierarchy", str(self.hierarchy)]

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, result) -> list[str]:
        code, report = result
        return check_report(code, report, self.expected)


def hierarchy_levels(columns, groups: int) -> list[dict]:
    """Total, ``groups`` contiguous groups, and one aggregate per series,
    each level weighted uniformly."""
    cols = list(columns)
    chunks = np.array_split(np.arange(len(cols)), groups)
    grouped = {f"g{k:02d}": [cols[i] for i in idx] for k, idx in enumerate(chunks)}
    levels = [("total", {"total": cols}), ("group", grouped), ("series", {c: [c] for c in cols})]
    return [{"name": name, "groups": g, "weights": {k: 1.0 / len(g) for k in g}}
            for name, g in levels]


def reference_scores(values, columns, weight, bias, mean, std, lookback, horizon,
                     levels) -> dict:
    """``mse`` and ``wrmsse`` recomputed in numpy from the checkpoint arrays:
    standardize, ``W @ window + b``, invert the scaler, score."""
    L, T = lookback, horizon
    scaled = (values - mean) / std
    starts = np.arange(values.shape[0] - L - T + 1)
    windows = np.lib.stride_tricks.sliding_window_view(scaled, L, axis=0)[starts]  # N,C,L
    pred = np.einsum("tl,ncl->ntc", weight, windows) + bias[None, :, None]
    pred = pred * std + mean
    truth = np.stack([values[s + L: s + L + T] for s in starts])
    mse = float(np.mean((pred - truth) ** 2))

    last = starts[-1]
    col = {c: j for j, c in enumerate(columns)}
    per_level = []
    for level in levels:
        score = 0.0
        for agg, members in level["groups"].items():
            idx = [col[m] for m in members]
            f = pred[last][:, idx].sum(axis=1)
            a = values[last + L:, idx].sum(axis=1)
            h = values[: last + L, idx].sum(axis=1)
            live = h[np.nonzero(h)[0][0]:]
            score += level["weights"][agg] * math.sqrt(
                np.mean((f - a) ** 2) / np.mean(np.diff(live) ** 2))
        per_level.append(score)
    return {"windows": len(starts), "mse": mse, "wrmsse": float(np.mean(per_level))}


def check_report(code: int, report: str, expected: dict) -> list[str]:
    """Problems with one evaluate report; empty when it passes."""
    if code != 0:
        return [f"evaluate exited {code}"]
    fields = dict(line.split(": ", 1) for line in report.splitlines() if ": " in line)
    problems = []
    if fields.get("windows") != str(expected["windows"]):
        problems.append(f"windows {fields.get('windows')} != {expected['windows']}")
    for key in ("mse", "wrmsse"):
        try:
            got = float(fields[key])
        except (KeyError, ValueError):
            problems.append(f"report has no numeric {key}")
            continue
        if not abs(got - expected[key]) <= EVAL_RTOL * abs(expected[key]):
            problems.append(f"{key} {got!r} differs from reference {expected[key]!r}")
    return problems


WORKLOADS = {"train_long": TrainLong, "train_counts_ext": TrainCountsExt,
             "evaluate_wide": EvaluateWide}
