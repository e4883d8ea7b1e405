"""Command-line interface.

Subcommands: ``train``, ``evaluate``, ``forecast``, ``synth``, and
``verify-theory``.  Experiments are described by an INI file (see
``mixcast train --print-config`` for the full default).  Every artifact
starts with a provenance comment naming the tool version and seed, and
contains no timestamps, so reruns of the same configuration produce
byte-identical outputs.

Exit codes: 0 success, 1 usage/configuration/data errors and arrays too
large for the machine, 2 numeric failures and internal errors.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import traceback
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import __version__
from . import data as dt
from . import metrics as mt
from . import models as md
from . import training as tr
from .errors import (ConfigurationError, DataError, FormatError, MixcastError, NumericError,
                     reading)
from .params_io import load_params, save_params
from .rng import make_rng

_BUFFER_PREFIX = "buffer:"


def provenance(seed: int | None = None) -> str:
    if seed is None:
        return f"mixcast {__version__}"
    return f"mixcast {__version__} seed={seed}"


# ---------------------------------------------------------------------------
# experiment configuration


_DEFAULTS: dict[str, dict[str, str]] = {
    "run": {"seed": "0", "out": "runs/experiment"},
    "data": {"csv": "", "schema": "", "standardize": "true"},
    "split": {"fractions": "0.7 0.2 0.1", "ranges": ""},
    "window": {"lookback": "48", "horizon": "12", "stride": "1"},
    "model": {
        "family": "tsmixer",
        "hidden": "16",
        "blocks": "2",
        "dropout": "0.0",
        "norm": "batch2d",
        "norm_placement": "",
        "batch_stats": "joint",
        "head": "point",
        "rev_in": "false",
    },
    "train": {f.name: str(f.default) for f in fields(tr.TrainConfig) if f.name != "seed"},
}


@dataclass
class Experiment:
    """Fully resolved experiment settings (strings parsed and validated)."""

    seed: int
    out: Path
    csv: Path | None
    schema: Path | None
    standardize: bool
    split: dt.SplitSpec
    window: dt.WindowSpec
    model: dict  # typed ModelConfig fields of [model]; channel counts come from the data
    train: tr.TrainConfig
    resolved: dict[str, dict[str, str]]  # for the config snapshot


def _merge_config(path: Path | None) -> dict[str, dict[str, str]]:
    merged = {section: dict(keys) for section, keys in _DEFAULTS.items()}
    if path is None:
        return merged
    parser = dt.read_ini(path, ConfigurationError)
    for section in parser.sections():
        if section not in merged:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in merged[section]:
                raise ConfigurationError(f"unknown config key {key!r} in section [{section}]")
            merged[section][key] = value
    return merged


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"{where} must be an integer, got {raw!r}") from None


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"{where} must be a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigurationError(f"{where} must be a finite number, got {raw!r}")
    return value


def _parse_bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigurationError(f"{where} must be a boolean, got {raw!r}")


def _parse_split(section: dict[str, str]) -> dt.SplitSpec:
    ranges_raw = section["ranges"].strip()
    if ranges_raw:
        parts = ranges_raw.split()
        if len(parts) != 3:
            raise ConfigurationError(f"split.ranges needs three start:stop pairs, got {ranges_raw!r}")
        ranges = []
        for part in parts:
            lo, _, hi = part.partition(":")
            ranges.append((_parse_int(lo, "split.ranges"), _parse_int(hi, "split.ranges")))
        spec = dt.SplitSpec(ranges=tuple(ranges))
    else:
        fracs = [_parse_float(f, "split.fractions") for f in section["fractions"].split()]
        if len(fracs) != 3:
            raise ConfigurationError("split.fractions needs three values")
        spec = dt.SplitSpec(fractions=tuple(fracs))
    spec.validate()
    return spec


def _parse_fields(cls, raw: dict[str, str], where: str, parse_str=str.strip) -> dict:
    """The values of ``raw`` parsed by the types of ``cls``'s fields of the
    same names; errors name a key as ``where + key``, and ``parse_str``
    reads the ``str`` fields."""
    parsers = {"int": _parse_int, "float": _parse_float, "bool": _parse_bool,
               "str": lambda value, _: parse_str(value)}
    types = {f.name: f.type for f in fields(cls)}
    return {key: parsers[types[key]](value, f"{where}{key}") for key, value in raw.items()}


def load_experiment(path: Path | None, out_override: str | None = None) -> Experiment:
    raw = _merge_config(path)
    if out_override:
        raw["run"]["out"] = out_override
    seed = _parse_int(raw["run"]["seed"], "run.seed")
    window = dt.WindowSpec(**_parse_fields(dt.WindowSpec, raw["window"], "window."))
    window.validate()
    train_cfg = tr.TrainConfig(**_parse_fields(tr.TrainConfig, raw["train"], "train."), seed=seed)
    train_cfg.validate()
    csv, schema = (raw["data"][key].strip() for key in ("csv", "schema"))
    return Experiment(
        seed=seed,
        out=Path(raw["run"]["out"]),
        csv=Path(csv) if csv else None,
        schema=Path(schema) if schema else None,
        standardize=_parse_bool(raw["data"]["standardize"], "data.standardize"),
        split=_parse_split(raw["split"]),
        window=window,
        model=_parse_fields(md.ModelConfig, raw["model"], "model."),
        train=train_cfg,
        resolved=raw,
    )


def _ini_text(seed: int, sections: dict[str, dict[str, str]]) -> str:
    """An INI file under a provenance line, sections and keys in the given order."""
    lines = [f"# {provenance(seed)}"]
    for section, keys in sections.items():
        lines += [f"[{section}]", *(f"{key} = {value}" for key, value in keys.items()), ""]
    return "\n".join(lines)


# The ModelConfig field that counts each role's columns.
_ROLE_COUNTS = {"target": "targets", "historical": "hist_covariates",
                "future": "future_covariates", "static": "static_features"}


def _model_config_for(frame: dt.SeriesFrame, exp: Experiment) -> md.ModelConfig:
    return md.ModelConfig(**exp.model, lookback=exp.window.lookback, horizon=exp.window.horizon,
                          **{field: len(frame.columns_for(role))
                             for role, field in _ROLE_COUNTS.items()})


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(out: Path, model: md.Forecaster, scaler: dt.Standardizer | None,
                    seed: int) -> None:
    pre = {"standardize": str(scaler is not None)}
    if scaler is not None:
        pre["columns"] = " ".join(scaler.columns)
        for key in ("mean", "std"):
            pre[key] = " ".join(repr(float(v)) for v in getattr(scaler, key))
    model_keys = {f.name: repr(getattr(model.config, f.name)) for f in fields(md.ModelConfig)}
    (out / "model.ini").write_text(_ini_text(seed, {"model": model_keys, "preprocess": pre}))
    blob = dict(model.params)
    for name, buf in model.buffers.items():
        blob[_BUFFER_PREFIX + name] = buf
    save_params(out / "params.bin", blob)


def _read_section(parser: configparser.ConfigParser, ini: Path, section: str,
                  keys: list[str]) -> dict[str, str]:
    """The raw values of ``section``, which must hold exactly ``keys``."""
    if not parser.has_section(section):
        raise ConfigurationError(f"{ini}: no [{section}] section")
    raw = dict(parser.items(section))
    missing = [k for k in keys if k not in raw]
    if missing:
        raise ConfigurationError(f"{ini}: [{section}] is missing key {missing[0]!r}")
    extra = sorted(set(raw) - set(keys))
    if extra:
        raise ConfigurationError(f"{ini}: [{section}] has unknown key {extra[0]!r}")
    return raw


def _read_scaler(parser: configparser.ConfigParser, ini: Path) -> dt.Standardizer | None:
    # A missing section or flag is named by _read_section.
    standardize = not parser.has_option("preprocess", "standardize") or _parse_bool(
        parser["preprocess"]["standardize"], f"{ini}: preprocess.standardize")
    keys = ["standardize", "columns", "mean", "std"] if standardize else ["standardize"]
    pre = _read_section(parser, ini, "preprocess", keys)
    if not standardize:
        return None
    columns = pre["columns"].split()
    stats = {key: np.array([_parse_float(v, f"{ini}: preprocess.{key}") for v in pre[key].split()])
             for key in ("mean", "std")}
    for key, values in stats.items():
        if values.size != len(columns):
            raise ConfigurationError(
                f"{ini}: preprocess.{key} has {values.size} values for {len(columns)} columns"
            )
    if np.any(stats["std"] <= 0):
        raise ConfigurationError(f"{ini}: preprocess.std must be positive, got {pre['std']!r}")
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(1.0 / stats["std"])):
            raise ConfigurationError(
                f"{ini}: preprocess.std must be positive and invertible, got {pre['std']!r}")
    return dt.Standardizer(columns, stats["mean"], stats["std"])


def load_checkpoint(path: Path) -> tuple[md.Forecaster, dt.Standardizer | None]:
    path = Path(path)
    ini = path / "model.ini" if path.is_dir() else path
    if not ini.exists():
        raise ConfigurationError(f"checkpoint {path} has no model.ini")
    parser = dt.read_ini(ini, ConfigurationError)
    raw = _read_section(parser, ini, "model", [f.name for f in fields(md.ModelConfig)])
    cfg = md.ModelConfig(**_parse_fields(md.ModelConfig, raw, f"{ini}: model.",
                                         lambda value: value.strip("'\"")))
    param_shapes, buffer_shapes = md.Forecaster.shapes(cfg)
    params_path = ini.parent / "params.bin"
    blob = load_params(params_path)
    slots = [("parameter", name, name, shape) for name, shape in param_shapes.items()]
    slots += [("buffer", name, _BUFFER_PREFIX + name, shape)
              for name, shape in buffer_shapes.items()]
    # The index must match model.ini before any parameter is allocated, so a
    # dimension no array could have is a mismatch here, not a numpy failure.
    for kind, name, key, shape in slots:
        if key not in blob:
            raise ConfigurationError(f"checkpoint is missing {kind} {name!r}")
        if blob[key].shape != shape:
            raise ConfigurationError(
                f"checkpoint {kind} {name!r} has shape {blob[key].shape}, expected {shape}"
            )
    unknown = sorted(set(blob) - {key for _, _, key, _ in slots})
    if unknown:
        raise FormatError(f"{params_path}: unknown entry {unknown[0]!r} for this model")
    model = md.Forecaster(cfg, seed=0)
    for kind, name, key, _ in slots:
        if not np.all(np.isfinite(blob[key])):
            raise FormatError(f"{params_path}: {kind} {name!r} holds non-finite values")
        (model.params if kind == "parameter" else model.buffers)[name][...] = blob[key]
    scaler = _read_scaler(parser, ini)
    if scaler is not None and cfg.head == "negative_binomial":  # as cmd_train refuses nb_nll
        raise ConfigurationError(f"{ini}: a negative-binomial head models raw counts, "
                                 "so its checkpoint must set preprocess.standardize = False")
    return model, scaler


# ---------------------------------------------------------------------------
# subcommands


# The experiment fields that size the model's arrays, by their INI names.
_SIZE_FIELDS = {"lookback": "window.lookback", "horizon": "window.horizon",
                "hidden": "model.hidden"}


def _check_array_sizes(config: md.ModelConfig, batch: int) -> None:
    """Raise a ConfigurationError when a parameter of ``config``, or the
    widest activation of a ``batch``-window step, has more bytes than numpy
    can address; allocates nothing.  It names the largest of
    ``_SIZE_FIELDS`` among that array's extents (or of all of them)."""
    arrays = {f"parameter {name!r}": shape
              for name, shape in md.Forecaster.shapes(config)[0].items()}
    arrays["one batch's widest activation"] = (batch, config.lookback, config.activation_width)
    for what, shape in arrays.items():
        if math.prod(shape) > md.MAX_FLOATS:
            field = max(_SIZE_FIELDS, key=lambda name: (getattr(config, name) in shape,
                                                        getattr(config, name)))
            raise ConfigurationError(
                f"{_SIZE_FIELDS[field]} = {getattr(config, field)} is too large: "
                f"{what} would have shape {shape}, more bytes than numpy can address")


def _read_csv(args, model: md.Forecaster, scaler: dt.Standardizer | None) -> dt.SeriesFrame:
    """The frame of ``--csv`` under ``--schema``: a DataError unless its role counts are the
    model's and, given a scaler, its non-static columns are the scaler's, in order."""
    frame = dt.load_csv(args.csv, dt.load_schema(args.schema) if args.schema else None)
    for role, field in _ROLE_COUNTS.items():
        got, want = len(frame.columns_for(role)), getattr(model.config, field)
        if got != want:
            raise DataError(f"{args.csv}: {got} {role} columns, but the checkpoint has {want}")
    if scaler is not None:
        got = [frame.columns[j] for j in frame.scaled_indices()]
        if got != scaler.columns:
            raise DataError(f"{args.csv}: the non-static columns are {' '.join(got)}, but the "
                            f"checkpoint expects {' '.join(scaler.columns)}, in that order")
    return frame


def cmd_train(args) -> int:
    exp = load_experiment(args.config, args.out)
    args.out = str(exp.out)  # resolved dir, so failures can leave error.log there
    if args.print_config:
        print(_ini_text(exp.seed, exp.resolved))
        return 0
    if exp.csv is None:
        raise ConfigurationError("data.csv must point at a training CSV")
    if exp.train.objective == "nb_nll" and exp.standardize:
        raise ConfigurationError(
            "objective nb_nll models non-negative counts; set data.standardize = false"
        )
    out = exp.out
    with reading(out, ConfigurationError, "write"):
        out.mkdir(parents=True, exist_ok=True)
    frame = dt.load_csv(exp.csv, dt.load_schema(exp.schema) if exp.schema else None)
    bounds = exp.split.bounds(frame.n_steps)
    scaler = None
    if exp.standardize:
        frame, scaler = dt.global_standardize(frame, train_rows=bounds[0][1])
        for col in scaler.columns:  # model.ini lists them space-separated
            if col.split() != [col]:
                raise DataError(f"{exp.csv}: column {col!r} cannot be saved in model.ini; "
                                "a column name must be non-empty and hold no whitespace")
    config = _model_config_for(frame, exp)
    # A batch holds at most one window per row of the frame.
    _check_array_sizes(config, min(exp.train.batch_size, frame.n_steps))
    # Only the training and validation windows: train never reads the test split.
    train_w, val_w = (dt.windows_between(frame, exp.window, lo, hi) for lo, hi in bounds[:2])
    for name, windows, (lo, hi) in zip(("training", "validation"), (train_w, val_w), bounds):
        if len(windows) == 0:
            raise DataError(f"{exp.csv}: the {name} split, rows [{lo}, {hi}), cannot host "
                            f"lookback {exp.window.lookback} + horizon {exp.window.horizon}")
    del frame  # the window sets hold every row training reads
    model = md.Forecaster(config, seed=exp.seed)
    _, history = tr.train(model, train_w, val_w, exp.train)

    hist_lines = [f"# {provenance(exp.seed)}", "epoch,train_loss,val_loss"] + [
        f"{rec.epoch},{rec.train_loss!r},{rec.val_loss!r}" for rec in history.records]
    with reading(out, ConfigurationError, "write"):
        (out / "config.ini").write_text(_ini_text(exp.seed, exp.resolved))
        save_checkpoint(out, model, scaler, exp.seed)
        (out / "history.csv").write_text("\n".join(hist_lines) + "\n")
    print(f"trained {model.config.family}: best epoch {history.best_epoch}, "
          f"val loss {history.best_val_loss:.6g} ({history.stop_reason}); artifacts in {out}")
    return 0


def cmd_evaluate(args) -> int:
    model, scaler = load_checkpoint(args.checkpoint)
    raw_frame = _read_csv(args, model, scaler)
    cfg = model.config
    # The scaled frame is dropped once windowed: the windows hold every row they read.
    windows = dt.make_windows(scaler.apply(raw_frame) if scaler is not None else raw_frame,
                              dt.WindowSpec(cfg.lookback, cfg.horizon))
    if len(windows) == 0:
        raise DataError(f"{args.csv}: needs at least {cfg.lookback + cfg.horizon} rows to evaluate")
    target_cols = raw_frame.columns_for("target")
    idx = raw_frame.indices_for("target")
    # Window k's truth is rows [k, k + horizon) of a row-major copy, laid out like its forecast
    # (``take`` copies once and row-major; ``[:, idx]`` would copy column-major).
    truth = sliding_window_view(raw_frame.values[cfg.lookback:].take(idx, axis=1),
                                cfg.horizon, axis=0).swapaxes(1, 2)
    to_raw = scaler.subset(target_cols).invert if scaler is not None else np.asarray
    # Score each chunk as it is forecast, so memory does not grow with the window count.
    sq_sum = abs_sum = 0.0
    with np.errstate(all="ignore"):  # no numpy warnings: the check below names a failure
        for rows, chunk in tr.eval_chunks(windows, cfg.activation_width):
            out = model.forward(chunk.history, chunk.future, chunk.static)
            pred = to_raw((out.point if out.point is not None else out.mean).data)
            err = pred - truth[rows]
            sq_sum += float(np.sum(err ** 2))
            abs_sum += float(np.sum(np.abs(err, out=err)))
    if not (math.isfinite(sq_sum) and math.isfinite(abs_sum)):
        raise NumericError(f"the forecast errors are not finite: squared sum {sq_sum!r}, "
                           f"absolute sum {abs_sum!r}")
    mse, mae = sq_sum / truth.size, abs_sum / truth.size
    lines = [f"# {provenance()}", f"windows: {len(windows)}",
             f"mse: {mse!r}", f"mae: {mae!r}"]
    last = [pred[-1].T, truth[-1].T.copy()]  # the final horizon, one row per target
    del windows, truth, chunk, out, err  # so the hierarchy holds nothing window-sized

    if args.hierarchy:
        spec = mt.load_hierarchy(args.hierarchy)
        # Single holdout: the last window (stride 1) forecasts the final horizon.
        cut = raw_frame.n_steps - cfg.horizon
        series = [*last, raw_frame.values[:cut, idx].T]
        score, per_level = mt.wrmsse(*(dict(zip(target_cols, s)) for s in series), spec)
        lines.append(f"wrmsse: {score!r}")
        lines += [f"level {name}: {value!r}" for name, value in per_level.items()]
        scores = mt.rmsse_rows(*series, lambda i: f"series {target_cols[i]!r}")
        per_series = sorted(zip(scores.tolist(), target_cols), reverse=True)
        worst = " ".join(f"{c}={v:.4f}" for v, c in per_series[:5])
        lines.append(f"worst series: {worst}")

    report = "\n".join(lines) + "\n"
    if args.out:
        with reading(args.out, ConfigurationError, "write"):
            Path(args.out).write_text(report)
    print(report, end="")
    return 0


def cmd_forecast(args) -> int:
    model, scaler = load_checkpoint(args.checkpoint)
    if model.config.future_covariates:
        raise ConfigurationError(
            "forecasting with future covariates needs horizon rows that do not exist yet; "
            "provide them via evaluate on an extended CSV instead"
        )
    frame = _read_csv(args, model, scaler)
    cfg = model.config
    if frame.n_steps < cfg.lookback:
        raise DataError(
            f"{args.csv}: forecasting needs at least lookback = {cfg.lookback} rows, "
            f"got {frame.n_steps}"
        )
    static = (frame.values[0, frame.indices_for("static")][None, None, :]
              if cfg.static_features else None)
    frame = dt.SeriesFrame(frame.values[-cfg.lookback:], frame.columns, frame.roles)
    frame = scaler.apply(frame) if scaler is not None else frame  # just the rows it reads
    history = frame.values[:, frame.indices_for("target") + frame.indices_for("historical")][None]
    target_cols = frame.columns_for("target")
    with np.errstate(all="ignore"):  # no numpy warnings: the check below names a failure
        out = model.forward(history, None, static)
        if out.point is not None:
            pred, cols = out.point.data[0], target_cols
            if scaler is not None:
                pred = scaler.subset(target_cols).invert(pred)
        else:
            pred = np.hstack([out.mean.data[0], out.dispersion.data[0]])
            cols = [f"{c}_mean" for c in target_cols] + [f"{c}_dispersion" for c in target_cols]
    if not np.isfinite(pred).all():
        raise NumericError(f"the forecast of {args.checkpoint} holds non-finite values")
    dt.save_csv(dt.SeriesFrame(pred, cols, {c: "target" for c in cols}), args.out,
                header_lines=(provenance(),))
    print(f"wrote {cfg.horizon} forecast rows to {args.out}")
    return 0


def cmd_synth(args) -> int:
    for shape in (("steps", "variates"), ("period", "variates")):  # the frame, a template
        if math.prod(max(getattr(args, flag), 0) for flag in shape) > md.MAX_FLOATS:
            flag = max(shape, key=lambda name: getattr(args, name))
            raise ConfigurationError(
                f"--{flag} = {getattr(args, flag)} is too large: a ({', '.join(shape)}) array "
                "would have more bytes than numpy can address")
    kind = args.kind
    if kind == "periodic":
        frame = dt.synth_periodic(args.period, args.steps, variates=args.variates,
                                  amplitude=args.amplitude, seed=args.seed, kind=args.waveform)
    elif kind == "affine":
        frame = dt.synth_affine_periodic(args.period, args.steps, scale=args.scale,
                                         offset=args.offset, variates=args.variates,
                                         seed=args.seed)
    elif kind == "trend":
        frame = dt.synth_periodic_plus_trend(args.period, args.steps,
                                             slope_limit=args.slope_limit,
                                             variates=args.variates, seed=args.seed)
    else:  # crossvariate
        frame = dt.synth_crossvariate(args.steps, lag=args.lag, noise=args.noise,
                                      seed=args.seed)
    dt.save_csv(frame, args.out, header_lines=(provenance(args.seed),))
    print(f"wrote {frame.n_steps} x {len(frame.columns)} {kind} series to {args.out}")
    return 0


def _final_horizon(frame: dt.SeriesFrame, w: np.ndarray, b: np.ndarray):
    """Linear forecast (weights ``w``, bias ``b``) of the final horizon of the
    frame's first column from the lookback before it, and the actual values."""
    horizon, lookback = w.shape
    hist = frame.values[-horizon - lookback : -horizon][None, :, :]
    return md.forward_linear(hist, w, b).data[0, :, 0], frame.values[-horizon:, 0]


def cmd_verify_theory(args) -> int:
    if args.trials < 1:
        raise ConfigurationError(f"--trials must be at least 1, got {args.trials}")
    rng_master = make_rng(args.seed, 17)
    violations: list[str] = []
    worst_periodic = 0.0
    for trial in range(args.trials):
        period = int(rng_master.integers(2, 9))
        lookback = period + 1 + int(rng_master.integers(0, 8))
        horizon = int(rng_master.integers(1, 2 * period + 1))
        sub_seed = int(rng_master.integers(1 << 30))

        # exact solution on a purely periodic signal
        w, b = md.construct_periodic_solution(period, lookback, horizon)
        if args.corrupt:
            w = w.copy()
            w[0, 0] += 0.01
        pred, targ = _final_horizon(dt.synth_periodic(period, lookback + horizon + 40,
                                                      seed=sub_seed, kind="template"), w, b)
        err = float(np.max(np.abs(pred - targ)))
        worst_periodic = max(worst_periodic, err)
        if err > 1e-9:
            violations.append(f"trial {trial}: periodic solution error {err:.3e} > 1e-9 "
                              f"(period={period}, lookback={lookback}, horizon={horizon})")

        # bounded error under a Lipschitz trend
        K = float(rng_master.uniform(0.0, 1.5))
        w2, b2 = md.construct_periodic_plus_trend_solution(period, lookback, horizon)
        pred2, targ2 = _final_horizon(dt.synth_periodic_plus_trend(
            period, lookback + horizon + 40, slope_limit=K, seed=sub_seed), w2, b2)
        steps = np.arange(1, horizon + 1)
        bound = K * (steps + np.minimum(steps, period))
        excess = np.abs(pred2 - targ2) - bound
        if np.any(excess > 1e-9):
            i = int(np.argmax(excess))
            violations.append(
                f"trial {trial}: trend-tracking error {abs(pred2[i] - targ2[i]):.3e} exceeds "
                f"bound {bound[i]:.3e} at step {i + 1} (period={period}, K={K:.3f})"
            )

    print(f"# {provenance(args.seed)}")
    print(f"periodic construction: {args.trials} trials, max error {worst_periodic:.3e} "
          f"(gate 1e-9)")
    print(f"trend-tracking construction: {args.trials} trials against the "
          f"K*(step + min(step, period)) bound")
    if violations:
        for v in violations:
            print(f"VIOLATION: {v}")
        print(f"{len(violations)} violation(s) found")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixcast",
                                     description="Mixer-style time-series forecasting")
    parser.add_argument("--version", action="version", version=f"mixcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from an experiment INI")
    p_train.add_argument("--config", type=Path, default=None, help="experiment INI file")
    p_train.add_argument("--out", default=None, help="override the output directory")
    p_train.add_argument("--print-config", action="store_true",
                         help="print the fully resolved configuration and exit")
    p_train.set_defaults(fn=cmd_train, out_is_dir=True)

    p_eval = sub.add_parser("evaluate", help="score a checkpoint on a CSV")
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    p_eval.add_argument("--csv", type=Path, required=True)
    p_eval.add_argument("--schema", type=Path, default=None)
    p_eval.add_argument("--hierarchy", type=Path, default=None,
                        help="JSON hierarchy spec enabling the weighted scaled score")
    p_eval.add_argument("--out", type=Path, default=None, help="also write the report here")
    p_eval.set_defaults(fn=cmd_evaluate, out_is_dir=False)

    p_fc = sub.add_parser("forecast", help="forecast past the end of a CSV")
    p_fc.add_argument("--checkpoint", type=Path, required=True)
    p_fc.add_argument("--csv", type=Path, required=True)
    p_fc.add_argument("--schema", type=Path, default=None)
    p_fc.add_argument("--out", type=Path, required=True)
    p_fc.set_defaults(fn=cmd_forecast, out_is_dir=False)

    p_synth = sub.add_parser("synth", help="generate synthetic series")
    p_synth.add_argument("--kind", choices=("periodic", "affine", "trend", "crossvariate"),
                         required=True)
    p_synth.add_argument("--steps", type=int, required=True)
    p_synth.add_argument("--period", type=int, default=7)
    p_synth.add_argument("--variates", type=int, default=1)
    p_synth.add_argument("--amplitude", type=float, default=1.0)
    p_synth.add_argument("--waveform", choices=("sine", "template"), default="sine")
    p_synth.add_argument("--scale", type=float, default=1.0)
    p_synth.add_argument("--offset", type=float, default=0.0)
    p_synth.add_argument("--slope-limit", type=float, default=0.1)
    p_synth.add_argument("--lag", type=int, default=8)
    p_synth.add_argument("--noise", type=float, default=0.05)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", type=Path, required=True)
    p_synth.set_defaults(fn=cmd_synth, out_is_dir=False)

    p_vt = sub.add_parser("verify-theory",
                          help="check the closed-form solutions against fresh signals")
    p_vt.add_argument("--trials", type=int, default=100)
    p_vt.add_argument("--seed", type=int, default=0)
    p_vt.add_argument("--corrupt", action="store_true",
                      help="perturb the periodic solution to prove the gate trips")
    p_vt.set_defaults(fn=cmd_verify_theory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            return args.fn(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        _write_error_log(args)
        return 2
    except (MixcastError, MemoryError) as exc:  # numpy's MemoryError names the array
        print(f"error: {exc}", file=sys.stderr)
        _write_error_log(args)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort internal error
        print(f"internal error: {exc}", file=sys.stderr)
        _write_error_log(args)
        return 2


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one ``warning:`` line on stderr, without its source."""
    print(f"warning: {message}", file=sys.stderr)


def _write_error_log(args) -> None:
    """Save the traceback to ``error.log`` in the command's run directory
    (``train``) or next to its output file (``evaluate``, ``forecast``,
    ``synth``); a command without ``--out`` writes none."""
    out = getattr(args, "out", None)
    if not out:
        return
    log_dir = Path(out) if args.out_is_dir else Path(out).parent
    try:
        if log_dir.is_dir():  # a failed run creates no directory the user did not ask for
            (log_dir / "error.log").write_text(traceback.format_exc())  # of the handled error
    except OSError:
        pass  # the diagnostic already went to stderr


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
