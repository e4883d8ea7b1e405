"""End-to-end tests for the command-line interface.

Everything runs in-process through ``cli.main`` so exit codes and output
files can be asserted directly; training runs are kept tiny.
"""

import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mixcast import __version__
from mixcast import cli
from mixcast import data as dt
from mixcast import models as md
from mixcast.params_io import MAGIC, VERSION, load_params, save_params


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_series(path, steps=200, period=7, variates=2, seed=3):
    run_cli("synth", "--kind", "periodic", "--steps", str(steps), "--period",
            str(period), "--variates", str(variates), "--seed", str(seed),
            "--out", str(path))


LINEAR_INI = """\
[run]
seed = 7
out = {out}

[data]
csv = series.csv

[window]
lookback = 14
horizon = 7

[model]
family = linear
norm = identity

[train]
learning_rate = 0.01
max_epochs = 25
patience = 5
"""


def train_linear(workdir, out="run1"):
    write_series(workdir / "series.csv")
    (workdir / "exp.ini").write_text(LINEAR_INI.format(out=out))
    assert run_cli("train", "--config", "exp.ini") == 0
    return workdir / out


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_provenance_and_loadable_csv(workdir):
    assert run_cli("synth", "--kind", "periodic", "--steps", "50", "--period", "5",
                   "--variates", "3", "--seed", "9", "--out", "s.csv") == 0
    text = (workdir / "s.csv").read_text()
    assert text.splitlines()[0] == f"# mixcast {__version__} seed=9"
    frame = dt.load_csv(workdir / "s.csv")
    assert frame.values.shape == (50, 3)
    # exactly periodic
    assert np.allclose(frame.values[5:], frame.values[:-5])


@pytest.mark.parametrize("flag, shape", [("steps", "steps, variates"),
                                         ("variates", "steps, variates"),
                                         ("period", "period, variates")])
def test_synth_sizes_numpy_cannot_hold_exit_1(workdir, capsys, flag, shape):
    assert run_cli("synth", "--kind", "periodic", "--steps", "20",  # the last --steps counts
                   f"--{flag}", "100000000000000000000", "--out", "s.csv") == 1
    assert_one_error(capsys, f"--{flag} = 100000000000000000000 is too large: "
                             f"a ({shape}) array would have more bytes than numpy can address")


def test_a_negative_seed_exits_1(workdir, capsys):
    message = "seed must be a non-negative integer, got -1"
    assert_train_rejects_line(workdir, capsys, "run", "seed = -1", message)
    for argv in (("synth", "--kind", "periodic", "--steps", "20", "--out", "s.csv"),
                 ("verify-theory", "--trials", "1")):
        assert run_cli(*argv, "--seed", "-1") == 1
        assert_one_error(capsys, message)


@pytest.mark.parametrize("limit", ["inf", "nan", "1e308", "-1"])
def test_synth_slope_limits_outside_the_float_range_exit_1(workdir, capsys, limit):
    assert run_cli("synth", "--kind", "trend", "--steps", "20", "--slope-limit", limit,
                   "--out", "s.csv") == 1
    assert_one_error(capsys, f"slope_limit must lie in [0, 8.988465674311579e+307], "
                             f"got {float(limit)}")


def test_synth_affine_overflow_is_one_error_line(workdir, capsys):
    assert run_cli("synth", "--kind", "affine", "--steps", "200", "--scale", "1e200",
                   "--period", "2", "--out", "s.csv") == 1
    assert_one_error(capsys, "frame contains non-finite values")


def test_synth_crossvariate_kind(workdir):
    assert run_cli("synth", "--kind", "crossvariate", "--steps", "60", "--lag", "4",
                   "--noise", "0.0", "--seed", "1", "--out", "x.csv") == 0
    frame = dt.load_csv(workdir / "x.csv")
    assert np.allclose(frame.values[4:, 1], frame.values[:-4, 0])


# ---------------------------------------------------------------------------
# train


def test_train_produces_all_artifacts(workdir, capsys):
    out = train_linear(workdir)
    for name in ("config.ini", "model.ini", "params.bin", "history.csv"):
        assert (out / name).exists(), name
    assert "trained linear" in capsys.readouterr().out
    header = (out / "history.csv").read_text().splitlines()
    assert header[0] == f"# mixcast {__version__} seed=7"
    assert header[1] == "epoch,train_loss,val_loss"
    # losses parse back to floats and decrease overall
    first = float(header[2].split(",")[1])
    last = float(header[-1].split(",")[1])
    assert last < first


def test_train_windows_only_the_training_and_validation_rows(workdir, monkeypatch):
    # 200 rows split 140 / 40 / 20: the last validation window's target ends at
    # row 180, and no window set reaches into the test rows train never reads.
    made = []

    class Recorded(dt.WindowBatch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self.starts)

    monkeypatch.setattr(dt, "WindowBatch", Recorded)
    train_linear(workdir)
    assert max(int(starts.max()) for starts in made if starts.size) + 14 + 7 == 180


def test_rerun_is_byte_identical(workdir):
    out1 = train_linear(workdir, out="run1")
    (workdir / "exp.ini").write_text(LINEAR_INI.format(out="run2"))
    assert run_cli("train", "--config", "exp.ini") == 0
    out2 = workdir / "run2"
    for name in ("model.ini", "params.bin", "history.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_a_test_split_without_windows_prints_nothing(workdir, capsys):
    # 40 rows leave the test split rows [36, 40), too few for 6 + 5 steps;
    # train does not use that split.
    dt.save_csv(dt.synth_periodic(5, 40, variates=2, seed=2), workdir / "series.csv")
    (workdir / "exp.ini").write_text("[data]\ncsv = series.csv\n[window]\nlookback = 6\n"
                                     "horizon = 5\n[model]\nhidden = 4\nblocks = 1\n"
                                     "[train]\nmax_epochs = 1\n")
    assert run_cli("train", "--config", "exp.ini", "--out", "run") == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("trained ") and out.count("\n") == 1


@pytest.mark.parametrize("settings, message", [
    ("[window]\nlookback = 300\nhorizon = 4\n",
     "series.csv: the training split, rows [0, 140), cannot host lookback 300 + horizon 4"),
    ("[window]\nlookback = 16\nhorizon = 4\n[split]\nranges = 0:150 150:153 153:200\n",
     "series.csv: the validation split, rows [150, 153), cannot host lookback 16 + horizon 4"),
], ids=["training", "validation"])
def test_an_empty_training_or_validation_split_is_one_error_line(workdir, capsys, settings,
                                                                 message):
    write_series(workdir / "series.csv")
    (workdir / "exp.ini").write_text("[data]\ncsv = series.csv\n" + settings)
    capsys.readouterr()
    assert run_cli("train", "--config", "exp.ini", "--out", "run") == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_evaluate_on_a_csv_too_short_for_a_window_is_one_error_line(workdir, capsys):
    ckpt = broken_checkpoint(workdir, "none")  # lookback 14, horizon 7
    write_series(workdir / "short.csv", steps=20)
    capsys.readouterr()
    assert run_cli("evaluate", "--checkpoint", str(ckpt), "--csv", "short.csv") == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: short.csv: needs at least 21 rows to evaluate\n")


@pytest.mark.parametrize("stride, batch_size, reason", [
    (1, 1, "batch_size = 1 over 105 training windows leaves a batch of 1; "
           "raise batch_size or set norm = layer"),
    # No batch_size helps a split of one window.
    (500, 32, "the training split holds a single window, rows [0, 36); "
              "use more rows, a smaller window.stride or norm = layer")])
def test_a_batch2d_batch_of_one_window_is_refused_up_front(workdir, capsys, stride, batch_size,
                                                           reason):
    write_series(workdir / "series.csv")
    (workdir / "exp.ini").write_text(
        f"[data]\ncsv = series.csv\n[window]\nlookback = 32\nhorizon = 4\nstride = {stride}\n"
        f"[model]\nnorm = batch2d\n[train]\nbatch_size = {batch_size}\n")
    capsys.readouterr()
    assert run_cli("train", "--config", "exp.ini", "--out", "run") == 1
    assert capsys.readouterr().err == (
        f"error: batch2d norms need training batches of >= 2 windows, but {reason}\n")


def test_a_constant_column_trains_with_one_warning_line(workdir, capsys):
    write_series(workdir / "series.csv")
    frame = dt.load_csv(workdir / "series.csv")
    values = np.hstack([frame.values, np.full((frame.n_steps, 1), 3.0)])
    dt.save_csv(dt.SeriesFrame(values, frame.columns + ["c"], {**frame.roles, "c": "target"}),
                workdir / "series.csv")
    (workdir / "exp.ini").write_text(
        LINEAR_INI.format(out="run").replace("max_epochs = 25", "max_epochs = 2"))
    capsys.readouterr()
    assert run_cli("train", "--config", "exp.ini") == 0
    assert capsys.readouterr().err == (
        "warning: columns ['c'] are constant over the training rows; "
        "standardizing with a floored deviation\n")


@pytest.mark.parametrize("value", [1.5e308, 1e200])  # the mean overflows; only the variance
def test_overflowing_training_statistics_are_one_error_line(workdir, capsys, value):
    (workdir / "series.csv").write_text("y0,y1\n" + "".join(
        f"{(-1) ** t * value!r},{math.sin(t / 3)!r}\n" for t in range(120)))
    (workdir / "exp.ini").write_text("[run]\nout = run\n[data]\ncsv = series.csv\n"
                                     "[window]\nlookback = 16\nhorizon = 4\n")
    capsys.readouterr()
    assert run_cli(*TRAIN) == 1
    assert_one_error(capsys, "column 'y0' overflows in its training statistics")
    assert not (workdir / "run" / "model.ini").exists()


def test_two_split_fractions_are_one_error_line(workdir, capsys):
    write_series(workdir / "series.csv")
    (workdir / "exp.ini").write_text(LINEAR_INI.format(out="run")
                                     + "\n[split]\nfractions = 0.5 0.5\n")
    capsys.readouterr()
    assert run_cli("train", "--config", "exp.ini") == 1
    assert capsys.readouterr() == ("", "error: split.fractions needs three values\n")
    assert not (workdir / "run").exists()


def test_print_config_shows_resolved_defaults(workdir, capsys):
    assert run_cli("train", "--print-config") == 0
    text = capsys.readouterr().out
    assert "[train]" in text
    assert "learning_rate = 0.001" in text
    assert text.splitlines()[0] == f"# mixcast {__version__} seed=0"


def test_unknown_config_key_rejected(workdir, capsys):
    (workdir / "bad.ini").write_text("[model]\nfamly = linear\n")
    assert run_cli("train", "--config", "bad.ini") == 1
    assert "famly" in capsys.readouterr().err


def test_unknown_config_section_rejected(workdir, capsys):
    (workdir / "bad.ini").write_text("[models]\nfamily = linear\n")
    assert run_cli("train", "--config", "bad.ini") == 1
    assert "[models]" in capsys.readouterr().err


def test_nb_objective_with_standardize_rejected(workdir, capsys):
    write_series(workdir / "series.csv")
    (workdir / "bad.ini").write_text(
        "[data]\ncsv = series.csv\n[train]\nobjective = nb_nll\n"
    )
    assert run_cli("train", "--config", "bad.ini") == 1
    assert "standardize" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("hidden = x", "model.hidden must be an integer, got 'x'"),
    ("dropout = lots", "model.dropout must be a number, got 'lots'"),
    ("rev_in = maybe", "model.rev_in must be a boolean, got 'maybe'"),
    ("family = 'linear'", "family must be one of"),  # quotes are not stripped
])
def test_experiment_model_values_are_typed(workdir, capsys, line, message):
    assert_train_rejects_line(workdir, capsys, "model", line, message)


@pytest.mark.parametrize("section, line, message", [
    ("window", "lookback = x", "window.lookback must be an integer, got 'x'"),
    ("window", "stride = 1.5", "window.stride must be an integer, got '1.5'"),
    ("train", "learning_rate = fast", "train.learning_rate must be a number, got 'fast'"),
    ("train", "patience = x", "train.patience must be an integer, got 'x'"),
    ("run", "seed = x", "run.seed must be an integer, got 'x'"),
    ("train", "learning_rate = nan", "train.learning_rate must be a finite number, got 'nan'"),
    ("train", "learning_rate = inf", "train.learning_rate must be a finite number, got 'inf'"),
    ("model", "dropout = nan", "model.dropout must be a finite number, got 'nan'"),
    ("split", "fractions = nan 0.5 0.5", "split.fractions must be a finite number, got 'nan'"),
    ("split", "ranges = 0:100 100:200",
     "split.ranges needs three start:stop pairs, got '0:100 100:200'"),
    ("split", "ranges = 0:100 100:1.5e2 150:200", "split.ranges must be an integer, got '1.5e2'"),
    ("split", "ranges = -50:100 100:150 150:200", "range (-50, 100) starts before row 0"),
])
def test_experiment_values_are_typed(workdir, capsys, section, line, message):
    assert_train_rejects_line(workdir, capsys, section, line, message)


def test_split_ranges_are_three_row_ranges(workdir, capsys):
    write_series(workdir / "series.csv")
    (workdir / "exp.ini").write_text(LINEAR_INI.format(out="run1")
                                     + "[split]\nranges = 0:140 140:170 170:200\n")
    exp = cli.load_experiment(workdir / "exp.ini")
    assert exp.split == dt.SplitSpec(ranges=((0, 140), (140, 170), (170, 200)))
    assert run_cli("train", "--config", "exp.ini") == 0
    assert capsys.readouterr().err == ""


def assert_train_rejects_line(workdir, capsys, section, line, message):
    """``line`` replaces its key's line in LINEAR_INI, or joins ``section``."""
    write_series(workdir / "series.csv")
    key = line.split(" = ")[0]
    ini = "".join(kept for kept in LINEAR_INI.format(out="run1").splitlines(keepends=True)
                  if not kept.startswith(f"{key} = "))
    if f"[{section}]" not in ini:
        ini += f"[{section}]\n"
    (workdir / "exp.ini").write_text(ini.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    capsys.readouterr()
    assert run_cli("train", "--config", "exp.ini") == 1
    assert_one_error(capsys, message)


def assert_one_error(capsys, message):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err


README_INI = re.search(r"A\ncomplete experiment file:\n\n```ini\n(.*?)```",
                       (Path(__file__).parents[1] / "README.md").read_text(), re.S).group(1)


def test_readme_experiment_file_loads(workdir):
    (workdir / "exp.ini").write_text(README_INI)
    exp = cli.load_experiment(workdir / "exp.ini")
    assert exp.csv == Path("series.csv") and exp.schema is None
    assert exp.model["norm_placement"] == "" and exp.train.objective == "mse"


@pytest.mark.parametrize("column, message", [
    ("cpu%", None),  # configparser would read '%' as interpolation syntax
    ("cpu load", "column 'cpu load' cannot be saved in model.ini"),
])
def test_trained_checkpoint_loads_back(workdir, capsys, column, message):
    write_series(workdir / "series.csv")
    text = (workdir / "series.csv").read_text()
    (workdir / "series.csv").write_text(text.replace("y0,", f"{column},"))
    (workdir / "exp.ini").write_text(LINEAR_INI.format(out="runs/50%"))
    capsys.readouterr()
    if message is not None:
        assert run_cli("train", "--config", "exp.ini") == 1
        assert_one_error(capsys, message)
        return
    assert run_cli("train", "--config", "exp.ini") == 0
    assert run_cli("evaluate", "--checkpoint", "runs/50%", "--csv", "series.csv") == 0
    _, scaler = cli.load_checkpoint(workdir / "runs/50%")
    assert scaler.columns == [column, "y1"]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # overflow must not warn
def test_divergent_training_exits_2_and_logs(workdir, capsys):
    # The linear family's loss goes non-finite; the tsmixer's first
    # batch2d norm raises before its loss exists.  Either way numpy warns
    # about nothing and one line names the batch.
    write_series(workdir / "series.csv", steps=80)
    for family, norm in [("linear", "identity"), ("tsmixer", "batch2d")]:
        (workdir / "exp.ini").write_text(
            f"[run]\nout = {family}\n[data]\ncsv = series.csv\n"
            "[window]\nlookback = 14\nhorizon = 7\n"
            f"[model]\nfamily = {family}\nnorm = {norm}\n"
            "[train]\nlearning_rate = 1e160\nmax_epochs = 5\n"
        )
        assert run_cli("train", "--config", "exp.ini") == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"numeric failure: .*non-finite.* at epoch \d+, batch \d+\n", err), err
        assert err.removeprefix("numeric failure: ") in (workdir / family / "error.log").read_text()


NUMERIC_INI = """\
[run]
out = {out}
[data]
csv = series.csv
[window]
lookback = 16
horizon = 4
[model]
family = linear
[train]
max_epochs = 1
"""
NUMERIC_SERIES = ("synth", "--kind", "periodic", "--steps", "200", "--variates", "2",
                  "--out", "series.csv")


def test_a_non_finite_validation_loss_exits_2(workdir, capsys):
    # One batch per epoch, so the training loss is finite and the step
    # that follows it sends the validation loss to inf.
    assert run_cli(*NUMERIC_SERIES) == 0
    (workdir / "exp.ini").write_text(NUMERIC_INI.format(out="run")
                                     + "learning_rate = 1e200\nbatch_size = 1000\n")
    capsys.readouterr()
    assert run_cli("train", "--config", "exp.ini") == 2
    assert capsys.readouterr() == (
        "", "numeric failure: loss went non-finite in the validation pass of epoch 1\n")
    assert sorted(p.name for p in (workdir / "run").iterdir()) == ["error.log"]


@pytest.mark.parametrize("command, scale, message", [
    ("evaluate", 1e306,
     "the forecast errors are not finite: squared sum inf, absolute sum inf"),
    ("forecast", 1e308, "the forecast of ckpt holds non-finite values"),
])
def test_a_non_finite_forecast_exits_2(workdir, capsys, command, scale, message):
    assert run_cli(*NUMERIC_SERIES) == 0
    (workdir / "exp.ini").write_text(NUMERIC_INI.format(out="ckpt"))
    assert run_cli("train", "--config", "exp.ini") == 0
    blob = load_params(workdir / "ckpt" / "params.bin")
    blob["proj.weight"] = blob["proj.weight"] * scale
    save_params(workdir / "ckpt" / "params.bin", blob)
    capsys.readouterr()
    argv = [command, "--checkpoint", "ckpt", "--csv", "series.csv"]
    assert run_cli(*argv, *(["--out", "fc.csv"] if command == "forecast" else [])) == 2
    assert capsys.readouterr() == ("", f"numeric failure: {message}\n")
    assert not (workdir / "fc.csv").exists()


TSMIXER_INI = """\
[data]
csv = series.csv
[window]
lookback = 14
horizon = 7
[model]
family = tsmixer
hidden = 8
"""


@pytest.mark.parametrize("line, message", [
    ("hidden = 100000000000000000000",
     "model.hidden = 100000000000000000000 is too large: parameter 'block0.feat.hidden.weight' "
     "would have shape (100000000000000000000, 2)"),
    ("lookback = 100000000000000000000",
     "window.lookback = 100000000000000000000 is too large: parameter 'block0.time.weight'"),
    ("horizon = 100000000000000000000",
     "window.horizon = 100000000000000000000 is too large: parameter 'proj.weight' "
     "would have shape (100000000000000000000, 14)"),
])
def test_a_model_numpy_cannot_address_exits_1(workdir, capsys, line, message):
    # Only sizes numpy refuses outright: the check runs before any allocation.
    write_series(workdir / "series.csv")
    key = line.split(" = ")[0]
    (workdir / "exp.ini").write_text(re.sub(rf"^{key} = .*$", line, TSMIXER_INI, flags=re.M))
    assert run_cli("train", "--config", "exp.ini") == 1
    assert_one_error(capsys, message)


def test_too_many_blocks_exit_1_from_an_experiment_and_a_model_ini(workdir, capsys):
    # The other families are covered in test_models: before the blocks check,
    # their layer walk ran without end.
    write_series(workdir / "series.csv")
    ext = TSMIXER_INI.replace("tsmixer", "tsmixer_ext")
    message = "model.blocks = 100000000000000000000 is too large"
    (workdir / "exp.ini").write_text(ext + "blocks = 100000000000000000000\n")
    assert run_cli("train", "--config", "exp.ini") == 1
    assert_one_error(capsys, message)
    (workdir / "exp.ini").write_text(ext + "[train]\nmax_epochs = 1\n[run]\nout = run1\n")
    assert run_cli("train", "--config", "exp.ini") == 0
    ini = workdir / "run1" / "model.ini"
    ini.write_text(ini.read_text().replace("blocks = 2", "blocks = 100000000000000000000"))
    capsys.readouterr()
    assert run_cli("evaluate", "--checkpoint", "run1", "--csv", "series.csv") == 1
    assert_one_error(capsys, message)


def test_one_batch_too_wide_for_numpy_is_a_configuration_error():
    # Every parameter of this model could be described; 32 windows of its
    # widest activation could not.  Nothing is allocated either way.
    cfg = md.ModelConfig(family="tsmixer", lookback=14, horizon=7, targets=2, hidden=10**16)
    cli._check_array_sizes(cfg, 1)
    with pytest.raises(cli.ConfigurationError, match=re.escape(
            "model.hidden = 10000000000000000 is too large: one batch's widest activation "
            "would have shape (32, 14, 10000000000000000)")):
        cli._check_array_sizes(cfg, 32)


def test_memory_error_is_one_error_line(workdir, capsys, monkeypatch):
    def train(*args):
        raise MemoryError("Unable to allocate 1.46 TiB for an array with shape "
                          "(32, 48, 100000000000) and data type float64")

    monkeypatch.setattr(cli.tr, "train", train)
    write_series(workdir / "series.csv")
    (workdir / "exp.ini").write_text(TSMIXER_INI + "[run]\nout = run1\n")
    assert run_cli("train", "--config", "exp.ini") == 1
    assert_one_error(capsys, "Unable to allocate 1.46 TiB for an array with shape")
    assert "MemoryError" in (workdir / "run1" / "error.log").read_text()


@pytest.mark.parametrize("argv, log", [
    (("train", "--config", "exp.ini", "--out", "runs/v1.2"), "runs/v1.2/error.log"),
    (("evaluate", "--checkpoint", "runs/v1.2", "--csv", "missing.csv",
      "--out", "runs/report"), "runs/error.log"),
], ids=["train_in_run_dir", "evaluate_next_to_report"])
def test_error_log_goes_where_the_command_writes(workdir, capsys, argv, log):
    (workdir / "runs").mkdir()
    (workdir / "exp.ini").write_text("[data]\ncsv = missing.csv\n")
    assert run_cli(*argv) == 1
    message = capsys.readouterr().err.removeprefix("error: ").strip()
    assert message in (workdir / log).read_text()
    assert sorted(p.relative_to(workdir).as_posix() for p in workdir.rglob("error.log")) == [log]


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_exact(workdir):
    cfg = md.ModelConfig(family="tsmixer", lookback=10, horizon=4, targets=2,
                         hidden=6, blocks=2)
    model = md.Forecaster(cfg, seed=5)
    for buf in model.buffers.values():
        buf += 0.25  # make running stats distinguishable from their init
    scaler = dt.Standardizer(["a", "b"], np.array([1.5, -2.0]),
                             np.array([0.31459265358979, 2.0]))
    cli.save_checkpoint(workdir, model, scaler, seed=7)
    loaded, loaded_scaler = cli.load_checkpoint(workdir)
    assert loaded.config == cfg
    for name, value in model.params.items():
        assert np.array_equal(loaded.params[name], value), name
    for name, value in model.buffers.items():
        assert np.array_equal(loaded.buffers[name], value), name
    assert loaded_scaler.columns == scaler.columns
    assert np.array_equal(loaded_scaler.mean, scaler.mean)
    assert np.array_equal(loaded_scaler.std, scaler.std)


def test_checkpoint_without_scaler(workdir):
    cfg = md.ModelConfig(family="linear", lookback=8, horizon=2, targets=1)
    cli.save_checkpoint(workdir, md.Forecaster(cfg, seed=0), None, seed=0)
    _, scaler = cli.load_checkpoint(workdir)
    assert scaler is None


def test_checkpoint_missing_model_ini(workdir, capsys):
    assert run_cli("evaluate", "--checkpoint", str(workdir / "nope"),
                   "--csv", "x.csv") == 1
    assert "model.ini" in capsys.readouterr().err


def pack_entries(entries):
    """A container from (name, array, payload offset) triples, payloads in order."""
    index = payload = b""
    for name, arr, offset in entries:
        raw = name.encode("utf-8")
        index += struct.pack(f"<H{len(raw)}sB{arr.ndim}IQ", len(raw), raw, arr.ndim,
                             *arr.shape, offset)
        payload += arr.tobytes()
    return MAGIC + bytes([VERSION]) + struct.pack("<I", len(entries)) + index + payload


def broken_checkpoint(workdir, case):
    """A small batch2d checkpoint with one defect, plus a CSV to evaluate."""
    cfg = md.ModelConfig(family="tsmixer", lookback=14, horizon=7, targets=2,
                         hidden=4, blocks=1, norm="batch2d")
    if case == "nb_with_scaler":  # counts scaled, as cmd_train refuses to train them
        cfg = replace(cfg, family="tsmixer_ext", head="negative_binomial")
    model = md.Forecaster(cfg, seed=1)
    ckpt = workdir / "ckpt"
    ckpt.mkdir()
    scaler = dt.Standardizer(["y0", "y1"], np.array([0.5, -0.5]), np.array([2.0, 3.0]))
    cli.save_checkpoint(ckpt, model, scaler, seed=1)
    ini, params = ckpt / "model.ini", ckpt / "params.bin"
    if case == "missing_key":
        ini.write_text("".join(line for line in ini.read_text().splitlines(keepends=True)
                               if not line.startswith("hidden ")))
    elif case == "huge_hidden":  # numpy refuses this extent before allocating anything
        ini.write_text(ini.read_text().replace("hidden = 4", "hidden = 99999999999999999999"))
    elif case == "non_numeric_key":
        ini.write_text(ini.read_text().replace("lookback = 14", "lookback = fourteen"))
    elif case == "short_mean":
        ini.write_text(ini.read_text().replace("mean = 0.5 -0.5", "mean = 0.5"))
    elif case == "not_ini":
        ini.write_text("lookback = 14\n")
    elif case == "standardize_not_bool":
        ini.write_text(ini.read_text().replace("standardize = True", "standardize = banana"))
    elif case == "standardize_lowercase":
        ini.write_text(ini.read_text().replace("standardize = True", "standardize = true"))
    elif case == "no_preprocess":
        ini.write_text(ini.read_text().split("[preprocess]")[0])
    elif case in ("zero_std", "tiny_std", "small_std"):
        std = {"zero_std": "2.0 0.0", "tiny_std": "1e-320 3.0", "small_std": "1e-300 3.0"}[case]
        ini.write_text(ini.read_text().replace("std = 2.0 3.0", f"std = {std}"))
    elif case in ("nan_parameter", "inf_buffer"):
        key, value = (("proj.bias", np.nan) if case == "nan_parameter"
                      else ("buffer:block0.feat_norm.var", np.inf))
        blob = load_params(params)
        blob[key] = np.full_like(blob[key], value)
        save_params(params, blob)
    elif case in ("bad_utf8_name", "rank_above_3"):
        blob = bytearray(params.read_bytes())
        name_len = int.from_bytes(blob[12:14], "little")  # of the first entry
        if case == "bad_utf8_name":
            blob[14] = 0xFF
        else:
            blob[14 + name_len] = 4
        params.write_bytes(bytes(blob))
    elif case == "no_running_stats":
        save_params(params, model.params)
    elif case == "unknown_entry":
        save_params(params, {**load_params(params), "stray": np.zeros(2)})
    elif case == "trailing_bytes":
        params.write_bytes(params.read_bytes() + bytes(8))
    elif case in ("overlapping_offset", "duplicate_name"):
        entries, offset = [], 0
        for name, arr in load_params(params).items():
            entries.append((name, arr, offset))
            offset += arr.nbytes
        if case == "overlapping_offset":  # the second entry reads the first one's values
            entries[1] = (*entries[1][:2], entries[0][2])
        else:  # a later entry that would replace the last one
            name, arr, _ = entries[-1]
            entries.append((name, arr + 1.0, offset))
        params.write_bytes(pack_entries(entries))
    write_series(workdir / "series.csv", steps=60)
    return ckpt


def test_a_model_ini_with_an_unknown_key_is_one_error_line(workdir, capsys):
    ckpt = broken_checkpoint(workdir, "none")
    ini = ckpt / "model.ini"
    ini.write_text(ini.read_text().replace("[model]\n", "[model]\nwidth = 3\n"))
    capsys.readouterr()
    assert run_cli("evaluate", "--checkpoint", str(ckpt), "--csv", "series.csv") == 1
    assert capsys.readouterr() == ("", f"error: {ini}: [model] has unknown key 'width'\n")


@pytest.mark.parametrize("case, message", [
    ("missing_key", "missing key 'hidden'"),
    ("non_numeric_key", "model.lookback must be an integer"),
    ("huge_hidden", "parameter 'block0.feat.hidden.weight' has shape (4, 2), "
                    "expected (99999999999999999999, 2)"),
    ("short_mean", "preprocess.mean has 1 values for 2 columns"),
    ("not_ini", "not a valid INI file: File contains no section headers."),
    ("standardize_not_bool", "preprocess.standardize must be a boolean, got 'banana'"),
    ("no_preprocess", "no [preprocess] section"),
    ("zero_std", "preprocess.std must be positive, got '2.0 0.0'"),
    ("tiny_std", "preprocess.std must be positive and invertible, got '1e-320 3.0'"),
    ("nan_parameter", "params.bin: parameter 'proj.bias' holds non-finite values"),
    ("inf_buffer", "params.bin: buffer 'block0.feat_norm.var' holds non-finite values"),
    ("bad_utf8_name", "not valid UTF-8"),
    ("rank_above_3", "rank 4 above 3"),
    ("no_running_stats", "missing buffer 'block0.time_norm.mean'"),
    ("unknown_entry", "unknown entry 'stray'"),
    ("trailing_bytes", "8 trailing bytes after the last payload"),
    ("overlapping_offset", "is at offset 0, expected"),
    ("duplicate_name", "duplicate entry"),
    ("nb_with_scaler", "a negative-binomial head models raw counts"),
])
def test_malformed_checkpoint_exits_1(workdir, capsys, case, message):
    ckpt = broken_checkpoint(workdir, case)
    capsys.readouterr()
    assert run_cli("evaluate", "--checkpoint", str(ckpt), "--csv", "series.csv") == 1
    assert_one_error(capsys, message)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the overflow must not warn
def test_standardizer_overflow_names_the_column(workdir, capsys):
    ckpt = broken_checkpoint(workdir, "small_std")  # invertible, but small for the data
    frame = dt.load_csv("series.csv")
    values = frame.values.copy()
    values[:, 0] += 1e9
    dt.save_csv(dt.SeriesFrame(values, frame.columns, frame.roles), "series.csv")
    capsys.readouterr()
    assert run_cli("evaluate", "--checkpoint", str(ckpt), "--csv", "series.csv") == 1
    assert_one_error(capsys, "column 'y0' overflows when standardized by its scale 1e-300")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the overflow must not warn
def test_forecast_standardizes_only_the_rows_it_reads(workdir, capsys):
    # y0 / 0.5 overflows at 1.5e308.  Forecast reads the last 14 (lookback)
    # rows, so the value fails it there and is never read one row earlier.
    ckpt = broken_checkpoint(workdir, "none")
    (ckpt / "model.ini").write_text(
        (ckpt / "model.ini").read_text().replace("std = 2.0 3.0", "std = 0.5 3.0"))
    assert run_cli("forecast", "--checkpoint", "ckpt", "--csv", "series.csv",
                   "--out", "plain.csv") == 0
    frame = dt.load_csv("series.csv")
    for row, code in ((-15, 0), (-14, 1)):
        values = frame.values.copy()
        values[row, 0] = 1.5e308
        dt.save_csv(dt.SeriesFrame(values, frame.columns, frame.roles), "huge.csv")
        capsys.readouterr()
        assert run_cli("forecast", "--checkpoint", "ckpt", "--csv", "huge.csv",
                       "--out", "fc.csv") == code
    assert_one_error(capsys, "column 'y0' overflows when standardized by its scale 0.5")
    assert (workdir / "fc.csv").read_bytes() == (workdir / "plain.csv").read_bytes()


TRAIN = ["train", "--config", "exp.ini"]
EVALUATE = ["evaluate", "--checkpoint", "ckpt", "--csv", "series.csv"]
WITH_SCHEMA = EVALUATE + ["--schema", "schema.ini"]
FORECAST = ["forecast"] + EVALUATE[1:]
DIRECTORY = object()  # contents that make the file a directory
TOTAL_ONLY = ["--hierarchy", str(Path(__file__).parent / "data" / "total_y0_y1.json")]
MALFORMED_INPUTS = {  # case: (file, contents or None for absent, command line)
    "config_no_section": ("exp.ini", b"seed = 1\n", TRAIN),
    "config_repeated_section": ("exp.ini", b"[run]\nseed = 1\n[run]\nseed = 2\n", TRAIN),
    "config_not_utf8": ("exp.ini", b"[run]\nseed = \xff\n", TRAIN),
    "schema_no_section": ("schema.ini", b"y0 = target\n", WITH_SCHEMA),
    "schema_not_utf8": ("schema.ini", b"[roles]\ny0 = \xff\n", WITH_SCHEMA),
    "csv_missing": ("absent.csv", None, EVALUATE[:-1] + ["absent.csv"]),
    "csv_directory": ("folder", DIRECTORY, EVALUATE[:-1] + ["folder"]),
    "csv_not_utf8": ("latin.csv", b"y0,y1\n1,\xe9\n", EVALUATE[:-1] + ["latin.csv"]),
    "hierarchy_missing": ("absent.json", None, EVALUATE + ["--hierarchy", "absent.json"]),
    "hierarchy_directory": ("folder", DIRECTORY, EVALUATE + ["--hierarchy", "folder"]),
    "hierarchy_not_utf8": ("h.json", b'{"levels": "\xff"}', EVALUATE + ["--hierarchy", "h.json"]),
    "hierarchy_weight_not_number": (
        "h.json", json.dumps({"levels": [{"name": "total", "groups": {"all": ["y0", "y1"]},
                                          "weights": {"all": "heavy"}}]}).encode(),
        EVALUATE + ["--hierarchy", "h.json"]),
    "hierarchy_weight_nan": (
        "h.json", b'{"levels": [{"name": "total", "groups": {"all": ["y0", "y1"]}, '
                  b'"weights": {"all": NaN}}]}', EVALUATE + ["--hierarchy", "h.json"]),
    "hierarchy_repeated_member": (
        "h.json", json.dumps({"levels": [{"name": "total", "groups": {"all": ["y0", "y0", "y1"]},
                                          "weights": {"all": 1.0}}]}).encode(),
        EVALUATE + ["--hierarchy", "h.json"]),
    "hierarchy_name_not_string": (
        "h.json", json.dumps({"levels": [{"name": ["x"], "groups": {"all": ["y0", "y1"]},
                                          "weights": {"all": 1.0}}]}).encode(),
        EVALUATE + ["--hierarchy", "h.json"]),
    "hierarchy_member_not_string": (
        "h.json", json.dumps({"levels": [{"name": "total", "groups": {"all": [["y0"], "y1"]},
                                          "weights": {"all": 1.0}}]}).encode(),
        EVALUATE + ["--hierarchy", "h.json"]),
    "hierarchy_members_not_list": (
        "h.json", json.dumps({"levels": [{"name": "total", "groups": {"all": "y0"},
                                          "weights": {"all": 1.0}}]}).encode(),
        EVALUATE + ["--hierarchy", "h.json"]),
    "hierarchy_weight_bool": (
        "h.json", json.dumps({"levels": [{"name": "total", "groups": {"all": ["y0", "y1"]},
                                          "weights": {"all": True}}]}).encode(),
        EVALUATE + ["--hierarchy", "h.json"]),
    "hierarchy_weight_null": (
        "h.json", json.dumps({"levels": [{"name": "total", "groups": {"all": ["y0", "y1"]},
                                          "weights": {"all": None}}]}).encode(),
        EVALUATE + ["--hierarchy", "h.json"]),
    "hierarchy_weight_too_large": (
        "h.json", b'{"levels": [{"name": "total", "groups": {"all": ["y0", "y1"]}, '
                  b'"weights": {"all": 1' + b"0" * 400 + b"}}]}", EVALUATE + ["--hierarchy", "h.json"]),
    "hierarchy_weight_too_many_digits": (
        "h.json", b'{"levels": [{"name": "total", "groups": {"all": ["y0", "y1"]}, '
                  b'"weights": {"all": 1' + b"0" * 5000 + b"}}]}", EVALUATE + ["--hierarchy", "h.json"]),
    "hierarchy_nested_too_deep": ("h.json", b"[" * 100_000, EVALUATE + ["--hierarchy", "h.json"]),
    "csv_columns_swapped": ("swapped.csv", b"y1,y0\n1,2\n", EVALUATE[:-1] + ["swapped.csv"]),
    "forecast_csv_columns_swapped": ("swapped.csv", b"y1,y0\n1,2\n",
                                     FORECAST[:-1] + ["swapped.csv", "--out", "fc.csv"]),
    "schema_target_count": ("schema.ini", b"[roles]\ny0 = target\ny1 = historical\n",
                            WITH_SCHEMA),
    "forecast_schema_target_count": ("schema.ini", b"[roles]\ny0 = target\ny1 = historical\n",
                                     FORECAST + ["--schema", "schema.ini", "--out", "fc.csv"]),
    "checkpoint_no_params": ("ckpt/params.bin", None, EVALUATE),
    "config_no_csv": ("exp.ini", b"[run]\nseed = 1\n", TRAIN),
    "csv_cell_too_large": ("big.csv", b"y0,y1\n1," + b"2" * 200_000 + b"\n",
                           EVALUATE[:-1] + ["big.csv"]),
    "csv_finite_cell_too_large": ("big.csv", b"y0,y1\n1," + b"0" * 200_000 + b"1\n",
                                  EVALUATE[:-1] + ["big.csv"]),
    "csv_duplicate_column": ("dup.csv", b"y0,y1,y0\n1,2,3\n", EVALUATE[:-1] + ["dup.csv"]),
    "evaluate_out_directory": ("adir", DIRECTORY, EVALUATE + ["--out", "adir"]),
    "forecast_out_no_parent": ("no/such/fc.csv", None, FORECAST + ["--out", "no/such/fc.csv"]),
    "csv_constant_series": (  # y1 is constant
        "flat.csv", b"y0,y1\n" + b"".join(b"%d,2\n" % (t % 5) for t in range(30)),
        EVALUATE[:-1] + ["flat.csv"] + TOTAL_ONLY),
    "csv_constant_aggregate": (  # y0 + y1 is constant
        "flat.csv", b"y0,y1\n" + b"".join(b"%d,%d\n" % (t % 5, 9 - t % 5) for t in range(30)),
        EVALUATE[:-1] + ["flat.csv"] + TOTAL_ONLY),
    "train_out_existing_file": (
        "exp.ini", b"[run]\nout = series.csv\n[data]\ncsv = series.csv\n"
                   b"[window]\nlookback = 14\nhorizon = 7\n[train]\nmax_epochs = 1\n", TRAIN),
}


@pytest.mark.parametrize("case, message", [
    ("config_no_section", "exp.ini is not a valid INI file: File contains no section headers."),
    ("config_repeated_section", "section 'run' already exists"),
    ("config_not_utf8", "exp.ini is not UTF-8 text"),
    ("schema_no_section", "schema.ini is not a valid INI file: File contains no section"),
    ("schema_not_utf8", "schema.ini is not UTF-8 text"),
    ("csv_missing", "cannot read absent.csv: No such file or directory"),
    ("csv_directory", "cannot read folder: Is a directory"),
    ("csv_not_utf8", "latin.csv is not UTF-8 text"),
    ("hierarchy_missing", "cannot read absent.json: No such file or directory"),
    ("hierarchy_directory", "cannot read folder: Is a directory"),
    ("hierarchy_not_utf8", "h.json is not UTF-8 text"),
    ("hierarchy_weight_not_number", "hierarchy weight is not a number"),
    ("hierarchy_weight_nan", "level 'total': weights sum to nan, expected 1"),
    ("hierarchy_repeated_member",
     "level 'total': aggregate 'all' lists series 'y0' more than once"),
    ("hierarchy_name_not_string", "h.json: hierarchy level name ['x'] is not a string"),
    ("hierarchy_member_not_string",
     "h.json: level 'total': groups must map each aggregate to a list of series names"),
    ("hierarchy_members_not_list",
     "h.json: level 'total': groups must map each aggregate to a list of series names"),
    ("hierarchy_weight_bool", "hierarchy weight is not a number: level 'total', aggregate 'all'"),
    ("hierarchy_weight_null", "hierarchy weight is not a number: level 'total', aggregate 'all'"),
    ("hierarchy_weight_too_large", "level 'total': weights sum to inf, expected 1"),
    ("hierarchy_weight_too_many_digits", "level 'total': weights sum to inf, expected 1"),
    ("hierarchy_nested_too_deep", "h.json: invalid hierarchy JSON: maximum recursion depth"),
    ("csv_columns_swapped", "swapped.csv: the non-static columns are y1 y0, but the checkpoint "
                            "expects y0 y1, in that order"),
    ("forecast_csv_columns_swapped", "swapped.csv: the non-static columns are y1 y0"),
    ("schema_target_count", "series.csv: 1 target columns, but the checkpoint has 2"),
    ("forecast_schema_target_count", "series.csv: 1 target columns, but the checkpoint has 2"),
    ("checkpoint_no_params", "params.bin: No such file or directory"),
    ("config_no_csv", "data.csv must point at a training CSV"),
    ("csv_cell_too_large", "big.csv: line 2: field larger than field limit (131072)"),
    ("csv_finite_cell_too_large", "big.csv: line 2: field larger than field limit (131072)"),
    ("csv_duplicate_column", "dup.csv: duplicate column name 'y0'"),
    ("evaluate_out_directory", "cannot write adir: Is a directory"),
    ("forecast_out_no_parent", "cannot write no/such/fc.csv: No such file or directory"),
    ("train_out_existing_file", "cannot write series.csv: File exists"),
    ("csv_constant_series", "series 'y1': rmsse: history is constant, the scale is undefined"),
    ("csv_constant_aggregate", "level 'total', aggregate 'all': rmsse: history is constant"),
])
def test_malformed_input_exits_1(workdir, capsys, case, message):
    broken_checkpoint(workdir, "none")
    name, contents, argv = MALFORMED_INPUTS[case]
    path = workdir / name
    if contents is None:
        path.unlink(missing_ok=True)
    elif contents is DIRECTORY:
        path.mkdir()
    else:
        path.write_bytes(contents)
    capsys.readouterr()
    directories = sorted(p for p in workdir.rglob("*") if p.is_dir())
    assert run_cli(*argv) == 1
    assert_one_error(capsys, message)
    # error.log goes only into a directory that already exists
    assert sorted(p for p in workdir.rglob("*") if p.is_dir()) == directories


def test_unmodified_checkpoint_fixture_evaluates(workdir):
    ckpt = broken_checkpoint(workdir, "none")
    assert run_cli("evaluate", "--checkpoint", str(ckpt), "--csv", "series.csv") == 0


def test_checkpoint_standardize_is_parsed_as_a_boolean(workdir):
    _, scaler = cli.load_checkpoint(broken_checkpoint(workdir, "standardize_lowercase"))
    assert scaler is not None and scaler.columns == ["y0", "y1"]
    np.testing.assert_array_equal(scaler.mean, [0.5, -0.5])
    np.testing.assert_array_equal(scaler.std, [2.0, 3.0])


# ---------------------------------------------------------------------------
# evaluate / forecast


def test_evaluate_reports_low_error_on_training_series(workdir, capsys):
    out = train_linear(workdir)
    assert run_cli("evaluate", "--checkpoint", str(out), "--csv", "series.csv") == 0
    text = capsys.readouterr().out
    mse = float(next(l for l in text.splitlines() if l.startswith("mse:")).split()[1])
    assert mse < 1e-3  # periodic series, linear model: near-exact


def test_evaluate_mse_and_mae_match_hand_computation(workdir, capsys):
    # Forecast = mean of the last two rows.  Windows end at rows 2, 3, 4:
    # y0 forecasts 1.5, 3, 5.5 against 4, 7, 11; y1 forecasts 0, 0, 0
    # against 0, 0, 1.  Errors -2.5, -4, -5.5, 0, 0, -1.
    model = md.Forecaster(md.ModelConfig(family="linear", lookback=2, horizon=1, targets=2),
                          seed=0)
    model.params["proj.weight"][...] = [[0.5, 0.5]]
    model.params["proj.bias"][...] = 0.0
    (workdir / "ckpt").mkdir()
    cli.save_checkpoint(workdir / "ckpt", model, None, seed=0)
    (workdir / "series.csv").write_text("y0,y1\n1,0\n2,0\n4,0\n7,0\n11,1\n")
    assert run_cli("evaluate", "--checkpoint", "ckpt", "--csv", "series.csv") == 0
    fields = dict(line.split(": ") for line in capsys.readouterr().out.splitlines()[1:])
    assert fields["windows"] == "3"
    assert float(fields["mse"]) == (2.5**2 + 4**2 + 5.5**2 + 1**2) / 6
    assert float(fields["mae"]) == (2.5 + 4 + 5.5 + 1) / 6


def test_evaluate_with_hierarchy(workdir, capsys):
    out = train_linear(workdir)
    hier = {"levels": [
        {"name": "total", "groups": {"all": ["y0", "y1"]}, "weights": {"all": 1.0}},
        {"name": "series", "groups": {"y0": ["y0"], "y1": ["y1"]},
         "weights": {"y0": 0.5, "y1": 0.5}},
    ]}
    (workdir / "hier.json").write_text(json.dumps(hier))
    capsys.readouterr()  # drop the training output
    assert run_cli("evaluate", "--checkpoint", str(out), "--csv", "series.csv",
                   "--hierarchy", "hier.json", "--out", "report.txt") == 0
    text = (workdir / "report.txt").read_text()
    assert "wrmsse:" in text
    assert "level total:" in text
    assert "worst series:" in text
    assert text == capsys.readouterr().out


def standardized_linear_checkpoint(workdir, rows, channels, lookback, horizon, seed):
    """A seeded CSV of ``rows`` x ``channels`` positive series and a ``linear``
    checkpoint with random weights and a non-trivial scaler; returns the
    loaded values, the weight, bias, mean and std."""
    rng = np.random.default_rng(seed)
    t = np.arange(rows)[:, None]
    values = (rng.uniform(5.0, 50.0, channels) + 3.0 * np.sin(2 * np.pi * t / 24.0)
              + rng.normal(size=(rows, channels)))
    cols = [f"s{j}" for j in range(channels)]
    dt.save_csv(dt.SeriesFrame(values, cols, {c: "target" for c in cols}), workdir / "wide.csv")
    model = md.Forecaster(md.ModelConfig(family="linear", lookback=lookback, horizon=horizon,
                                         targets=channels), seed=seed)
    weight = model.params["proj.weight"]
    weight[...] = rng.normal(scale=0.2, size=weight.shape)
    bias = model.params["proj.bias"]
    bias[...] = rng.normal(size=bias.shape)
    mean, std = values.mean(axis=0), values.std(axis=0)
    (workdir / "ckpt").mkdir()
    cli.save_checkpoint(workdir / "ckpt", model, dt.Standardizer(cols, mean, std), seed=seed)
    return dt.load_csv(workdir / "wide.csv").values, weight, bias, mean, std


def test_multi_chunk_evaluate_matches_numpy_oracle(workdir, capsys):
    # 684 windows span three EVAL_CHUNKs, so every score depends on each
    # chunk meeting its own slice of the truth and on the last chunk's last row.
    L, T, C = 12, 5, 4
    values, weight, bias, mean, std = standardized_linear_checkpoint(workdir, 700, C, L, T, 11)
    groups = {"total": {"all": ["s0", "s1", "s2", "s3"]},
              "pair": {"a": ["s0", "s1"], "b": ["s2", "s3"]},
              "series": {c: [c] for c in ("s0", "s1", "s2", "s3")}}
    weights = {"total": {"all": 1.0}, "pair": {"a": 0.25, "b": 0.75},
               "series": {"s0": 0.1, "s1": 0.2, "s2": 0.3, "s3": 0.4}}
    (workdir / "hier.json").write_text(json.dumps({"levels": [
        {"name": name, "groups": groups[name], "weights": weights[name]} for name in groups]}))
    assert run_cli("evaluate", "--checkpoint", "ckpt", "--csv", "wide.csv",
                   "--hierarchy", "hier.json") == 0
    fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()[1:])

    n = len(values) - L - T + 1
    scaled = (values - mean) / std
    windows = np.stack([scaled[s:s + L] for s in range(n)])  # n, L, C
    pred = (np.einsum("tl,nlc->ntc", weight, windows) + bias[:, None]) * std + mean
    truth = np.stack([values[s + L:s + L + T] for s in range(n)])
    assert n > 2 * cli.tr.EVAL_CHUNK and fields["windows"] == str(n)
    assert float(fields["mse"]) == pytest.approx(np.mean((pred - truth) ** 2), rel=1e-12)
    assert float(fields["mae"]) == pytest.approx(np.mean(np.abs(pred - truth)), rel=1e-12)

    cut = len(values) - T
    col = {f"s{j}": j for j in range(C)}

    def rmsse(members):
        idx = [col[m] for m in members]
        f, a, h = pred[-1][:, idx].sum(1), values[cut:, idx].sum(1), values[:cut, idx].sum(1)
        return np.sqrt(np.mean((f - a) ** 2) / np.mean(np.diff(h) ** 2))

    levels = {name: sum(weights[name][g] * rmsse(m) for g, m in groups[name].items())
              for name in groups}
    assert float(fields["wrmsse"]) == pytest.approx(np.mean(list(levels.values())), rel=1e-12)
    for name, score in levels.items():
        assert float(fields[f"level {name}"]) == pytest.approx(score, rel=1e-12)
    worst = sorted(((rmsse([c]), c) for c in col), reverse=True)
    assert fields["worst series"] == " ".join(f"{c}={v:.4f}" for v, c in worst)


def test_evaluate_subsets_the_scaler_once(workdir, capsys, monkeypatch):
    # 684 windows in three chunks: evaluate makes the target columns' scaler
    # once, before its chunk loop, and each chunk only inverts with it.
    standardized_linear_checkpoint(workdir, 700, 4, 12, 5, 11)
    calls = {"subset": 0, "invert": 0}

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(dt.Standardizer, name, counted(name, getattr(dt.Standardizer, name)))
    assert run_cli("evaluate", "--checkpoint", "ckpt", "--csv", "wide.csv") == 0
    assert "windows: 684" in capsys.readouterr().out
    assert calls == {"subset": 1, "invert": 3}


def test_evaluate_memory_does_not_grow_with_window_count(workdir, capsys):
    # 2,929 windows in 12 chunks: a forecast kept for every window would alone
    # exceed the peak allowed here, which ingest and one chunk stay below.
    L, T, C = 48, 24, 32
    values, *_ = standardized_linear_checkpoint(workdir, 3000, C, L, T, 5)
    windows = len(values) - L - T + 1
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert run_cli("evaluate", "--checkpoint", "ckpt", "--csv", "wide.csv") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"windows: {windows}" in capsys.readouterr().out
    assert peak < windows * T * C * 8


def test_evaluate_and_dataset_loss_do_not_depend_on_the_chunk_size(workdir, capsys, monkeypatch):
    # One tsmixer checkpoint scored at 1, 7 and 256 windows per chunk: the
    # hierarchy lines come from the last window alone and must not move; mse,
    # mae and the loss are sums over chunks and may round in the last digits.
    L, T, C = 12, 5, 4
    values, *_ = standardized_linear_checkpoint(workdir, 700, C, L, T, 13)
    model = md.Forecaster(md.ModelConfig(family="tsmixer", lookback=L, horizon=T, targets=C,
                                         hidden=8, blocks=2), seed=13)
    mean, std = values.mean(axis=0), values.std(axis=0) + 0.5
    cols = [f"s{j}" for j in range(C)]
    cli.save_checkpoint(workdir / "ckpt", model, dt.Standardizer(cols, mean, std), seed=13)
    (workdir / "hier.json").write_text(json.dumps({"levels": [
        {"name": "total", "groups": {"all": cols}, "weights": {"all": 1.0}},
        {"name": "pair", "groups": {"a": cols[:2], "b": cols[2:]},
         "weights": {"a": 0.5, "b": 0.5}},
        {"name": "series", "groups": {c: [c] for c in cols}, "weights": dict.fromkeys(cols, 0.25)},
    ]}))
    windows = dt.make_windows(dt.Standardizer(cols, mean, std).apply(dt.load_csv("wide.csv")),
                              dt.WindowSpec(L, T))
    reports, losses = [], []
    width = model.config.activation_width  # hidden 8, wider than the 4 channels
    for per_chunk in (1, 7, 256):
        monkeypatch.setattr(cli.tr, "EVAL_BYTES", per_chunk * 8 * L * width)
        sizes = [len(chunk) for _, chunk in cli.tr.eval_chunks(windows, width)]
        assert sizes[0] == per_chunk and sum(sizes) == len(windows) == 684
        assert run_cli("evaluate", "--checkpoint", "ckpt", "--csv", "wide.csv",
                       "--hierarchy", "hier.json") == 0
        reports.append(dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()[1:]))
        losses.append(cli.tr.dataset_loss(model, windows))
    for report in reports[1:]:
        assert report.keys() == reports[0].keys()
        for key, text in report.items():
            if key in ("mse", "mae"):
                assert float(text) == pytest.approx(float(reports[0][key]), rel=1e-12)
            else:
                assert text == reports[0][key], key
    assert losses[1:] == pytest.approx([losses[0]] * 2, rel=1e-12)


def test_evaluate_memory_is_bounded_by_chunk_bytes(workdir, capsys, monkeypatch):
    # At lookback 512 and 321 channels a chunk holds 6 windows, so 40 windows
    # peak at ingest plus a few MiB; scored as one 40-window chunk they do not.
    L, T, C = 512, 96, 321
    standardized_linear_checkpoint(workdir, L + T + 39, C, L, T, 7)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def ingest():
        _, scaler = cli.load_checkpoint("ckpt")
        return dt.make_windows(scaler.apply(dt.load_csv("wide.csv")), dt.WindowSpec(L, T))

    def evaluate():
        assert run_cli("evaluate", "--checkpoint", "ckpt", "--csv", "wide.csv") == 0

    bound = peak(ingest) + 2 * cli.tr.EVAL_BYTES
    assert peak(evaluate) < bound
    monkeypatch.setattr(cli.tr, "EVAL_BYTES", 256 * 8 * L * C)
    assert peak(evaluate) > bound
    assert capsys.readouterr().out.count("windows: 40\n") == 2


def test_evaluate_holds_few_frame_sized_arrays(workdir, capsys):
    # 400 x 3,000 targets: evaluate holds the raw frame, one window block and
    # the truth; the scaled frame dies once windowed, and the target windows
    # are views of the history block, not a copy of their own.
    values, *_ = standardized_linear_checkpoint(workdir, 400, 3000, 64, 4, 17)
    tracemalloc.start()
    try:
        assert run_cli("evaluate", "--checkpoint", "ckpt", "--csv", "wide.csv") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "windows: 333" in capsys.readouterr().out
    assert peak < 3.5 * values.nbytes


def test_evaluate_hierarchy_holds_no_more_than_plain_evaluate(workdir, capsys):
    # The same 400 x 3,000 targets with a total / 30-group / series hierarchy:
    # the windows and the truth die before the hierarchy is scored, which adds
    # one history copy and chunk-sized sums, so the peak stays near plain evaluate's.
    values, *_ = standardized_linear_checkpoint(workdir, 400, 3000, 64, 4, 17)
    cols = [f"s{j}" for j in range(3000)]
    groups = {f"g{k}": cols[k::30] for k in range(30)}
    (workdir / "hier.json").write_text(json.dumps({"levels": [
        {"name": "total", "groups": {"all": cols}, "weights": {"all": 1.0}},
        {"name": "group", "groups": groups, "weights": dict.fromkeys(groups, 1 / 30)},
        {"name": "series", "groups": {c: [c] for c in cols},
         "weights": dict.fromkeys(cols, 1 / 3000)},
    ]}))
    peaks = []
    for extra in ([], ["--hierarchy", "hier.json"]):
        tracemalloc.start()
        try:
            assert run_cli("evaluate", "--checkpoint", "ckpt", "--csv", "wide.csv", *extra) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert "level series: " in capsys.readouterr().out
    assert peaks[1] < 3.5 * values.nbytes and peaks[1] < 1.05 * peaks[0]


def test_forecast_writes_horizon_rows(workdir):
    out = train_linear(workdir)
    assert run_cli("forecast", "--checkpoint", str(out), "--csv", "series.csv",
                   "--out", "fc.csv") == 0
    fc = dt.load_csv(workdir / "fc.csv")
    assert fc.values.shape == (7, 2)
    # the series is 7-periodic, so the forecast should repeat the last cycle
    actual = dt.load_csv(workdir / "series.csv").values[-7:]
    assert np.allclose(fc.values, actual, atol=0.05)


def test_forecast_rejects_short_history(workdir, capsys):
    out = train_linear(workdir)
    full = dt.load_csv(workdir / "series.csv")
    short = dt.SeriesFrame(full.values[:10], full.columns, full.roles)
    dt.save_csv(short, workdir / "short.csv")
    assert run_cli("forecast", "--checkpoint", str(out), "--csv", "short.csv",
                   "--out", "fc.csv") == 1
    assert "lookback" in capsys.readouterr().err


@pytest.mark.parametrize("csv", [None, "y0,f0\n1.0,2.0\n"])
def test_forecast_refuses_future_covariates_before_reading_the_csv(workdir, capsys, csv):
    """A missing CSV and a 1-row one get the same refusal: no CSV can help."""
    cfg = md.ModelConfig(family="tsmixer_ext", lookback=16, horizon=4, targets=1,
                         future_covariates=1, hidden=4, blocks=1)
    (workdir / "ckpt").mkdir()
    cli.save_checkpoint(workdir / "ckpt", md.Forecaster(cfg, seed=1), None, seed=1)
    if csv is not None:
        (workdir / "in.csv").write_text(csv)
    capsys.readouterr()
    assert run_cli("forecast", "--checkpoint", "ckpt", "--csv", "in.csv", "--out", "fc.csv") == 1
    assert capsys.readouterr() == ("", (
        "error: forecasting with future covariates needs horizon rows that do not exist yet; "
        "provide them via evaluate on an extended CSV instead\n"))
    assert not (workdir / "fc.csv").exists()


@pytest.mark.parametrize("header, roles, forecast_exit", [
    ("y0,h,s,y1", "h = historical\ns = static\n", 0),  # roles interleaved with the targets
    ("y0,z,y1", "z = future\n", 1),  # forecast has no horizon rows of z to read
], ids=["historical_and_static", "future"])
def test_tsmixer_ext_under_a_schema(workdir, capsys, header, roles, forecast_exit):
    column = {"y0": lambda t: math.sin(t / 3), "h": lambda t: math.cos(t / 5),
              "z": lambda t: math.cos(t / 5), "s": lambda t: 2.5, "y1": lambda t: math.sin(t / 7)}
    (workdir / "mixed.csv").write_text(header + "\n" + "".join(
        ",".join(repr(column[c](t)) for c in header.split(",")) + "\n" for t in range(80)))
    (workdir / "schema.ini").write_text("[roles]\n" + roles)
    (workdir / "exp.ini").write_text("[data]\ncsv = mixed.csv\nschema = schema.ini\n"
                                     "[window]\nlookback = 16\nhorizon = 4\n[model]\n"
                                     "family = tsmixer_ext\nhidden = 4\nblocks = 1\n"
                                     "[train]\nmax_epochs = 1\n")
    run = ["--checkpoint", "ckpt", "--csv", "mixed.csv", "--schema", "schema.ini"]
    assert run_cli(*TRAIN, "--out", "ckpt") == 0
    assert run_cli("evaluate", *run) == 0
    capsys.readouterr()
    assert run_cli("forecast", *run, "--out", "fc.csv") == forecast_exit
    if forecast_exit:
        assert_one_error(capsys, "forecasting with future covariates needs horizon rows")


def test_nb_forecast_emits_mean_and_dispersion(workdir):
    rng = np.random.default_rng(0)
    counts = rng.poisson(4.0, size=(120, 1)).astype(float)
    frame = dt.SeriesFrame(counts, ["sales"], {"sales": "target"})
    dt.save_csv(frame, workdir / "counts.csv")
    (workdir / "nb.ini").write_text(
        "[run]\nseed = 2\nout = nbrun\n"
        "[data]\ncsv = counts.csv\nstandardize = false\n"
        "[window]\nlookback = 14\nhorizon = 5\n"
        "[model]\nfamily = tsmixer_ext\nhidden = 4\nblocks = 1\n"
        "head = negative_binomial\n"
        "[train]\nobjective = nb_nll\nlearning_rate = 0.01\nmax_epochs = 4\npatience = 2\n"
    )
    assert run_cli("train", "--config", "nb.ini") == 0
    assert run_cli("forecast", "--checkpoint", "nbrun", "--csv", "counts.csv",
                   "--out", "fc.csv") == 0
    fc = dt.load_csv(workdir / "fc.csv")
    assert fc.columns == ["sales_mean", "sales_dispersion"]
    assert fc.values.shape == (5, 2)
    assert np.all(fc.values > 0.0)


# ---------------------------------------------------------------------------
# verify-theory


def test_verify_theory_passes(capsys):
    assert run_cli("verify-theory", "--trials", "20", "--seed", "4") == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "VIOLATION" not in out


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_verify_theory_needs_a_trial(capsys, trials):
    assert run_cli("verify-theory", "--trials", trials) == 1
    out, err = capsys.readouterr()
    assert "all checks passed" not in out
    assert err == f"error: --trials must be at least 1, got {trials}\n"


def test_verify_theory_corrupt_negative_control(capsys):
    assert run_cli("verify-theory", "--trials", "5", "--corrupt") == 1
    assert "VIOLATION" in capsys.readouterr().out


NO_SCIPY_PROBE = """
import contextlib, importlib.abc, io, sys
from pathlib import Path


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())
import numpy as np
import mixcast.cli as cli
from mixcast import data as dt, models as md, training as tr

out = Path(sys.argv[1])
frame = dt.synth_periodic(8, 80, variates=2, seed=0)
windows = dt.make_windows(frame, dt.WindowSpec(16, 4))
point = md.Forecaster(md.ModelConfig(family="tsmixer", lookback=16, horizon=4, targets=2,
                                     hidden=4, blocks=1), seed=0)
tr.train(point, windows, windows, tr.TrainConfig(max_epochs=1, batch_size=len(windows)))

counts = np.random.default_rng(0).poisson(4.0, size=(60, 1)).astype(float)
frame = dt.SeriesFrame(counts, ["sales"], {"sales": "target"})
windows = dt.make_windows(frame, dt.WindowSpec(14, 5))
nb = md.Forecaster(md.ModelConfig(family="tsmixer_ext", lookback=14, horizon=5, targets=1,
                                  hidden=4, blocks=1, head="negative_binomial"), seed=0)
_, history = tr.train(nb, windows, windows, tr.TrainConfig(
    max_epochs=1, batch_size=len(windows), objective="nb_nll", learning_rate=0.01))
assert np.isfinite(history.records[0].train_loss)
dt.save_csv(frame, out / "counts.csv")
cli.save_checkpoint(out, nb, None, 0)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["evaluate", "--checkpoint", str(out), "--csv", str(out / "counts.csv")]) == 0
    assert cli.main(["forecast", "--checkpoint", str(out), "--csv", str(out / "counts.csv"),
                     "--out", str(out / "fc.csv")]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_no_path_imports_scipy(tmp_path):
    """With every scipy import made to fail, a point-head and a
    negative-binomial training step (its loss and softplus's gradient), and
    evaluate and forecast on the negative-binomial checkpoint, all run."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n", done.stdout
