"""Property-based tests (Hypothesis) for the on-disk formats, the CSV
reader, windowing and splits, tape gradients and row-wise RMSSE.

Example counts are bounded and the search is derandomized, so the suite
stays fast and every run tries the same inputs.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixcast import cli
from mixcast import data as dt
from mixcast import metrics as mt
from mixcast import models as md
from mixcast import tensor as tc
from mixcast import training as tr
from mixcast.errors import DataError, MetricError, MixcastError
from mixcast.layers import VAR_FLOOR
from mixcast.params_io import load_params, save_params
from mixcast.rng import make_rng
from test_data import FIELDS, assert_batch_matches, outcome, per_cell_values, stacked_windows

BOUNDED = settings(derandomize=True, max_examples=150, deadline=None)

tensors = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                     elements=st.floats(allow_nan=True, allow_infinity=True))
names = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)


@BOUNDED
@given(st.dictionaries(names, tensors, max_size=5))
def test_params_round_trip_exactly(params):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.bin"
        save_params(path, params)
        loaded = load_params(path)
    assert sorted(loaded) == sorted(params)
    for name, arr in params.items():
        assert loaded[name].shape == arr.shape, name
        assert loaded[name].tobytes() == arr.tobytes(), name


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A valid checkpoint directory and the bytes of its model.ini."""
    directory = tmp_path_factory.mktemp("checkpoint")
    cfg = md.ModelConfig(family="tsmixer_ext", lookback=6, horizon=3, targets=2,
                         hist_covariates=1, static_features=1, hidden=4, dropout=0.25)
    scaler = dt.Standardizer(["y0", "y1", "h", "s"], np.array([0.5, -0.5, 1.0, 2.0]),
                             np.array([2.0, 3.0, 0.5, 1.0]))
    cli.save_checkpoint(directory, md.Forecaster(cfg, seed=1), scaler, seed=1)
    return directory, (directory / "model.ini").read_bytes()


# Bytes that mean something to an INI reader, tried alongside arbitrary ones.
INI_BYTES = st.sampled_from(b"%$[]=:;#'\"\n\r\t -.0179aeEfnT")


@settings(BOUNDED, max_examples=400)
@given(data=st.data())
def test_model_ini_mutations_only_raise_mixcast_errors(checkpoint, data):
    directory, ini = checkpoint
    cut = data.draw(st.integers(0, len(ini) - 1), label="position")
    if data.draw(st.booleans(), label="truncate"):
        mutant = ini[:cut]
    else:
        byte = data.draw(st.one_of(INI_BYTES, st.integers(0, 255)), label="byte")
        mutant = ini[:cut] + bytes([byte]) + ini[cut + 1:]
    (directory / "mutant.ini").write_bytes(mutant)  # loads next to the valid params.bin
    try:
        cli.load_checkpoint(directory / "mutant.ini")
    except MixcastError:
        pass


def payload_top_bytes(path):
    """Offsets of the sign-and-exponent byte of every float64 in a container:
    the payload is the last 8 bytes per value."""
    size, values = path.stat().st_size, sum(arr.size for arr in load_params(path).values())
    return list(range(size - 8 * values + 7, size, 8))


@settings(BOUNDED, max_examples=300)
@given(data=st.data())
def test_params_bin_mutations_raise_or_load_finite(checkpoint, data):
    directory, ini = checkpoint
    params = directory / "params.bin"
    blob = params.read_bytes()
    # Anywhere, or where a flipped exponent bit turns a value in [1, 2) into inf or NaN.
    cut = data.draw(st.one_of(st.integers(0, len(blob) - 1),
                              st.sampled_from(payload_top_bytes(params))), label="position")
    if data.draw(st.booleans(), label="truncate"):
        mutant = blob[:cut]
    else:
        mask = data.draw(st.one_of(st.just(0x40), st.integers(1, 255)), label="xor")
        mutant = blob[:cut] + bytes([blob[cut] ^ mask]) + blob[cut + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "model.ini").write_bytes(ini)
        (Path(tmp) / "params.bin").write_bytes(mutant)
        try:
            model, _ = cli.load_checkpoint(Path(tmp))
        except MixcastError:
            return
    for name, arr in {**model.params, **model.buffers}.items():
        assert np.all(np.isfinite(arr)), name


# Pieces of CSV text, with the bytes a reader can trip on: NUL, a BOM,
# quotes, comment marks, bad UTF-8 and non-finite numbers.
CSV_PIECES = st.one_of(st.sampled_from([b"y0", b",", b"\n", b"\r\n", b"-2.5", b"1e3", b"nan",
                                        b"inf", b'"', b"#", b" ", b"\x00", b"\xef\xbb\xbf",
                                        b"\xff", b"x"]),
                       st.binary(max_size=2))
CELLS = st.sampled_from([b"0", b"1.5", b"-3", b"2e-1"])


@settings(BOUNDED, max_examples=300)
@given(data=st.data())
def test_load_csv_returns_a_frame_or_raises_data_error(data):
    # Arbitrary bytes, or a valid two-column CSV with up to three pieces
    # written over it.
    if data.draw(st.booleans(), label="arbitrary"):
        raw = data.draw(st.binary(max_size=64), label="raw")
    else:
        rows = data.draw(st.lists(st.tuples(CELLS, CELLS), max_size=4), label="rows")
        raw = b"y0,y1\n" + b"".join(b"%s,%s\n" % row for row in rows)
        for _ in range(data.draw(st.integers(0, 3), label="edits")):
            at = data.draw(st.integers(0, len(raw)), label="at")
            cut = data.draw(st.integers(0, 2), label="cut")
            raw = raw[:at] + data.draw(CSV_PIECES, label="piece") + raw[at + cut:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        path.write_bytes(raw)
        try:
            frame = dt.load_csv(path)
        except DataError:
            return
    assert frame.values.shape[1] == len(frame.columns)
    assert np.all(np.isfinite(frame.values))


PLAIN_CELLS = st.sampled_from(["0", "-1.5", "2e-3", "7.", " 4 ", "\t5", "+.5"])
ODD_CELLS = st.sampled_from(["", "  ", '"6"', '"8,9"', '"', "\x00", "\ufeff1", "1_000",
                             "\u0661\u0662", "nan", "1e400", "1#2", "x"])
OTHER_LINES = st.sampled_from(["# note", "  # indented note", "#a,\"b", "", "   ", "\t"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@settings(BOUNDED, max_examples=120)
@given(data=st.data())
def test_load_csv_matches_the_per_cell_oracle(data):
    # load_csv parses plain lines and quoted records in one numpy pass and any
    # other file cell by cell; either way it gives the oracle's values or its
    # DataError text, and no warning.  Quoting one cell of a row makes its line
    # not plain, so a file can switch between plain and quoted runs many times.
    width = data.draw(st.integers(1, 3), label="width")
    plain = data.draw(st.booleans(), label="plain cells only")
    cells = PLAIN_CELLS if plain else st.one_of(PLAIN_CELLS, ODD_CELLS)
    header = ["a", " b ", "c"][:width]
    if data.draw(st.booleans(), label="quoted header"):
        header = [f'"{name}"' for name in header]
    lines = data.draw(st.lists(OTHER_LINES, max_size=2), label="lines above the header")
    lines.append(("\ufeff" if data.draw(st.booleans(), label="BOM") else "") + ",".join(header))
    for _ in range(data.draw(st.integers(0, 7), label="lines below")):
        if data.draw(st.integers(0, 3), label="other line") == 0:
            lines.append(data.draw(OTHER_LINES, label="line"))
        else:
            n = data.draw(st.sampled_from([width] * 4 + [width - 1, width + 1]), label="fields")
            row = [data.draw(cells, label="cell") for _ in range(max(n, 1))]
            if data.draw(st.booleans(), label="quote a cell"):
                at = data.draw(st.integers(0, len(row) - 1), label="quoted cell")
                row[at] = f'"{row[at]}"'
            lines.append(",".join(row))
    text = "".join(line + data.draw(ENDINGS, label="ending") for line in lines)
    if data.draw(st.booleans(), label="drop last ending"):
        text = text.rstrip("\r\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = outcome(per_cell_values, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(lambda p: dt.load_csv(p).values, path)
    if expected == ("ok", b""):  # the oracle checks for neither a header nor data rows
        assert got in {("error", f"{path}: no header row found"),
                       ("error", f"{path}: no data rows found")}
    else:
        assert got == expected


def quarters(shape):
    """Arrays of ``shape`` on a grid of quarters in [-2, 2]: products and
    short sums are exact, so any summation order gives the same value."""
    return hnp.arrays(np.float64, shape, elements=st.integers(-8, 8).map(lambda k: k / 4))


def fitting(data, shape, label):
    """A shape that broadcasts to exactly ``shape``: trailing extents, each kept or 1."""
    lead = data.draw(st.integers(0, len(shape)), label=f"{label} rank cut")
    kept = data.draw(st.lists(st.booleans(), min_size=len(shape), max_size=len(shape)),
                     label=f"{label} kept extents")
    return tuple(n if keep else 1 for n, keep in zip(shape, kept))[lead:]


@settings(BOUNDED, max_examples=80)
@given(data=st.data(), with_affine=st.booleans(), fixed=st.booleans())
def test_standardize_passes_grad_check(data, with_affine, fixed):
    shape = data.draw(hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=4),
                      label="shape")
    ndim = len(shape)
    axes = data.draw(st.lists(st.integers(-ndim, ndim - 1), min_size=1, max_size=ndim,
                              unique_by=lambda a: a % ndim).map(tuple), label="axes")
    # Values on a grid of quarters: a slice is either exactly constant (its
    # variance floored) or spread far wider than the difference step.
    x = data.draw(quarters(shape), label="x")
    probe = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1, 1)), label="probe")
    stats = None
    if fixed:  # constants: a variance of 0 is floored, and no gradient reaches them
        stats = (data.draw(quarters(fitting(data, shape, "mean")), label="mean"),
                 data.draw(hnp.arrays(np.float64, fitting(data, shape, "var"),
                                      elements=st.integers(0, 16).map(lambda k: k / 4)),
                           label="var"))
    affine = [data.draw(quarters(fitting(data, shape, n)), label=n)
              for n in ("scale", "shift")] if with_affine else []

    def f(ps):
        out = tc.standardize(ps[0], axes, VAR_FLOOR, ps[1:] or None, stats)[0]
        return tc.mean(tc.mul(out, tc.Tensor(probe)))

    assert tc.grad_check(f, [x, *affine]) < 1e-4


def values(shape, low, high, signed=False):
    """Arrays of ``shape`` with magnitudes in [low, high], of either sign if ``signed``."""
    elements = st.floats(low, high)
    if signed:
        elements = st.one_of(elements, st.floats(-high, -low))
    return hnp.arrays(np.float64, shape, elements=elements)


@settings(BOUNDED, max_examples=200)
@given(data=st.data(), shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3,
                                                                 max_side=3),
       op=st.sampled_from(["add", "mul", "mse_loss", "nb_nll_loss"]))
def test_broadcasting_ops_pass_grad_check(data, shapes, op):
    (sa, sb), out = shapes.input_shapes, shapes.result_shape
    if op == "nb_nll_loss":  # mean and dispersion, clear of the domain edges
        a = data.draw(values(sa, 0.5, 10.0), label="mean")
        b = data.draw(values(sb, 0.1, 2.0), label="dispersion")
        y = data.draw(hnp.arrays(np.float64, out, elements=st.integers(0, 15)), label="counts")
        assert tc.grad_check(lambda ps: tr.nb_nll_loss(ps[0], ps[1], y), [a, b]) < 1e-6
        return
    a = data.draw(values(sa, 0.0, 2.0, signed=True), label="a")
    b = data.draw(values(sb, 0.0, 2.0, signed=True), label="b")
    if op == "mse_loss":  # a loss: scalar already, with both operands as leaves
        assert tc.grad_check(lambda ps: tr.mse_loss(ps[0], ps[1]), [a, b]) < 1e-6
        return
    probe = data.draw(values(out, 0.0, 1.0, signed=True), label="probe")

    def f(ps):
        return tc.mean(tc.mul(getattr(tc, op)(ps[0], ps[1]), tc.Tensor(probe)))

    assert tc.grad_check(f, [a, b]) < 1e-6


@settings(BOUNDED, max_examples=120)
@given(data=st.data(), op=st.sampled_from(["concat", "expand_rows", "mean", "relu", "softplus",
                                           "dropout"]))
def test_shape_and_pointwise_ops_pass_grad_check(data, op):
    ndim = data.draw(st.integers({"concat": 1, "expand_rows": 2}.get(op, 0), 3), label="rank")
    shape = data.draw(st.tuples(*[st.integers(1, 4)] * ndim), label="shape")
    if op == "expand_rows":
        shape = shape[:-2] + (1,) + shape[-1:]
    low = 0.1 if op == "relu" else 0.0  # relu's inputs stay clear of its kink
    leaves = [data.draw(values(shape, low, 2.0, signed=True), label="x")]
    if op == "concat":
        axis = data.draw(st.integers(-ndim, ndim - 1), label="axis")
        other = list(shape)
        other[axis] = data.draw(st.integers(1, 4), label="other extent")
        leaves.append(data.draw(values(tuple(other), 0.0, 2.0, signed=True), label="y"))
        call = lambda ps: tc.concat(ps[0], ps[1], axis)
    elif op == "expand_rows":
        rows = data.draw(st.integers(1, 4), label="rows")
        call = lambda ps: tc.expand_rows(ps[0], rows)
    elif op == "dropout":  # a fresh fixed-seed rng per call, so every call draws one mask
        rate = data.draw(st.floats(0.0, 0.9, exclude_max=True), label="rate")
        call = lambda ps: tc.dropout(ps[0], rate, "train", make_rng(5))
    else:
        call = lambda ps: getattr(tc, op)(ps[0])
    probe = data.draw(values(call(leaves).shape, 0.0, 1.0, signed=True), label="probe")
    assert tc.grad_check(lambda ps: tc.mean(tc.mul(call(ps), tc.Tensor(probe))), leaves) < 1e-6


@settings(BOUNDED, max_examples=60)
@given(data=st.data(), time_axis=st.booleans(), rank=st.sampled_from([2, 3]),
       bound=st.tuples(st.booleans(), st.booleans(), st.booleans()).filter(any))
def test_linear_passes_grad_check(data, time_axis, rank, bound):
    extent = st.integers(1, 5)
    out_dim, in_dim = data.draw(extent, label="out"), data.draw(extent, label="in")
    shape = list(data.draw(st.tuples(*[extent] * rank), label="x shape"))
    shape[-2 if time_axis else -1] = in_dim
    arrays = [data.draw(quarters(s), label=n)
              for s, n in ((tuple(shape), "x"), ((out_dim, in_dim), "w"), ((out_dim,), "b"))]
    plain = tc.linear(*arrays, time_axis)
    probe = data.draw(values(plain.shape, 0.0, 1.0, signed=True), label="probe")

    def call(ps):
        given = iter(ps)
        return tc.linear(*[next(given) if on else a for on, a in zip(bound, arrays)], time_axis)

    tape = tc.Tape()
    taped = call([tape.leaf(a) for on, a in zip(bound, arrays) if on])
    assert taped.tape is tape
    np.testing.assert_allclose(taped.data, plain.data, rtol=1e-13)
    leaves = [a for on, a in zip(bound, arrays) if on]
    assert tc.grad_check(lambda ps: tc.mean(tc.mul(call(ps), tc.Tensor(probe))), leaves) < 1e-6


def window_count(first: int, last_start: int, stride: int) -> int:
    """Starts first, first + stride, ... up to last_start, counted in closed form."""
    return (last_start - first) // stride + 1 if last_start >= first else 0


def assert_frozen(batch):
    """Every array is read-only, and the float ones down to their base, so
    a Tensor shares them."""
    for name in FIELDS:
        assert not getattr(batch, name).flags.writeable, name
    for name in FIELDS[:4]:
        assert tc.Tensor(getattr(batch, name)).data is getattr(batch, name), name


@settings(BOUNDED, max_examples=150)
@given(data=st.data())
def test_windows_and_splits_match_the_stacked_oracle(data):
    roles = data.draw(st.lists(st.sampled_from(dt.ROLES), min_size=1, max_size=5), label="roles")
    steps = data.draw(st.integers(0, 40), label="steps")
    spec = dt.WindowSpec(data.draw(st.integers(1, 8), label="lookback"),
                         data.draw(st.integers(1, 5), label="horizon"),
                         data.draw(st.integers(1, 4), label="stride"))
    cuts = sorted(data.draw(st.lists(st.integers(0, steps), min_size=6, max_size=6), label="cuts"))
    split = dt.SplitSpec(ranges=tuple(zip(cuts[::2], cuts[1::2])))
    values = np.random.default_rng(steps).normal(size=(steps, len(roles)))
    values[:, [r == "static" for r in roles]] = 1.5
    names = [f"c{j}" for j in range(len(roles))]
    frame = dt.SeriesFrame(values, names, dict(zip(names, roles)))
    L, T, stride = spec.lookback, spec.horizon, spec.stride

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "no windows fit"
        whole = dt.make_windows(frame, spec)
        parts = dt.split_windows(frame, split, spec)
    assert len(whole) == window_count(0, steps - L - T, stride)
    batches = [(whole, (0, steps))] + list(zip(parts, split.ranges))
    for batch, (lo, hi) in batches:
        assert len(batch) == window_count(max(lo - L, 0), hi - L - T, stride)
        assert np.all(batch.starts >= 0)
        assert np.all((batch.starts + L >= lo) & (batch.starts + L + T <= hi))
        assert_batch_matches(batch, stacked_windows(frame, spec, lo, hi))
        assert_frozen(batch)
        idx = data.draw(st.lists(st.integers(0, len(batch) - 1), max_size=4)
                        if len(batch) else st.just([]), label="idx")
        assert_frozen(batch.subset(np.array(idx, dtype=np.int64)))
        assert_frozen(batch.subset(slice(1, None, 2)))


@settings(BOUNDED, max_examples=120)
@given(data=st.data(), k=st.integers(1, 6), horizon=st.integers(1, 5), steps=st.integers(0, 140))
def test_rowwise_rmsse_matches_each_row_alone(data, k, horizon, steps):
    """Scoring k series at once gives each one's own score bit for bit, or
    the error its first bad row raises alone: no nonzero value, fewer than
    two live observations, or a constant history.  One series alone scores
    as ``one_series_rmsse`` does."""
    values = st.floats(-1e6, 1e6)
    forecast, actual = (data.draw(hnp.arrays(np.float64, (k, horizon), elements=values))
                        for _ in range(2))
    history = data.draw(hnp.arrays(np.float64, (k, steps), elements=values))
    for row in history:
        row[:data.draw(st.integers(0, steps))] = 0.0  # leading zeros
        if data.draw(st.booleans()):
            row[row != 0] = data.draw(st.sampled_from([1.0, -3.5]))  # constant once live

    def alone(i):
        try:
            return mt.rmsse(forecast[i], actual[i], history[i])
        except MetricError as exc:
            return str(exc)

    each = [alone(i) for i in range(k)]
    assert [repr(e) for e in each] == [repr(one_series_rmsse(*r)) for r in zip(forecast, actual,
                                                                            history)]
    errors = [e for e in each if isinstance(e, str)]
    if errors:
        with pytest.raises(MetricError) as exc:
            mt.rmsse(forecast, actual, history)
        assert str(exc.value) == errors[0]
    else:
        assert all(isinstance(e, float) for e in each)
        assert mt.rmsse(forecast, actual, history).tobytes() == np.array(each).tobytes()


def one_series_rmsse(f, a, h):
    """RMSSE of one series as mixcast computed it before rows: the score, or
    the MetricError text."""
    nonzero = np.nonzero(h)[0]
    if nonzero.size == 0:
        return "rmsse: history has no nonzero observations"
    live = h[nonzero[0]:]
    if live.size < 2:
        return "rmsse: history needs at least two live observations"
    scale = float(np.mean(np.diff(live) ** 2))
    if scale <= 0.0:
        return "rmsse: history is constant, the scale is undefined"
    return float(np.sqrt(np.mean((f - a) ** 2) / scale))
