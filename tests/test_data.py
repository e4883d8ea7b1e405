"""CSV ingest, scaling, windowing, splits, and synthetic generators."""

import csv
import tracemalloc

import numpy as np
import pytest

from mixcast import data as dt
from mixcast import errors
from mixcast.rng import make_rng


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_basic_with_comments_and_schema(self, tmp_path):
        path = write(tmp_path, "# provenance line\nsales,price,store\n1.0,2.5,7\n2.0,2.5,7\n")
        frame = dt.load_csv(path, {"price": "historical", "store": "static"})
        assert frame.columns == ["sales", "price", "store"]
        assert frame.roles == {"sales": "target", "price": "historical", "store": "static"}
        np.testing.assert_array_equal(frame.values[:, 0], [1.0, 2.0])

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path, "a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(errors.DataError, match="line 3"):
            dt.load_csv(path)

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1.0,oops\n")
        with pytest.raises(errors.DataError, match="line 2.*'b'"):
            dt.load_csv(path)

    def test_empty_cell_rejected(self, tmp_path):
        path = write(tmp_path, "a,b\n1.0,\n")
        with pytest.raises(errors.DataError, match="empty"):
            dt.load_csv(path)

    def test_nan_literal_rejected(self, tmp_path):
        path = write(tmp_path, "a\nnan\n")
        with pytest.raises(errors.DataError, match="finite"):
            dt.load_csv(path)

    def test_schema_missing_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1.0,2.0\n")
        with pytest.raises(errors.SchemaError, match="ghost"):
            dt.load_csv(path, {"ghost": "future"})

    def test_static_column_must_be_constant(self, tmp_path):
        path = write(tmp_path, "a,s\n1.0,1.0\n2.0,3.0\n")
        with pytest.raises(errors.SchemaError, match="constant"):
            dt.load_csv(path, {"s": "static"})

    def test_save_load_roundtrip_exact(self, tmp_path):
        values = make_rng(1).normal(size=(20, 3)) * 1e3
        frame = dt.SeriesFrame(values, ["a", "b", "c"],
                               {"a": "target", "b": "target", "c": "future"})
        path = tmp_path / "round.csv"
        dt.save_csv(frame, path, header_lines=("tool test",))
        back = dt.load_csv(path, {"c": "future"})
        np.testing.assert_array_equal(back.values, values)
        assert back.roles == frame.roles

    def test_save_csv_bytes_match_csv_writer(self, tmp_path):
        values = np.array([[np.nan, np.inf, -np.inf], [-0.0, 1e-300, 5e-324],
                           [0.1, -2.5e17, 123456789.125]])
        names = ["plain", 'says "hi", twice', "c"]
        frame = dt.SeriesFrame(np.zeros_like(values), names, dict.fromkeys(names, "target"))
        frame.values = values  # a frame rejects nan and inf; the writer must not mangle them
        path = tmp_path / "fast.csv"
        dt.save_csv(frame, path, header_lines=("made by a test", "seed 3"))
        with open(tmp_path / "oracle.csv", "w", newline="") as fh:
            fh.write("# made by a test\n# seed 3\n")
            writer = csv.writer(fh)
            writer.writerow(names)
            for row in values:
                writer.writerow([repr(float(v)) for v in row])
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_plain_csv_holds_no_per_cell_strings(self, tmp_path):
        # save_csv writes CRLF lines: mixcast's own CSVs must parse in one numpy
        # pass, whose peak stays below the file's size; a str per cell does not.
        values = make_rng(4).normal(size=(2000, 64))
        names = [f"c{j}" for j in range(64)]
        path = tmp_path / "wide.csv"
        dt.save_csv(dt.SeriesFrame(values, names, dict.fromkeys(names, "target")), path)
        tracemalloc.start()
        try:
            frame = dt.load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frame.values.tobytes() == values.tobytes()
        assert peak < path.stat().st_size

    def test_schema_file_parsing(self, tmp_path):
        spath = tmp_path / "schema.ini"
        spath.write_text("[roles]\nsales = target\nprice = historical\n")
        assert dt.load_schema(spath) == {"sales": "target", "price": "historical"}
        bad = tmp_path / "bad.ini"
        bad.write_text("[roles]\nx = sideways\n")
        with pytest.raises(errors.SchemaError, match="sideways"):
            dt.load_schema(bad)


def per_cell_values(path):
    """The cell-by-cell parse load_csv used before its bulk conversion,
    kept as the oracle for values and for DataError text."""
    header, rows = None, []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or (row[0].lstrip().startswith("#")):
                continue
            if header is None:
                header = [c.strip() for c in row]
                continue
            if len(row) != len(header):
                raise errors.DataError(
                    f"{path}: line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            parsed = []
            for col, cell in zip(header, row):
                text = cell.strip()
                if not text:
                    raise errors.DataError(f"{path}: line {reader.line_num}: column {col!r} is empty")
                try:
                    value = float(text)
                except ValueError:
                    raise errors.DataError(
                        f"{path}: line {reader.line_num}: column {col!r} has non-numeric "
                        f"value {text!r}"
                    ) from None
                if not np.isfinite(value):
                    raise errors.DataError(
                        f"{path}: line {reader.line_num}: column {col!r} is not finite ({text})"
                    )
                parsed.append(value)
            rows.append(parsed)
    return np.asarray(rows, dtype=np.float64)


def outcome(fn, path):
    """("ok", raw bytes of the values) or ("error", message)."""
    try:
        values = fn(path)
    except errors.DataError as exc:
        return "error", str(exc)
    return "ok", np.ascontiguousarray(values).tobytes()


class TestCsvParity:
    @pytest.mark.parametrize("cell", [" 1.5 ", "1_000", "+.5", "\u0661\u0662", "-0", "1e-400",
                                      "\t7\t", "1E3", "-2.5e-3", "4."])
    def test_accepted_edge_cells(self, tmp_path, cell):
        path = write(tmp_path, f"a,b\n0.25,{cell}\n{cell},-1\n")
        assert outcome(lambda p: dt.load_csv(p).values, path) == outcome(per_cell_values, path)
        assert outcome(per_cell_values, path)[0] == "ok"

    def test_random_literals_bitwise(self, tmp_path):
        rng = make_rng(30)
        values = rng.normal(size=(40, 7)) * 10.0 ** rng.integers(-300, 300, size=(40, 7))
        values[0, 0] = -0.0
        lines = ["a,b,c,d,e,f,g"] + [",".join(repr(float(v)) for v in row) for row in values]
        path = write(tmp_path, "\n".join(lines) + "\n")
        frame = dt.load_csv(path)
        assert frame.values.tobytes() == values.tobytes()
        assert frame.values.tobytes() == per_cell_values(path).tobytes()

    def test_quoted_numeric_cells(self, tmp_path):
        path = write(tmp_path, 'a,"b,c"\n"1.5"," 2 "\n"-3e2",4\n')
        frame = dt.load_csv(path)
        assert frame.columns == ["a", "b,c"]
        assert frame.values.tobytes() == per_cell_values(path).tobytes()
        np.testing.assert_array_equal(frame.values, [[1.5, 2.0], [-300.0, 4.0]])

    @pytest.mark.parametrize("text", [
        'a,b\n1,2\n3,4\n5,"6"\n',                       # only the last row has a quoted cell
        '#x,"note\nstill a note"\n"a",b\n1,2\n"3",4\n5,6\n7,"8"\n9,10\n"11"," 12 "\n13,14\n',
    ])
    def test_quoted_records_are_read_in_the_one_pass(self, tmp_path, monkeypatch, text):
        # Plain and quoted lines alternate; none of them rewinds the file for
        # the per-cell path.
        path = write(tmp_path, text)
        expected = per_cell_values(path)

        def rewound(path, fh):
            raise AssertionError("load_csv read the file a second time")

        monkeypatch.setattr(dt, "_read_cells", rewound)
        frame = dt.load_csv(path)
        assert frame.columns == ["a", "b"]
        assert frame.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", [
        "a,b\n1.0,\n",                      # empty cell
        "a,b\n1.0,  \n",                    # blank cell
        "a,b\n1.0,2.0\n3.0,oops\n",          # non-numeric cell
        "a,b\n0x10,2.0\n",                  # hex is not a float literal
        "a,b\n1.0,nan\n",
        "a,b\n1.0,-inf\n",
        "a,b\n1e400,2.0\n",                 # overflows to inf
        "# note\na,b\n1.0,2.0\n3.0\n",       # ragged row
        "a,b\n1.0,bad\n3.0\n",               # bad cell before a ragged row
        "a,b\n1.0,2.0,3.0\n4.0,x\n",         # ragged row before a bad cell
        "a,b\n1.0,\"2\n3\"\n",                 # quoted cell spanning two lines
        'a,b\n1,"2"\n3,4\n"5,6"\n',             # a comma inside a quoted cell
        'a,b\n1,2\n"3",x\n5,6\n7\n',            # bad quoted-row cell before a ragged row
    ])
    def test_identical_errors(self, tmp_path, text):
        path = write(tmp_path, text)
        expected = outcome(per_cell_values, path)
        assert expected[0] == "error"
        assert outcome(lambda p: dt.load_csv(p).values, path) == expected


class TestStandardize:
    def frame(self, steps=100, seed=2):
        values = make_rng(seed).normal(loc=5.0, scale=3.0, size=(steps, 2))
        return dt.SeriesFrame(values, ["a", "b"], {"a": "target", "b": "target"})

    def test_moments_on_training_rows(self):
        frame = self.frame()
        out, scaler = dt.global_standardize(frame, 70)
        np.testing.assert_allclose(out.values[:70].mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.values[:70].std(axis=0), 1.0, atol=1e-12)

    def test_statistics_ignore_validation_rows(self):
        frame = self.frame()
        tampered = dt.SeriesFrame(frame.values.copy(), list(frame.columns), dict(frame.roles))
        tampered.values[70:] += 1e6  # future rows must not leak into the scaler
        _, s1 = dt.global_standardize(frame, 70)
        _, s2 = dt.global_standardize(tampered, 70)
        np.testing.assert_array_equal(s1.mean, s2.mean)
        np.testing.assert_array_equal(s1.std, s2.std)

    def test_constant_column_warns_and_zeroes(self):
        values = np.column_stack([np.ones(50), np.arange(50.0)])
        frame = dt.SeriesFrame(values, ["flat", "ramp"], {"flat": "target", "ramp": "target"})
        with pytest.warns(UserWarning, match="flat"):
            out, _ = dt.global_standardize(frame, 40)
        np.testing.assert_array_equal(out.values[:, 0], np.zeros(50))

    def test_static_columns_left_alone(self):
        values = np.column_stack([np.arange(10.0), np.full(10, 9.0)])
        frame = dt.SeriesFrame(values, ["a", "s"], {"a": "target", "s": "static"})
        out, scaler = dt.global_standardize(frame, 8)
        np.testing.assert_array_equal(out.values[:, 1], values[:, 1])
        assert scaler.columns == ["a"]

    def test_apply_and_invert_match_per_column_loop(self):
        frame = interleaved_frame(30)
        out, scaler = dt.global_standardize(frame, 20)
        want = frame.values.copy()
        for i, col in enumerate(scaler.columns):
            j = frame.columns.index(col)
            want[:, j] = (want[:, j] - scaler.mean[i]) / scaler.std[i]
        assert out.values.tobytes() == want.tobytes()
        cols = ["y2", "z0", "y0"]
        forecast = make_rng(13).normal(size=(4, 5, len(cols)))
        back = forecast.copy()
        for k, col in enumerate(cols):
            i = scaler.columns.index(col)
            back[..., k] = back[..., k] * scaler.std[i] + scaler.mean[i]
        assert scaler.invert(forecast, cols).tobytes() == back.tobytes()
        with pytest.raises(errors.SchemaError, match="'s0' was not standardized"):
            scaler.invert(forecast, ["y2", "s0", "y0"])

    def test_invert_roundtrip(self):
        frame = self.frame()
        out, scaler = dt.global_standardize(frame, 70)
        back = scaler.invert(out.values, ["a", "b"])
        np.testing.assert_allclose(back, frame.values, atol=1e-9)


class TestWindows:
    def frame(self, steps, seed=4):
        rng = make_rng(seed)
        values = np.column_stack([
            rng.normal(size=steps),           # target
            rng.normal(size=steps),           # historical
            rng.normal(size=steps),           # future
            np.full(steps, 3.0),              # static
        ])
        return dt.SeriesFrame(values, ["y", "h", "z", "s"],
                              {"y": "target", "h": "historical", "z": "future", "s": "static"})

    def test_count_formula(self):
        rng = make_rng(5)
        for _ in range(30):
            steps = int(rng.integers(5, 80))
            L = int(rng.integers(1, 10))
            T = int(rng.integers(1, 6))
            stride = int(rng.integers(1, 5))
            frame = self.frame(steps)
            spec = dt.WindowSpec(L, T, stride)
            if steps < L + T:
                with pytest.warns(UserWarning):
                    batch = dt.make_windows(frame, spec)
                assert len(batch) == 0
            else:
                batch = dt.make_windows(frame, spec)
                assert len(batch) == (steps - L - T) // stride + 1

    def test_window_contents_align(self):
        frame = self.frame(30)
        batch = dt.make_windows(frame, dt.WindowSpec(6, 3, stride=2))
        k = 2  # third window starts at row 4
        s = batch.starts[k]
        np.testing.assert_array_equal(batch.history[k][:, 0], frame.values[s : s + 6, 0])
        np.testing.assert_array_equal(batch.history[k][:, 1], frame.values[s : s + 6, 1])
        np.testing.assert_array_equal(batch.future[k][:, 0], frame.values[s + 6 : s + 9, 2])
        np.testing.assert_array_equal(batch.target[k][:, 0], frame.values[s + 6 : s + 9, 0])
        np.testing.assert_array_equal(batch.static[k], [[3.0]])

    def test_spec_validation(self):
        with pytest.raises(errors.ConfigurationError, match="stride"):
            dt.make_windows(self.frame(20), dt.WindowSpec(4, 2, stride=0))


def stacked_windows(frame, spec, lo, hi):
    """The np.stack construction windowing used before strided views,
    kept as the oracle."""
    L, T, stride = spec.lookback, spec.horizon, spec.stride
    cols = {role: [frame.columns.index(c) for c in frame.columns_for(role)]
            for role in dt.ROLES}
    hist_idx = cols["target"] + cols["historical"]
    starts = np.arange(max(lo - L, 0), hi - L - T + 1, stride, dtype=np.int64)
    if not starts.size:
        return (np.zeros((0, L, len(hist_idx))), np.zeros((0, T, len(cols["future"]))),
                np.zeros((0, 1, len(cols["static"]))), np.zeros((0, T, len(cols["target"]))),
                starts)
    history = np.stack([frame.values[s : s + L][:, hist_idx] for s in starts])
    future = np.stack([frame.values[s + L : s + L + T][:, cols["future"]] for s in starts])
    target = np.stack([frame.values[s + L : s + L + T][:, cols["target"]] for s in starts])
    static = np.tile(frame.values[0, cols["static"]][None, :], (starts.size, 1, 1))
    return history, future, static, target, starts


def interleaved_frame(steps, seed=12):
    """Roles interleaved so no role's columns are contiguous."""
    rng = make_rng(seed)
    names = ["z0", "y0", "h0", "s0", "y1", "z1", "h1", "y2", "s1"]
    roles = {"z0": "future", "y0": "target", "h0": "historical", "s0": "static",
             "y1": "target", "z1": "future", "h1": "historical", "y2": "target",
             "s1": "static"}
    values = rng.normal(size=(steps, len(names)))
    values[:, 3] = -1.25
    values[:, 8] = 6.5
    return dt.SeriesFrame(values, names, roles)


FIELDS = ("history", "future", "static", "target", "starts")


def assert_batch_matches(batch, oracle):
    for name, want in zip(FIELDS, oracle):
        got = getattr(batch, name)
        assert got.shape == want.shape, name
        assert got.dtype == want.dtype, name
        assert np.ascontiguousarray(got).tobytes() == want.tobytes(), name


class TestWindowParity:
    @pytest.mark.parametrize("stride", [1, 3])
    def test_make_windows_bitwise(self, stride):
        frame = interleaved_frame(61)
        spec = dt.WindowSpec(9, 5, stride)
        assert_batch_matches(dt.make_windows(frame, spec),
                             stacked_windows(frame, spec, 0, frame.n_steps))

    @pytest.mark.parametrize("stride", [1, 3])
    def test_split_windows_boundary_context_bitwise(self, stride):
        frame = interleaved_frame(120)
        spec = dt.WindowSpec(10, 4, stride)
        for split in (dt.DEFAULT_SPLIT, dt.SplitSpec(ranges=((0, 50), (53, 90), (90, 117)))):
            batches = dt.split_windows(frame, split, spec)
            for batch, (lo, hi) in zip(batches, split.bounds(frame.n_steps)):
                assert_batch_matches(batch, stacked_windows(frame, spec, lo, hi))
            assert batches[1].starts[0] < split.bounds(frame.n_steps)[1][0]

    def test_subset_matches_oracle(self):
        frame = interleaved_frame(50)
        spec = dt.WindowSpec(8, 3, 2)
        history, future, static, target, starts = stacked_windows(frame, spec, 0, 50)
        idx = np.array([4, 0, 7, 7, 2])
        assert_batch_matches(dt.make_windows(frame, spec).subset(idx),
                             (history[idx], future[idx], static[idx], target[idx], starts[idx]))

    @pytest.mark.parametrize("steps", [0, 5, 13])
    def test_empty_batch_shapes(self, steps):
        frame = interleaved_frame(steps)
        spec = dt.WindowSpec(9, 5, 3)
        with pytest.warns(UserWarning, match="no windows"):
            batch = dt.make_windows(frame, spec)
        assert_batch_matches(batch, stacked_windows(frame, spec, 0, steps))
        assert [getattr(batch, f).shape for f in FIELDS[:4]] == \
               [(0, 9, 5), (0, 5, 2), (0, 1, 2), (0, 5, 3)]

    def test_windows_are_read_only(self):
        frame = interleaved_frame(30)
        batch = dt.make_windows(frame, dt.WindowSpec(6, 3))
        before = frame.values.copy()
        for name in ("history", "future", "target"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(batch, name)[0, 0, 0] = 99.0
        np.testing.assert_array_equal(frame.values, before)


class TestSplit:
    def test_default_fractions(self):
        assert dt.DEFAULT_SPLIT.bounds(100) == ((0, 70), (70, 90), (90, 100))
        # partial rows round down, and the remainder goes to the test partition
        assert dt.DEFAULT_SPLIT.bounds(99) == ((0, 69), (69, 88), (88, 99))

    def test_explicit_ranges(self):
        spec = dt.SplitSpec(ranges=((0, 30), (30, 42), (42, 50)))
        assert spec.bounds(50) == ((0, 30), (30, 42), (42, 50))
        with pytest.raises(errors.ConfigurationError, match="exceeds 49 rows"):
            spec.bounds(49)

    def test_bad_specs(self):
        with pytest.raises(errors.ConfigurationError, match="sum"):
            dt.SplitSpec(fractions=(0.5, 0.2, 0.2)).validate()
        with pytest.raises(errors.ConfigurationError, match="overlap"):
            dt.SplitSpec(ranges=((0, 30), (20, 40), (40, 50))).validate()
        with pytest.raises(errors.ConfigurationError, match="exactly one"):
            dt.SplitSpec().validate()

    def test_split_windows_boundary_context(self):
        frame = TestWindows().frame(100)
        wspec = dt.WindowSpec(12, 4)
        train_w, val_w, test_w = dt.split_windows(frame, dt.DEFAULT_SPLIT, wspec)
        # train windows match plain windowing of the train frame
        train_frame = dt.SeriesFrame(frame.values[:70], frame.columns, frame.roles)
        assert len(train_w) == len(dt.make_windows(train_frame, wspec))
        # validation histories may start before the boundary ...
        assert val_w.starts.min() == 70 - 12
        # ... but every target stays inside its partition
        assert np.all(val_w.starts + 12 >= 70)
        assert np.all(val_w.starts + 12 + 4 <= 90)
        assert np.all(test_w.starts + 12 >= 90)
        # boundary-adjacent validation window sees true train-partition values
        k = int(np.argmin(val_w.starts))
        np.testing.assert_array_equal(val_w.history[k][:, 0], frame.values[58:70, 0])

    def test_too_short_partition_warns_empty(self):
        frame = TestWindows().frame(40)
        spec = dt.SplitSpec(ranges=((0, 36), (36, 38), (38, 40)))
        with pytest.warns(UserWarning, match="no windows"):
            _, val_w, _ = dt.split_windows(frame, spec, dt.WindowSpec(30, 4))
        assert len(val_w) == 0


class TestGenerators:
    def test_periodic_sine_is_exactly_periodic(self):
        frame = dt.synth_periodic(7, 100, variates=3, seed=6)
        v = frame.values
        np.testing.assert_array_equal(v[7:], v[:-7])

    def test_periodic_template_is_exactly_periodic(self):
        frame = dt.synth_periodic(5, 83, variates=2, seed=7, kind="template")
        v = frame.values
        np.testing.assert_array_equal(v[5:], v[:-5])

    def test_affine_periodic_recursion(self):
        frame = dt.synth_affine_periodic(4, 60, scale=1.05, offset=-0.2, seed=8)
        v = frame.values
        np.testing.assert_allclose(v[4:], 1.05 * v[:-4] - 0.2, rtol=1e-12)

    def test_trend_increments_respect_slope_limit(self):
        K = 0.4
        frame = dt.synth_periodic_plus_trend(6, 200, slope_limit=K, seed=9)
        base = dt.synth_periodic(6, 200, seed=9, kind="template")
        trend = frame.values - base.values
        inc = np.diff(trend, axis=0)
        assert np.max(np.abs(inc)) <= K + 1e-12

    def test_crossvariate_exact_when_noiseless(self):
        frame = dt.synth_crossvariate(200, lag=10, noise=0.0, seed=10)
        v = frame.values
        np.testing.assert_array_equal(v[10:, 1], v[:-10, 0])
        np.testing.assert_array_equal(v[:10, 1], np.zeros(10))

    def test_generators_deterministic(self):
        a = dt.synth_periodic_plus_trend(5, 50, 0.3, seed=11).values
        b = dt.synth_periodic_plus_trend(5, 50, 0.3, seed=11).values
        np.testing.assert_array_equal(a, b)
