"""Data handling: CSV ingest, column roles, scaling, windowing, splits,
and synthetic series generators.

A SeriesFrame is a dense (steps x columns) float64 table plus a role per
column: ``target`` (forecast these), ``historical`` (observed over the
lookback only), ``future`` (known over the horizon too), ``static``
(constant per series).  Windowing turns a frame into aligned arrays:

    history  N x lookback x (targets + historicals)
    future   N x horizon  x futures
    static   N x 1        x statics
    target   N x horizon  x targets

History, future and target are read-only strided views onto one frozen
copy of the rows the windows touch, so a window set costs one copy of
those rows however much the windows overlap, and a ``Tensor`` shares them
instead of copying them.  Indexing a batch with an index array makes the
only other copy.

Splits are chronological.  Windowing a split lets validation and test
windows reach back across the partition boundary for lookback context —
targets never cross a boundary, so no evaluated value leaks forward.
A span too short for one window gives an empty batch and no warning: the
caller decides whether that is an error.  All scaling statistics come from
training rows only.
"""

from __future__ import annotations

import array
import configparser
import csv
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ConfigurationError, DataError, MixcastError, ParameterError, SchemaError,
                     reading)
from .rng import make_rng

ROLES = ("target", "historical", "future", "static")

# Standard deviations below this floor count as "no variation".
SCALE_FLOOR = 1e-8


@dataclass
class SeriesFrame:
    """Dense multivariate series with one role per column."""

    values: np.ndarray
    columns: list[str]
    roles: dict[str, str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"frame values must be steps x columns, got shape {self.values.shape}")
        if self.values.shape[1] != len(self.columns):
            raise DataError(
                f"{len(self.columns)} column names for {self.values.shape[1]} value columns"
            )
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError("duplicate column names")
        for col in self.columns:
            role = self.roles.get(col)
            if role not in ROLES:
                raise SchemaError(f"column {col!r} has invalid role {role!r}; expected one of {ROLES}")
        for j in self.indices_for("static"):
            series = self.values[:, j]
            if series.size and not np.all(series == series[0]):
                raise SchemaError(f"static column {self.columns[j]!r} is not constant over time")
        if not np.all(np.isfinite(self.values)):
            raise DataError("frame contains non-finite values")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    def columns_for(self, role: str) -> list[str]:
        return [c for c in self.columns if self.roles[c] == role]

    def indices_for(self, role: str) -> list[int]:
        return [j for j, c in enumerate(self.columns) if self.roles[c] == role]

    def scaled_indices(self) -> list[int]:
        """Positions of the columns a Standardizer covers: the non-static ones, in order."""
        return [j for j, c in enumerate(self.columns) if self.roles[c] != "static"]


def read_ini(path, error: type[MixcastError]) -> configparser.ConfigParser:
    """Parse an INI file with case-sensitive keys; a missing, unreadable
    or malformed file raises ``error``."""
    parser = configparser.ConfigParser(interpolation=None)  # values are literal: '%' is '%'
    parser.optionxform = str
    with reading(path, error), open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            reason = str(exc).splitlines()[0]
            raise error(f"{path} is not a valid INI file: {reason}") from None
    return parser


def load_schema(path) -> dict[str, str]:
    """Read a column-role schema from an INI file with a [roles] section."""
    parser = read_ini(path, SchemaError)
    if not parser.has_section("roles"):
        raise SchemaError(f"schema file {path} has no [roles] section")
    schema = {}
    for col, role in parser.items("roles"):
        if role not in ROLES:
            raise SchemaError(f"schema column {col!r}: invalid role {role!r}")
        schema[col] = role
    return schema


def load_csv(path, schema: dict[str, str] | None = None) -> SeriesFrame:
    """Read a numeric CSV (header row, '#' comment lines) into a frame.

    ``schema`` maps column names to roles; omitted columns default to
    ``target``.  Ragged rows, unparseable or non-finite cells, a repeated
    column name, and schema columns missing from the header are rejected
    with the offending location named; of several bad lines, the first in
    the file is named.
    """
    with reading(path, DataError), open(path, newline="", encoding="utf-8") as fh:
        parsed = _read_plain(fh)
        if parsed is None:
            fh.seek(0)
            parsed = _read_cells(path, fh)
    header, values = parsed
    schema = dict(schema or {})
    unknown = set(schema) - set(header)
    if unknown:
        raise SchemaError(f"{path}: schema declares missing columns {sorted(unknown)}")
    roles = {col: schema.get(col, "target") for col in header}
    return SeriesFrame(values, header, roles)


def _read_plain(fh) -> tuple[list[str], np.ndarray] | None:
    """Header and values in one pass of numpy's C reader, or None unless
    every row is well formed and finite and every cell plain.

    A plain line (no quote, NUL or line break, and no field as long as the
    csv module's field limit) goes to numpy as it stands, since
    ``split(",")`` yields the fields ``csv.reader`` does; only a line at
    least that long is split to find its longest field.  Any other line
    starts a record that ``csv.reader`` reads, on over the lines below while
    a quoted field is open, and numpy gets its cells joined by commas,
    unless a cell holds a comma or is not plain.  numpy parses each field,
    ASCII only, with the parser ``float()`` uses, so it accepts a subset of
    the cells the per-cell path does and gives the same values.  Every other
    file, and every error message, is left to ``_read_cells``.
    """
    limit = csv.field_size_limit()
    count = 0

    def plain(text):
        return (len(text) < limit or max(map(len, text.split(","))) < limit) and not (
            '"' in text or "\0" in text or "\r" in text or "\n" in text)

    def plain_lines():
        nonlocal count
        for line in fh:
            text = line.removesuffix("\n").removesuffix("\r")
            if plain(text):
                if not text or text.lstrip().startswith("#"):
                    continue
            else:
                # Read as csv reads it, a comment too: a quote may open a field
                # that runs on over the lines below.
                row = next(csv.reader(itertools.chain((line,), fh)))
                if not row or row[0].lstrip().startswith("#"):
                    continue
                text = ",".join(row)
                if text.count(",") >= len(row) or not plain(text):
                    raise ValueError("not a plain cell")  # ends loadtxt where it stands
            count += 1
            yield text

    lines = plain_lines()
    try:
        header, first = next(lines, None), next(lines, None)
        if first is None:  # no header or no data rows; loadtxt would warn on no data
            return None
        values = np.loadtxt(itertools.chain((first,), lines), dtype=np.float64, delimiter=",",
                            comments=None, quotechar=None, ndmin=2)
    except (ValueError, csv.Error):
        # a cell that is not plain, a bad or ragged row, bytes not UTF-8, or a too-long field
        return None
    header = [c.strip() for c in header.split(",")]
    if (values.shape != (count - 1, len(header)) or len(set(header)) < len(header)
            or not np.isfinite(values).all()):
        return None
    return header, values


def _read_cells(path, fh) -> tuple[list[str], np.ndarray]:
    """Header and values through ``csv.reader``, each cell parsed once, with
    a DataError naming the first bad line in file order."""
    header: list[str] | None = None
    cells = array.array("d")  # 8 bytes a value, not a Python float each
    reader = csv.reader(fh)
    try:
        for row in reader:
            if not row or (row[0].lstrip().startswith("#")):
                continue
            line = reader.line_num
            if header is None:
                header = [c.strip() for c in row]
                if len(set(header)) < len(header):
                    repeated = next(col for i, col in enumerate(header) if col in header[:i])
                    raise DataError(f"{path}: duplicate column name {repeated!r}")
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: line {line}: expected {len(header)} fields, got {len(row)}")
            for col, cell in zip(header, row):
                text = cell.strip()  # float() alone keeps the separators U+001C to U+001F
                if not text:
                    raise DataError(f"{path}: line {line}: column {col!r} is empty")
                try:
                    value = float(text)
                except ValueError:
                    raise DataError(
                        f"{path}: line {line}: column {col!r} has non-numeric value {text!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(f"{path}: line {line}: column {col!r} is not finite ({text})")
                cells.append(value)
    except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: no header row found")
    if not cells:
        raise DataError(f"{path}: no data rows found")
    return header, np.frombuffer(cells, dtype=np.float64).reshape(-1, len(header))


def save_csv(frame: SeriesFrame, path, header_lines: tuple[str, ...] = ()) -> None:
    """Write a frame as CSV; ``header_lines`` become '#' comments on top."""
    with reading(path, ConfigurationError, "write"), open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        csv.writer(fh).writerow(frame.columns)
        # A float's repr never needs quoting, so each row is what csv.writer would write.
        # Rows convert one at a time, so no Python float outlives its row.
        fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in frame.values)


# ---------------------------------------------------------------------------
# scaling


@dataclass
class Standardizer:
    """Per-column (x - mean) / std, fit on training rows only."""

    columns: list[str]
    mean: np.ndarray
    std: np.ndarray

    def apply(self, frame: SeriesFrame) -> SeriesFrame:
        where = {c: j for j, c in enumerate(frame.columns)}
        for c in self.columns:
            if c not in where:
                raise SchemaError(f"standardizer column {c!r} missing from frame")
        # Full-width statistics, 0 and 1 at the other columns: (x - 0) / 1 is exactly x.
        mean, std = np.zeros(len(frame.columns)), np.ones(len(frame.columns))
        idx = [where[c] for c in self.columns]
        mean[idx], std[idx] = self.mean, self.std
        with np.errstate(over="ignore"):
            values = frame.values - mean  # the one copy, scaled in place
            values /= std
        if not np.isfinite(values).all():
            j = int(np.argmin(np.isfinite(values).all(axis=0)))
            raise DataError(f"column {frame.columns[j]!r} overflows when standardized "
                            f"by its scale {float(std[j])!r}")
        return SeriesFrame(values, list(frame.columns), dict(frame.roles))

    def subset(self, columns: list[str]) -> "Standardizer":
        """The scaler of ``columns``, in that order; SchemaError for one it lacks."""
        where = {c: j for j, c in enumerate(self.columns)}
        for c in columns:
            if c not in where:
                raise SchemaError(f"column {c!r} was not standardized")
        idx = [where[c] for c in columns]
        return Standardizer(list(columns), self.mean[idx], self.std[idx])

    def invert(self, values: np.ndarray) -> np.ndarray:
        """Map standardized values (..., len(columns)) back to raw units."""
        out = values * self.std
        return np.add(out, self.mean, out=out)  # in place: one new array a call


def global_standardize(frame: SeriesFrame, train_rows: int) -> tuple[SeriesFrame, Standardizer]:
    """Standardize every non-static column using the first ``train_rows`` rows.

    Columns with (near-)zero variance over the training rows get a floored
    deviation and a warning; they standardize to zeros rather than blowing up.
    """
    if not 1 <= train_rows <= frame.n_steps:
        raise ParameterError(f"train_rows must be in [1, {frame.n_steps}], got {train_rows}")
    idx = frame.scaled_indices()
    cols = [frame.columns[j] for j in idx]
    train = frame.values[:train_rows, idx]
    with np.errstate(all="ignore"):  # no numpy warnings: the check below names a failure
        mean, std = train.mean(axis=0), train.std(axis=0)
    del train  # before apply makes its copy
    finite = np.isfinite(mean) & np.isfinite(std)
    if not finite.all():
        j = int(np.argmin(finite))
        raise DataError(f"column {cols[j]!r} overflows in its training statistics: "
                        f"mean {float(mean[j])!r}, std {float(std[j])!r}")
    flat = std < SCALE_FLOOR
    if np.any(flat):
        names = [c for c, f in zip(cols, flat) if f]
        warnings.warn(f"columns {names} are constant over the training rows; "
                      "standardizing with a floored deviation")
        std = np.where(flat, 1.0, std)
    scaler = Standardizer(cols, mean, std)
    return scaler.apply(frame), scaler


# ---------------------------------------------------------------------------
# windowing and splits


@dataclass
class WindowSpec:
    lookback: int
    horizon: int
    stride: int = 1

    def validate(self) -> None:
        for name in ("lookback", "horizon", "stride"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigurationError(f"{name} must be a positive integer, got {v!r}")


@dataclass
class WindowBatch:
    """Aligned, read-only window arrays; empty batches keep their trailing shape."""

    history: np.ndarray
    future: np.ndarray
    static: np.ndarray
    target: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return self.history.shape[0]

    def subset(self, idx) -> "WindowBatch":
        """Windows ``idx``, read-only: views for a slice, a copy for an index array."""
        parts = [a[idx] for a in (self.history, self.future, self.static, self.target, self.starts)]
        for a in parts:
            a.setflags(write=False)
        return WindowBatch(*parts)


def _freeze(arr: np.ndarray) -> np.ndarray:
    """``arr``, read-only with every array it views (only for arrays made here)."""
    a = arr
    while isinstance(a, np.ndarray):
        a.setflags(write=False)
        a = a.base
    return arr


def windows_between(frame: SeriesFrame, spec: WindowSpec, lo: int, hi: int) -> WindowBatch:
    """Windows whose target block lies inside rows [lo, hi); history may
    extend left of ``lo`` but not before row 0.  History, future and target
    are strided views of one frozen copy of the rows the windows touch, its
    columns ordered target | historical | future; the static row is its own."""
    spec.validate()
    L, T, stride = spec.lookback, spec.horizon, spec.stride
    targ, hist, fut, stat = (frame.indices_for(role) for role in ROLES)
    first = max(lo - L, 0)
    starts = _freeze(np.arange(first, hi - L - T + 1, stride, dtype=np.int64))
    n, h = starts.size, len(targ) + len(hist)
    if n:
        # ``[rows, columns]`` copies column-major, so each window's time axis is contiguous.
        block = _freeze(frame.values[first : first + (n - 1) * stride + L + T, targ + hist + fut])
        history, lead = (sliding_window_view(rows, width, axis=0)[: (n - 1) * stride + 1 : stride]
                         .swapaxes(1, 2) for rows, width in ((block[:, :h], L), (block[L:], T)))
        static_row = _freeze(frame.values[first : first + 1, stat])
    else:  # zero-length views: nothing that grows with the lookback
        history, lead = _freeze(np.zeros((0, L, h))), _freeze(np.zeros((0, T, h + len(fut))))
        static_row = _freeze(np.zeros((1, len(stat))))
    return WindowBatch(
        history=history,
        future=lead[..., h:],
        static=np.broadcast_to(static_row, (n, 1, len(stat))),
        target=lead[..., : len(targ)],
        starts=starts,
    )


def make_windows(frame: SeriesFrame, spec: WindowSpec) -> WindowBatch:
    """Slide a lookback+horizon window over the whole frame.

    Yields floor((steps - lookback - horizon) / stride) + 1 windows; a
    frame too short for a single window gives an empty batch, and the caller
    decides whether that is an error.
    """
    return windows_between(frame, spec, 0, frame.n_steps)


@dataclass
class SplitSpec:
    """Chronological three-way split: fractions of rows, or explicit
    [start, stop) row ranges."""

    fractions: tuple[float, float, float] | None = None
    ranges: tuple[tuple[int, int], tuple[int, int], tuple[int, int]] | None = None

    def validate(self) -> None:
        if (self.fractions is None) == (self.ranges is None):
            raise ConfigurationError("split needs exactly one of fractions or ranges")
        if self.fractions is not None:
            if len(self.fractions) != 3 or any(f < 0 for f in self.fractions):
                raise ConfigurationError(f"fractions must be three non-negative values, got {self.fractions}")
            if abs(sum(self.fractions) - 1.0) > 1e-9:
                raise ConfigurationError(f"fractions must sum to 1, got {self.fractions}")
        else:
            for lo, hi in self.ranges:
                if lo < 0:
                    raise ConfigurationError(f"range ({lo}, {hi}) starts before row 0")
                if lo > hi:
                    raise ConfigurationError(f"range ({lo}, {hi}) is reversed")
            for (a, b), (c, d) in zip(self.ranges, self.ranges[1:]):
                if b > c:
                    raise ConfigurationError("split ranges must be ordered and non-overlapping")

    def bounds(self, steps: int) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        self.validate()
        if self.fractions is not None:
            n1 = int(steps * self.fractions[0])
            n2 = int(steps * self.fractions[1])
            return (0, n1), (n1, n1 + n2), (n1 + n2, steps)
        for lo, hi in self.ranges:
            if hi > steps:
                raise ConfigurationError(f"split range ({lo}, {hi}) exceeds {steps} rows")
        return self.ranges


DEFAULT_SPLIT = SplitSpec(fractions=(0.7, 0.2, 0.1))


def split_windows(frame: SeriesFrame, split_spec: SplitSpec,
                  window_spec: WindowSpec) -> tuple[WindowBatch, WindowBatch, WindowBatch]:
    """Window each partition, letting lookback context cross boundaries
    backwards (targets stay inside their partition)."""
    window_spec.validate()
    b = split_spec.bounds(frame.n_steps)
    return tuple(windows_between(frame, window_spec, lo, hi) for lo, hi in b)


# ---------------------------------------------------------------------------
# synthetic generators


def _frame_of(values: np.ndarray, prefix: str = "y") -> SeriesFrame:
    cols = [f"{prefix}{i}" for i in range(values.shape[1])]
    return SeriesFrame(values, cols, {c: "target" for c in cols})


def synth_periodic(period: int, steps: int, variates: int = 1, amplitude: float = 1.0,
                   seed: int = 0, kind: str = "sine") -> SeriesFrame:
    """Exactly period-periodic signal: random-phase sinusoid or a repeated
    random template."""
    if period < 1 or steps < 1 or variates < 1:
        raise ParameterError("period, steps, and variates must be positive")
    rng = make_rng(seed)
    t = np.arange(steps)
    if kind == "sine":
        phase = rng.uniform(0.0, period, size=variates)
        values = amplitude * np.sin(2.0 * np.pi * ((t[:, None] % period) + phase) / period)
    elif kind == "template":
        template = amplitude * rng.normal(size=(period, variates))
        values = template[t % period]
    else:
        raise ParameterError(f"kind must be 'sine' or 'template', got {kind!r}")
    return _frame_of(values)


def synth_affine_periodic(period: int, steps: int, scale: float, offset: float,
                          variates: int = 1, seed: int = 0) -> SeriesFrame:
    """Recursion x(t) = scale * x(t - period) + offset from a random start."""
    if period < 1 or steps < 1 or variates < 1:
        raise ParameterError("period, steps, and variates must be positive")
    rng = make_rng(seed)
    values = np.empty((steps, variates))
    head = min(period, steps)
    values[:head] = rng.normal(size=(head, variates))
    with np.errstate(all="ignore"):  # no numpy warnings: the frame check names an overflow
        for t in range(period, steps):
            values[t] = scale * values[t - period] + offset
    return _frame_of(values)


def synth_periodic_plus_trend(period: int, steps: int, slope_limit: float,
                              variates: int = 1, seed: int = 0) -> SeriesFrame:
    """Periodic template plus a random walk with per-step increments
    clipped to [-slope_limit, slope_limit] (a slope_limit-Lipschitz trend)."""
    most = float(np.finfo(np.float64).max) / 2  # so uniform(-most, most) has a finite range
    if not 0 <= slope_limit <= most:  # NaN fails too
        raise ParameterError(f"slope_limit must lie in [0, {most!r}], got {slope_limit}")
    base = synth_periodic(period, steps, variates, seed=seed, kind="template").values
    rng = make_rng(seed, 1)
    drift = rng.uniform(-slope_limit, slope_limit, size=(steps - 1, variates))
    with np.errstate(all="ignore"):  # no numpy warnings: the frame check names an overflow
        values = base + np.vstack([np.zeros((1, variates)), np.cumsum(drift, axis=0)])
    return _frame_of(values)


def synth_crossvariate(steps: int, lag: int, noise: float = 0.05, seed: int = 0) -> SeriesFrame:
    """Two targets where y1 copies y0 from ``lag`` steps earlier plus noise.

    Forecasting y1 within `lag` steps is deterministic given y0's history —
    but only for a model that mixes information across variates.
    """
    if lag < 1 or lag >= steps:
        raise ParameterError(f"lag must be in [1, steps), got {lag}")
    rng = make_rng(seed)
    driver = rng.normal(size=steps)
    follower = noise * rng.normal(size=steps)
    follower[lag:] += driver[:-lag]
    return _frame_of(np.column_stack([driver, follower]))
