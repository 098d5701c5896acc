"""Dataset container, CSV ingestion, and synthetic data.

The CSV layout is fixed: a mandatory header whose columns are named
``x0..x{n_x-1}`` (inputs) and ``y0..y{n_y-1}`` (targets), comma separated,
UTF-8 (a leading byte-order mark, as spreadsheet programs write it, is
skipped), '.' decimal point. Numeric output uses 17 significant digits so a
save/load round trip is lossless at double precision.

Reads parse the body with one vectorized ``np.loadtxt`` call; a file it
rejects is read again one ``csv.reader`` row at a time, which accepts what
Python's ``float`` accepts (quoted cells, ``1_0``) and otherwise raises the
error that names the first bad row and column. ``save_csv`` (and so
``gen-data``) ends lines with ``\r\n``; the CLI's own tables end them with
``\n``. Prediction inputs (``load_inputs_csv``) follow ``load_csv``'s row
rules: every row has one cell per header column and every cell, y-columns
included, is a finite number.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Constants of the synthetic "noisy curve with a gap and outliers" generator.
# All of them are fixed so that generated datasets are a pure function of
# (n_points, seed).
FIG_X_LO = -2.0
FIG_X_HI = 2.0
FIG_GAP = (0.25, 1.25)          # open interval that receives no samples
FIG_NOISE_STD = 0.4             # Gaussian noise on the targets
FIG_OUTLIER_RATE = 0.05         # fraction of rows replaced by outliers
FIG_OUTLIER_OFFSET = (2.5, 5.0) # |offset| range of an outlier, random sign


def _reference_curve(x: np.ndarray) -> np.ndarray:
    """Smooth ground-truth curve used by the synthetic generator."""
    return x**3 - x + 0.3 * np.sin(2.5 * x)


@dataclass(frozen=True)
class Dataset:
    """Paired input/target matrices with row-aligned samples.

    ``inputs`` is n_p x n_x and ``targets`` is n_p x n_y. Both are stored as
    read-only float64 arrays; every entry must be finite and n_p >= 1.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        X = np.array(self.inputs, dtype=float, copy=True)
        Y = np.array(self.targets, dtype=float, copy=True)
        if X.ndim != 2 or Y.ndim != 2:
            raise ValidationError("inputs and targets must be 2-D matrices")
        if X.shape[0] != Y.shape[0]:
            raise ValidationError(
                f"row count mismatch: {X.shape[0]} inputs vs {Y.shape[0]} targets"
            )
        if X.shape[0] < 1:
            raise ValidationError("dataset needs at least one row")
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise ValidationError("dataset contains non-finite entries")
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "targets", Y)

    @property
    def n_points(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.targets.shape[1]

    def take(self, indices) -> "Dataset":
        """Row subset (duplicates allowed, e.g. for resampling)."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.inputs[idx], self.targets[idx])


_COLUMN_RE = re.compile(r"([xy])(\d+)")

# Rows formatted per write call: bounds the writer's memory to one chunk's
# strings whatever the table's length.
WRITE_CHUNK_ROWS = 8192


def _parse_header(path, header: list[str], targets_required: bool) -> tuple[list[int], list[int]]:
    """Map header names to (input column positions, target column positions),
    each ordered by the numeric suffix. Without ``targets_required`` the
    header may name no y column. Errors name the file ``path``."""
    x_cols: dict[int, int] = {}
    y_cols: dict[int, int] = {}
    for pos, name in enumerate(header):
        m = _COLUMN_RE.fullmatch(name.strip())
        if not m:
            raise ValidationError(f"{path}: unrecognized column name {name!r} in header")
        idx = int(m.group(2))
        side = x_cols if m.group(1) == "x" else y_cols
        if idx in side:
            raise ValidationError(f"{path}: duplicate column {name!r} in header")
        side[idx] = pos
    if targets_required and not (x_cols and y_cols):
        raise ValidationError(f"{path}: header must contain at least one x and one y column")
    if not x_cols:
        raise ValidationError(f"{path}: header must contain at least one x column")
    for side, label in ((x_cols, "x"), (y_cols, "y")):
        if sorted(side) != list(range(len(side))):
            raise ValidationError(
                f"{path}: {label} columns must be named {label}0..{label}{len(side) - 1}"
            )
    return [x_cols[i] for i in range(len(x_cols))], [y_cols[i] for i in range(len(y_cols))]


def _open_csv(path):
    try:
        return open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc


def _read_table(path, targets_required: bool) -> tuple[np.ndarray, list[int], list[int]]:
    """Every cell of ``path`` as an n x n_cols array, plus the x and y column
    positions of its header.

    ``np.loadtxt`` parses the body in one call. Whatever it rejects or reads
    as 0 rows, the wrong width or a non-finite value goes to ``_read_rows``,
    which either accepts it too (quoted or ``1_0`` cells) or raises the
    error that names the row and column.
    """
    with _open_csv(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt's "no data"
        try:
            header = next(csv.reader(fh))
            body = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except (StopIteration, ValueError, csv.Error):
            body = None
    if (body is None or body.shape[0] == 0 or body.shape[1] != len(header)
            or not np.isfinite(body).all()):
        return _read_rows(path, targets_required)
    return (body, *_parse_header(path, header, targets_required))


def _read_rows(path, targets_required: bool) -> tuple[np.ndarray, list[int], list[int]]:
    """``_read_table`` one ``csv.reader`` row and one ``float`` cell at a time;
    the first bad row raises a ValidationError that names it."""
    try:
        with _open_csv(path) as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"{path}: empty file, header expected") from None
            x_pos, y_pos = _parse_header(path, header, targets_required)
            rows: list[list[float]] = []
            for row_no, row in enumerate(reader, start=1):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValidationError(
                        f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
                    )
                values = []
                for pos, cell in enumerate(row):
                    try:
                        v = float(cell)
                    except ValueError:
                        raise ValidationError(
                            f"{path}: non-numeric cell {cell!r} at row {row_no}, "
                            f"column {header[pos]!r}"
                        ) from None
                    if not np.isfinite(v):
                        raise ValidationError(
                            f"{path}: non-finite value at row {row_no}, column {header[pos]!r}"
                        )
                    values.append(v)
                rows.append(values)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return np.asarray(rows), x_pos, y_pos


def load_csv(path) -> Dataset:
    """Read a dataset from ``path``; see the module docstring for the format.

    Raises ValidationError on a missing file, malformed header, ragged rows
    or a non-numeric cell (the error names the offending data row).
    """
    body, x_pos, y_pos = _read_table(path, targets_required=True)
    return Dataset(body[:, x_pos], body[:, y_pos])


def load_inputs_csv(path) -> np.ndarray:
    """Read the x-columns of a CSV file for prediction queries, which need no
    targets: y-columns may be absent, but any that are present must hold
    numbers, by the same row rules as ``load_csv``."""
    body, x_pos, _ = _read_table(path, targets_required=False)
    return body[:, x_pos]


def _write_table(path, header: list[str], parts, newline: str) -> None:
    """Write ``header`` and then the rows of the 2-D arrays ``parts`` placed
    side by side, 17 significant digits per value (``nan``, ``inf`` and
    ``-0`` as Python's float formatting spells them), WRITE_CHUNK_ROWS rows
    per format call."""
    line = ",".join(["%.17g"] * len(header)) + newline
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + newline)
        for start in range(0, parts[0].shape[0], WRITE_CHUNK_ROWS):
            block = np.hstack([p[start:start + WRITE_CHUNK_ROWS] for p in parts])
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def save_csv(d: Dataset, path) -> None:
    """Write ``d`` to ``path`` with 17 significant digits per value and
    ``\\r\\n`` line ends."""
    header = [f"x{i}" for i in range(d.n_inputs)] + [f"y{j}" for j in range(d.n_outputs)]
    _write_table(path, header, (d.inputs, d.targets), "\r\n")


def generate_fig2_like(n_points: int, seed: int) -> Dataset:
    """Synthetic 1-D dataset: noisy smooth curve, a sample-free gap, outliers.

    Inputs are drawn uniformly over [FIG_X_LO, FIG_X_HI] excluding the open
    gap interval, then sorted. Targets are the reference curve plus Gaussian
    noise; round(FIG_OUTLIER_RATE * n) rows are replaced by large-deviation
    outliers. Pure function of (n_points, seed).
    """
    if n_points < 10:
        raise ValidationError(f"need at least 10 points, got {n_points}")
    rng = np.random.default_rng(seed)
    gap_lo, gap_hi = FIG_GAP
    gap_len = gap_hi - gap_lo
    u = rng.uniform(FIG_X_LO, FIG_X_HI - gap_len, size=n_points)
    x = np.sort(np.where(u >= gap_lo, u + gap_len, u))
    y = _reference_curve(x) + FIG_NOISE_STD * rng.standard_normal(n_points)
    n_out = int(np.rint(FIG_OUTLIER_RATE * n_points))
    if n_out:
        rows = rng.choice(n_points, size=n_out, replace=False)
        offsets = rng.uniform(*FIG_OUTLIER_OFFSET, size=n_out)
        signs = np.where(rng.random(n_out) < 0.5, -1.0, 1.0)
        y[rows] = _reference_curve(x[rows]) + signs * offsets
    return Dataset(x[:, None], y[:, None])
