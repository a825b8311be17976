"""CSV ingestion, split management, and feature standardization.

The one ingestion format is headed CSV with decimal cells (UTF-8).  Rows
whose target cell is empty or non-finite are dropped and counted; a bad
feature cell is an error with row/column context, so an ingested dataset
never contains NaN.  Re-emitting a dataset with write_csv reproduces the
parsed numbers bit-exactly (shortest round-trip float formatting).

load_csv reads the header with csv.reader and parses the declared columns
of the body in one np.loadtxt pass, bit-equal to float() on every cell; the
target column goes through _target_value, the missing-target rule, so an
empty or "na" target keeps the file vectorised.  When that pass raises (a
non-ASCII or "1_0" feature cell, a short or whitespace-only row, an
unparseable target) or a kept row has a non-finite feature, the file is
parsed again by the per-cell loop, which is the reference: it names the
failing row and column.  write_csv formats whole columns of one shape, in
C order, at a time (repr of each float, joined per row) in blocks of
_WRITE_BLOCK cells; its bytes equal a per-row csv.writer's.

A split is its row indices: a rule's apply returns {"train", "val",
"test"}, each an ascending index array into the dataset.  The fraction
rule shuffles with a seeded generator (test left empty); the
by-column-values rule assigns val/test by exact value match with the
remainder as train.  Each rule is a dataclass whose fields are its JSON
object, "rule" (its name) included, so configs and model headers hold the
rules themselves.  Standardization statistics come from the training rows
only and the target is never standardized — predictions stay in target
units.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError

# write_csv formats this many cells of each column per write, which bounds its
# memory; 50k rows x 7 columns write no slower at 1024 than at 2048 or 4096
_WRITE_BLOCK = 1024


@dataclass
class Standardization:
    """Per-feature affine transform fitted on the training split.  Its fields
    take JSON types (arrays are converted), so a model header stores it as is."""

    columns: tuple[str, ...]
    mean: tuple[float, ...]
    scale: tuple[float, ...]

    def __post_init__(self):
        self.mean, self.scale = tuple(map(float, self.mean)), tuple(map(float, self.scale))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.scale


@dataclass
class Dataset:
    """Feature matrix with named columns and target vector.

    source_rows holds, for a dataset read by load_csv, each row's 0-based
    index among the non-blank data rows of the CSV, dropped rows included,
    so that an error can name the row of the file.
    """

    x: np.ndarray
    y: np.ndarray
    columns: tuple[str, ...]
    n_dropped: int = 0
    standardization: Standardization | None = None
    source_rows: np.ndarray | None = None

    def __post_init__(self):
        if self.x.ndim != 2 or len(self.y) != self.x.shape[0]:
            raise DataError("feature matrix and target lengths disagree")
        if len(self.columns) != self.x.shape[1]:
            raise DataError("column names and feature matrix width disagree")

    def __len__(self) -> int:
        return self.x.shape[0]

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise DataError(f"no such column: {name!r}")
        return self.x[:, self.columns.index(name)]


def load_csv(path, target_column: str, feature_columns: list[str] | tuple[str, ...]) -> Dataset:
    """Parse the declared columns of a headed CSV into a Dataset.

    Raises DataError for a missing file, missing column, an
    unparseable/non-finite feature cell (named with row and column), a
    file that is not UTF-8 or a cell over the csv module's field limit.
    """
    feature_columns = tuple(feature_columns)
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    try:
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, expected a header row") from None
            for name in (target_column, *feature_columns):
                if name not in header:
                    raise DataError(f"{path}: missing column {name!r}")
            target_pos = header.index(target_column)
            feature_pos = [header.index(name) for name in feature_columns]
            try:
                x, y, n_dropped, kept = _parse_columns(fh, target_pos, feature_pos)
            except ValueError:
                # The per-row loop is the reference: it names the failing row
                # and column.
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                x, y, n_dropped, kept = _parse_rows(path, reader, target_column,
                                                    feature_columns, target_pos, feature_pos)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} "
                        f"{exc.object[exc.start]:#04x})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None
    return Dataset(x, y, feature_columns, n_dropped=n_dropped, source_rows=kept)


def _target_value(cell: str) -> float:
    """A target cell's value: NaN for a missing target ("", "na" or "nan",
    any case, around whitespace), else float(); a non-finite value drops
    the row.  Raises ValueError for an unparseable cell."""
    try:
        return float(cell)
    except ValueError:
        if cell.strip().lower() in ("", "na"):
            return math.nan
        raise


def _parse_columns(fh, target_pos: int, feature_pos: list[int]):
    """(x, y, n_dropped, kept rows) from the rest of fh in one vectorised pass.

    The target cells go through _target_value, one Python call per row.
    For the feature cells np.loadtxt accepts a subset of what the per-row
    loop accepts (ASCII cells only, no "1_0" underscores, no empty or "na"
    cells, no whitespace-only lines) and parses every accepted cell
    bit-equal to float(); anything else raises ValueError, as does a
    non-finite feature in a kept row, and the caller falls back to the loop.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        cells = np.loadtxt(fh, delimiter=",", usecols=(target_pos, *feature_pos),
                           converters={target_pos: _target_value},
                           comments=None, quotechar='"', ndmin=2)
    keep = np.isfinite(cells[:, 0])
    x = cells[keep, 1:]
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature cell")
    return x, cells[keep, 0], len(keep) - int(np.count_nonzero(keep)), np.flatnonzero(keep)


def _parse_rows(path, reader, target_column: str, feature_columns: tuple[str, ...],
                target_pos: int, feature_pos: list[int]):
    """(x, y, n_dropped, kept rows) from the remaining records of reader, one
    cell at a time.  A non-blank record is kept or dropped, so len(rows) +
    n_dropped is the index of the record being read."""
    rows: list[list[float]] = []
    targets: list[float] = []
    kept: list[int] = []
    n_dropped = 0
    min_cells = max([target_pos, *feature_pos]) + 1
    for line_no, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) < min_cells:
            raise DataError(
                f"{path}: row {line_no} has {len(record)} cells, "
                f"expected at least {min_cells}"
            )
        try:
            t = _target_value(record[target_pos])
        except ValueError:
            raise DataError(
                f"{path}: row {line_no}, column {target_column!r}: "
                f"unparseable value {record[target_pos].strip()!r}"
            ) from None
        if not math.isfinite(t):
            n_dropped += 1
            continue
        feats = []
        for pos, name in zip(feature_pos, feature_columns):
            cell = record[pos].strip()
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {line_no}, column {name!r}: "
                    f"unparseable value {cell!r}"
                ) from None
            if not math.isfinite(v):
                raise DataError(
                    f"{path}: row {line_no}, column {name!r}: non-finite value"
                )
            feats.append(v)
        kept.append(len(rows) + n_dropped)
        rows.append(feats)
        targets.append(t)
    x = np.asarray(rows, dtype=float).reshape(len(rows), len(feature_columns))
    return x, np.asarray(targets, dtype=float), n_dropped, np.asarray(kept, dtype=int)


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write named columns as CSV with shortest round-trip float formatting.

    The columns share one shape, of any dimension, and are read in C order.
    The bytes equal a per-row csv.writer of repr(float(cell)): the header
    goes through csv.writer, and the body is formatted whole columns at a
    time, _WRITE_BLOCK cells per write.
    """
    names = list(columns)
    arrays = [np.asarray(columns[n], dtype=float) for n in names]
    if any(a.shape != arrays[0].shape for a in arrays):
        raise DataError("all columns must have one shape")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(names)
        for start in range(0, arrays[0].size, _WRITE_BLOCK):
            cells = (map(repr, a.flat[start:start + _WRITE_BLOCK].tolist()) for a in arrays)
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_json(path, obj) -> None:
    """Write obj as JSON with sorted keys, two-space indent and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class FractionSplit:
    """Rows shuffled with the seed: the first `fraction` train, the rest val.
    A fraction outside (0, 1) or a negative seed fails when the rule is
    built; one that leaves a split empty for this n fails in apply."""

    fraction: float
    seed: int = 0
    rule: str = field(default="fraction", init=False)

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(f"fraction: expected a number inside (0, 1), got {self.fraction}")
        if self.seed < 0:
            raise ValueError(f"seed: expected an integer >= 0, got {self.seed}")

    def apply(self, dataset: Dataset) -> dict[str, np.ndarray]:
        n = len(dataset)
        n_train = int(self.fraction * n + 0.5)
        if n_train == 0 or n_train == n:
            raise DataError(f"fraction {self.fraction} leaves an empty split for n={n}")
        order = np.random.default_rng(self.seed).permutation(n)
        return {"train": np.sort(order[:n_train]), "val": np.sort(order[n_train:]),
                "test": order[:0]}


@dataclass(frozen=True)
class ByColumnSplit:
    """Rows whose `column` value is among val_values are val, among
    test_values test, the rest train.  Empty or overlapping value lists fail
    when the rule is built; a split that matches no rows fails in apply."""

    column: str
    val_values: tuple[float, ...]
    test_values: tuple[float, ...]
    rule: str = field(default="by_column_values", init=False)

    def __post_init__(self):
        for key in ("val_values", "test_values"):
            if not getattr(self, key):
                raise ValueError(f"{key}: expected at least one value")
        overlap = set(map(float, self.val_values)) & set(map(float, self.test_values))
        if overlap:
            raise ValueError(f"test_values: overlap with val_values: {sorted(overlap)}")

    def apply(self, dataset: Dataset) -> dict[str, np.ndarray]:
        col = dataset.column(self.column)
        label = np.where(np.isin(col, self.test_values), 2, np.isin(col, self.val_values))
        rows = {name: np.flatnonzero(label == k) for k, name in enumerate(("train", "val", "test"))}
        for name, idx in rows.items():
            if len(idx) == 0:
                raise DataError(f"by-column split produced an empty {name} split")
        return rows


def standardize(dataset: Dataset, train_rows: np.ndarray) -> Dataset:
    """Shift/scale every feature by the statistics of the training rows.

    The fitted transform is attached to the returned dataset and is applied
    to all rows; a zero or non-finite training scale (or mean) is an error
    naming the column.  The target is left untouched.
    """
    if len(train_rows) == 0:
        raise DataError("standardize requires a non-empty train split")
    xt = dataset.x[train_rows]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        mean = xt.mean(axis=0)
        scale = xt.std(axis=0)
    for j, s in enumerate(scale):
        if s == 0.0 or not (np.isfinite(mean[j]) and np.isfinite(s)):
            what = "zero-variance" if s == 0.0 else "non-finite mean or scale of"
            raise DataError(f"{what} feature {dataset.columns[j]!r} in the train split")
    transform = Standardization(columns=dataset.columns, mean=mean, scale=scale)
    return replace(dataset, x=transform.apply(dataset.x), standardization=transform)
