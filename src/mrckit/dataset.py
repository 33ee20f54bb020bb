"""Tabular classification data: CSV loading, standardization, stratified splits.

CSV convention: comma-separated, UTF-8 (a leading byte-order mark is
skipped), optional header row, all columns but the last are finite reals,
the last column is the label (string or integer).
Labels are encoded to 1..K in first-appearance order; the original names are
kept so predictions can be reported in the input vocabulary.

Files are read in blocks of CSV records (`record_blocks`). A block is cut as
raw text lines, without tokenising, unless a quote shows; so a process can
cut a whole file cheaply and read only the blocks it owns. `load_csv` reads
every block with csv.reader and float(). `block_features` reads a block of
plain numbers with numpy's C reader (`np.loadtxt`), and any other block the
way `load_csv` does, which names the first bad cell by its record number
and column. Both readers convert a cell with CPython's
PyOS_string_to_double, so a number reads to the same bits in either.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np


class DataError(ValueError):
    """Malformed or unusable input data."""


@dataclass(frozen=True)
class Dataset:
    instances: np.ndarray  # (n, d) float64
    labels: np.ndarray     # (n,) int64, values in 1..num_classes
    label_names: tuple     # original label strings, first-appearance order

    @property
    def n(self):
        return self.instances.shape[0]

    @property
    def d(self):
        return self.instances.shape[1]

    @property
    def num_classes(self):
        return len(self.label_names)

    def subset(self, idx):
        """Dataset restricted to the given row indices (label encoding kept)."""
        idx = np.asarray(idx, dtype=int)
        return Dataset(self.instances[idx], self.labels[idx], self.label_names)


@dataclass(frozen=True)
class NormalizationStats:
    mean: np.ndarray
    std: np.ndarray  # strictly positive; constant columns forced to 1


# Rows read and converted at a time when a whole file is loaded.
LOAD_CHUNK_ROWS = 8192

# A block holding one of these is read by csv.reader and float(): np.loadtxt
# reads no quotes, and it strips \x1c-\x1f around a number, where float()
# rejects the cell.
_CSV_ONLY = '"\x1c\x1d\x1e\x1f'


def no_data_rows(path):
    """The DataError for an input that holds no data rows."""
    return DataError(f"{path}: no data rows")


def record_blocks(path, has_header, chunk_rows):
    """(first record number, text lines) of successive blocks of chunk_rows
    CSV records, the last of which may hold fewer; records count from 1,
    blank ones included. A UTF-8 byte-order mark is skipped.

    The lines are not tokenised, so a process can cut the whole file and
    read only the blocks it owns: every process that cuts the same bytes
    cuts the same blocks.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        first = 1
        if has_header:
            first += _cut(path, fh, first, 1)[0]
        while True:
            count, lines = _cut(path, fh, first, chunk_rows)
            if not lines:
                return
            yield first, lines
            first += count


def _cut(path, fh, first, records):
    """(record count, text lines) of the next `records` CSV records of fh,
    the first of which is record number `first`.

    A line is a record unless a quote shows: then csv.reader counts the
    records, and reads on while a quoted field holds a line end, so that a
    record is never split between blocks.
    """
    lines = list(islice(fh, records))
    if '"' not in "".join(lines):
        return len(lines), lines
    more = []

    def read_on():
        for line in fh:
            more.append(line)
            yield line

    rows = islice(_csv_records(path, first, chain(lines, read_on())), records)
    return sum(1 for _ in rows), lines + more


def _csv_records(path, first, lines):
    """csv.reader's records of `lines`, the first numbered `first`; a cell
    over csv's field size limit raises DataError naming its record."""
    number = first
    try:
        for row in csv.reader(lines):
            yield row
            number += 1
    except csv.Error as exc:
        raise DataError(f"{path}: row {number}: {exc}") from None


def _block_rows(path, block):
    """(record numbers, rows) of the non-blank records of one block of
    record_blocks, tokenised by csv.reader."""
    first, lines = block
    rows = list(_csv_records(path, first, lines))
    numbers = range(first, first + len(rows))
    if min(map(len, rows)) <= 1:  # blank lines read as [] or [' ']
        kept = [(number, row) for number, row in zip(numbers, rows)
                if len(row) > 1 or (row and row[0].strip())]
        if not kept:
            return (), ()
        numbers, rows = zip(*kept)
    return numbers, rows


def _features(path, numbers, rows, ncols, width, expected):
    """The first `width` cells of each row as a finite (len(rows), width) array.

    Every row must have a column count in `ncols`; the first that does not
    raises DataError ("... columns" + `expected`), after the rows above it,
    so that the first fault in the file is the one named. Every cell goes
    through one map(float, ...); only a block holding an unparseable or
    non-finite cell is scanned again, cell by cell, to name the first such
    cell by its record number and column.
    """
    widths = set(map(len, rows))
    if not widths <= set(ncols):
        k = next(i for i, row in enumerate(rows) if len(row) not in ncols)
        _features(path, numbers[:k], rows[:k], ncols, width, expected)
        raise DataError(f"{path}: row {numbers[k]} has {len(rows[k])} columns{expected}")
    if widths == {width, width + 1}:  # some rows carry a label
        cells = list(chain.from_iterable(row[:width] for row in rows))
    else:
        cells = list(chain.from_iterable(rows))
        if widths == {width + 1}:
            del cells[width::width + 1]  # the label column
    try:
        X = np.array(list(map(float, cells))).reshape(len(rows), width)
    except ValueError:
        X = None
    if X is None or not np.isfinite(X).all():
        for number, row in zip(numbers, rows):
            for j, cell in enumerate(row[:width]):
                try:
                    v = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {number}, column {j + 1}: "
                        f"cannot parse {cell.strip()!r} as a real number"
                    ) from None
                if not math.isfinite(v):
                    raise DataError(
                        f"{path}: row {number}, column {j + 1}: "
                        f"non-finite value {cell.strip()!r}"
                    )
    return X


def load_csv(path, has_header=False):
    """Load a CSV file into a Dataset.

    Raises DataError with the offending row/column on parse failures,
    non-finite feature values, fewer than 2 distinct labels, or empty input.
    """
    width = None
    blocks = []
    labels_raw = []
    for block in record_blocks(path, has_header, LOAD_CHUNK_ROWS):
        numbers, rows = _block_rows(path, block)
        if not rows:
            continue
        if width is None:
            width = len(rows[0])
            if width < 2:
                raise DataError(
                    f"{path}: row {numbers[0]} has {width} columns; "
                    "need at least one feature column plus the label"
                )
        blocks.append(_features(path, numbers, rows, (width,), width - 1,
                                f", expected {width}"))
        labels_raw.extend(row[-1].strip() for row in rows)
    if width is None:
        raise no_data_rows(path)

    names = []
    seen = {}
    encoded = np.empty(len(labels_raw), dtype=np.int64)
    for i, name in enumerate(labels_raw):
        if name not in seen:
            seen[name] = len(seen) + 1
            names.append(name)
        encoded[i] = seen[name]
    if len(names) < 2:
        raise DataError(f"{path}: found {len(names)} distinct label(s); need at least 2")

    return Dataset(np.concatenate(blocks), encoded, tuple(names))


def block_features(path, block, d):
    """The (non-blank records, d) feature matrix of one block of record_blocks.

    Rows hold d feature columns, optionally followed by a label column that
    is ignored. np.loadtxt reads a block of d plain numbers per line; any
    other block (a label column, quotes, blank lines, a bad cell, or one
    that only float() reads) is read and checked as in load_csv.
    """
    _, lines = block
    text = "".join(lines)
    if not any(c in text for c in _CSV_ONLY):  # one line per record
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # "input contained no data"
                X = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # a cell or a column count that it cannot read
            X = None
        # loadtxt skips blank lines, which the shape check sends to csv.reader
        if X is not None and X.shape == (len(lines), d) and np.isfinite(X).all():
            return X
    numbers, rows = _block_rows(path, block)
    if not rows:
        return np.empty((0, d))
    return _features(path, numbers, rows, (d, d + 1), d, f"; model expects {d} features")


def load_features(path, d, has_header=False):
    """Load the (n, d) feature matrix of a CSV file (see block_features)."""
    blocks = [block_features(path, block, d) for block
              in record_blocks(path, has_header, LOAD_CHUNK_ROWS)]
    if not sum(map(len, blocks)):
        raise no_data_rows(path)
    return np.concatenate(blocks)


def save_csv(dataset, path):
    """Write a Dataset back to CSV (floats via repr, so reload is exact)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.instances[i]]
            row.append(dataset.label_names[dataset.labels[i] - 1])
            writer.writerow(row)


def fit_normalizer(train):
    """Per-column mean and deviation from training data.

    Deviation is the population standard deviation; constant columns get
    deviation 1 so normalization never divides by zero.
    """
    if train.n == 0:
        raise ValueError("cannot fit a normalizer on an empty dataset")
    mean = train.instances.mean(axis=0)
    std = train.instances.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return NormalizationStats(mean, std)


def apply_normalizer(stats, dataset):
    """Standardize instances with the given training statistics."""
    scaled = (dataset.instances - stats.mean) / stats.std
    return Dataset(scaled, dataset.labels, dataset.label_names)


def stratified_split(dataset, test_fraction, seed):
    """Split into (train, test) with per-class test proportions ~ test_fraction.

    Deterministic for a fixed (dataset, test_fraction, seed). Each class must
    have at least 2 samples.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    test_idx = []
    for c in range(1, dataset.num_classes + 1):
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size == 1:
            raise ValueError(
                f"class {dataset.label_names[c - 1]!r} has a single sample; "
                "cannot split it"
            )
        if idx.size == 0:
            continue
        perm = rng.permutation(idx)
        k = int(math.floor(idx.size * test_fraction + 0.5))
        test_idx.extend(perm[:k].tolist())
    test_mask = np.zeros(dataset.n, dtype=bool)
    test_mask[test_idx] = True
    train_rows = np.flatnonzero(~test_mask)
    test_rows = np.flatnonzero(test_mask)
    return dataset.subset(train_rows), dataset.subset(test_rows)


def stratified_folds(dataset, num_folds, seed):
    """Index lists for stratified k-fold partitioning (deterministic)."""
    if num_folds < 2:
        raise ValueError("num_folds must be at least 2")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(num_folds)]
    for c in range(1, dataset.num_classes + 1):
        idx = rng.permutation(np.flatnonzero(dataset.labels == c))
        for pos, row in enumerate(idx.tolist()):
            folds[pos % num_folds].append(row)
    return [np.array(sorted(f), dtype=int) for f in folds]
