"""Tabular classification data: CSV loading, standardization, stratified splits.

CSV convention: comma-separated, UTF-8, optional header row, all columns but
the last are finite reals, the last column is the label (string or integer).
Labels are encoded to 1..K in first-appearance order; the original names are
kept so predictions can be reported in the input vocabulary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

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


def _csv_rows(path, has_header):
    """(line number, cells) of every non-blank data row of a CSV file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line_num, row in enumerate(csv.reader(fh), start=1):
            if has_header and line_num == 1:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            yield line_num, row


def _parse_features(path, line_num, cells):
    """Feature cells of one row as finite reals."""
    vals = np.empty(len(cells))
    for j, cell in enumerate(cells):
        try:
            v = float(cell)
        except ValueError:
            raise DataError(
                f"{path}: row {line_num}, column {j + 1}: "
                f"cannot parse {cell.strip()!r} as a real number"
            ) from None
        if not math.isfinite(v):
            raise DataError(
                f"{path}: row {line_num}, column {j + 1}: "
                f"non-finite value {cell.strip()!r}"
            )
        vals[j] = v
    return vals


def load_csv(path, has_header=False):
    """Load a CSV file into a Dataset.

    Raises DataError with the offending row/column on parse failures,
    non-finite feature values, fewer than 2 distinct labels, or empty input.
    """
    rows = []
    labels_raw = []
    width = None
    for line_num, row in _csv_rows(path, has_header):
        if width is None:
            width = len(row)
            if width < 2:
                raise DataError(
                    f"{path}: row {line_num} has {width} columns; "
                    "need at least one feature column plus the label"
                )
        elif len(row) != width:
            raise DataError(
                f"{path}: row {line_num} has {len(row)} columns, expected {width}"
            )
        rows.append(_parse_features(path, line_num, row[:-1]))
        labels_raw.append(row[-1].strip())
    if not rows:
        raise DataError(f"{path}: no data rows")

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

    return Dataset(np.vstack(rows), encoded, tuple(names))


def load_features(path, d, has_header=False):
    """Load the (n, d) feature matrix of a CSV file for prediction.

    Rows hold d feature columns, optionally followed by a label column that
    is ignored. Cells are parsed and checked as in load_csv.
    """
    rows = []
    for line_num, row in _csv_rows(path, has_header):
        if len(row) not in (d, d + 1):
            raise DataError(
                f"{path}: row {line_num} has {len(row)} columns; model "
                f"expects {d} features"
            )
        rows.append(_parse_features(path, line_num, row[:d]))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.vstack(rows)


def save_csv(dataset, path, header=None):
    """Write a Dataset back to CSV (floats via repr, so reload is exact)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
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
