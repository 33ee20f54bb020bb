"""Workload definitions and their seeded input generators.

Every workload is one closed-loop session of the real CLI, repeated:
`train`, then `bounds --deterministic`, then `predict --proba` on held-out
rows. The sizes put a different layer on top in each workload; BENCHMARK.json
carries the one-line reasons and README.md the known limits each is sized
under.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                 # training rows
    d: int                 # raw features
    K: int                 # classes
    D: int                 # random Fourier frequencies
    predict_rows: int      # held-out rows scored by `predict --proba`
    # Training sets per run, used in turn by the sessions. Simplex pivot counts,
    # sign-change rates and the certified bounds differ between training sets
    # of one size; several per run keep a run's figures steady across seeds.
    datasets: int
    train_flags: tuple
    bounds_flags: tuple
    stresses: str
    bypasses: str

    @property
    def m(self):
        return self.K * 2 * self.D

    @property
    def learning_rows(self):
        """p = n (2^K - 1) rows of the learning problem."""
        return self.n * (2 ** self.K - 1)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="rff-session", n=300, d=4, K=2, D=500, predict_rows=50_000, datasets=4,
        train_flags=("--max-iters", "10000"),
        bounds_flags=("--solver", "easm-restart", "--max-iters", "10000"),
        stresses="solver: E-ASM-R loop of train and bounds; features and classifier in predict",
        bypasses="objective build and Gram precompute (p=900), simplex",
    ),
    Workload(
        name="gram-wall", n=800, d=4, K=4, D=100, predict_rows=50_000, datasets=4,
        train_flags=("--max-iters", "4000"),
        bounds_flags=("--solver", "easm-restart", "--max-iters", "4000"),
        stresses="objective build (p=12000 rows) and the 8p^2-byte E-ASM Gram precompute",
        bypasses="simplex; the E-ASM loop is short",
    ),
    Workload(
        name="exact-lp", n=100, d=4, K=2, D=30, predict_rows=50_000, datasets=8,
        train_flags=("--solver", "lp"),
        bounds_flags=("--solver", "asm", "--max-iters", "10000"),
        stresses="simplex: the learning and lower-bound LPs of train; objective.evaluate in bounds (ASM)",
        bypasses="the subgradient loop in train and the Gram precompute",
    ),
)}


# Population shared by every seed of a workload: each class is a mixture of
# two Gaussian modes placed by a fixed generator, so the seed changes the
# sample and not the task. SEPARATION keeps the classes overlapping (test
# error near 0.1 to 0.3) so bounds and errors are far from 0.
SEPARATION = 1.3


def _population(w):
    rng = np.random.default_rng([20220118, w.d, w.K])
    return SEPARATION * rng.normal(size=(w.K, 2, w.d))


def _draw(w, rng, rows):
    centers = _population(w)
    y = rng.integers(0, w.K, size=rows)
    y[:w.K] = np.arange(w.K)  # every class present
    mode = rng.integers(0, 2, size=rows)
    return centers[y, mode] + rng.normal(size=(rows, w.d)), y


def sample(w, seed, dataset):
    """Training set `dataset` of a workload seed; labels 0..K-1."""
    return _draw(w, np.random.default_rng([int(seed), w.n, w.K, w.D, 1 + dataset]), w.n)


def heldout(w, seed):
    """The held-out rows scored by every session of a workload seed."""
    return _draw(w, np.random.default_rng([int(seed), w.n, w.K, w.D, 0]), w.predict_rows)


def _write_rows(path, X, y=None):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(X.shape[0]):
            cells = [repr(float(v)) for v in X[i]]
            if y is not None:
                cells.append(f"c{int(y[i])}")
            fh.write(",".join(cells) + "\n")


def write_inputs(w, seed, work_dir):
    """Write train-<j>.csv (labelled) and heldout.csv (features only).

    Returns the held-out label names, which only the benchmark sees.
    """
    for j in range(w.datasets):
        _write_rows(work_dir / f"train-{j}.csv", *sample(w, seed, j))
    X, y = heldout(w, seed)
    _write_rows(work_dir / "heldout.csv", X)
    return [f"c{int(v)}" for v in y]


def session_commands(w, work_dir, tag, dataset):
    """The three CLI argument lists of one session, outputs under work_dir/tag."""
    out = work_dir / tag
    train = ["train", "--data", str(work_dir / f"train-{dataset}.csv"), "--out",
             str(out / "train"), "--features", "rff", "--D", str(w.D),
             "--seed", "0", *w.train_flags]
    bounds = ["bounds", "--model", str(out / "train" / "model.json"),
              "--deterministic", "--out", str(out / "bounds"), *w.bounds_flags]
    predict = ["predict", "--model", str(out / "train" / "model.json"),
               "--data", str(work_dir / "heldout.csv"), "--proba",
               "--out", str(out / "predict")]
    return {"train": train, "bounds": bounds, "predict": predict}
