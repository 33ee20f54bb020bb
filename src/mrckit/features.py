"""Feature mappings from instance-label pairs to real vectors.

A mapping stacks one block of scalar features per class: the block belonging
to the pair's label holds the scalar features of the instance, every other
block is zero. Scalar features are either the raw instance coordinates
("one_hot_identity") or random Fourier cos/sin projections approximating a
Gaussian kernel ("random_fourier"). Frequencies are regenerated from the
stored seed, never serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

KIND_IDENTITY = "one_hot_identity"
KIND_RFF = "random_fourier"

# Gaussian frequency sampling uses numpy's seeded PCG64 generator; serialized
# specs record its name, and a model file naming another is refused.
RNG_NAME = "numpy-pcg64"

# score_matrix maps and scores X this many bytes of features at a time, so a
# call's memory stays bounded as the number of random features D grows. A
# block holds X W^T and psi (rows x (B + D) x 8 bytes for random features,
# rows x B x 8 for the identity map); an X that fits in one block is scored
# in one product.
SCORE_BLOCK_BYTES = 8 << 20


@dataclass
class FeatureMapSpec:
    kind: str
    num_classes: int
    d: int
    D: int | None = None           # number of frequency vectors (random_fourier)
    sigma: float | None = None     # kernel scale, units of normalized instances
    seed: int | None = None
    _frequencies: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (KIND_IDENTITY, KIND_RFF):
            raise ValueError(f"unknown feature map kind {self.kind!r}")
        if self.num_classes < 1:
            raise ValueError("num_classes must be at least 1")
        if self.kind == KIND_RFF:
            if self.D is None or self.D < 1:
                raise ValueError("random_fourier requires D >= 1")
            if self.sigma is None:
                self.sigma = default_sigma(self.d)
            if self.sigma <= 0:
                raise ValueError("sigma must be positive")
            if self.seed is None:
                self.seed = 0


def default_sigma(d):
    """Default kernel scale sqrt(d/2) for d-dimensional normalized instances."""
    return math.sqrt(d / 2.0)


def rff_spec(num_classes, d, D=500, sigma=None, seed=0):
    return FeatureMapSpec(KIND_RFF, num_classes, d, D=D, sigma=sigma, seed=seed)


def identity_spec(num_classes, d):
    return FeatureMapSpec(KIND_IDENTITY, num_classes, d)


def block_dim(spec):
    """Number of scalar features per class block."""
    return spec.d if spec.kind == KIND_IDENTITY else 2 * spec.D


def feature_dim(spec):
    """Total mapping dimensionality m = num_classes * block_dim."""
    return spec.num_classes * block_dim(spec)


def frequencies(spec):
    """The (D, d) Gaussian frequency matrix, regenerated from the seed."""
    if spec.kind != KIND_RFF:
        raise ValueError("frequencies are defined only for random_fourier maps")
    if spec._frequencies is None:
        rng = np.random.default_rng(spec.seed)
        spec._frequencies = rng.normal(0.0, 1.0 / spec.sigma, size=(spec.D, spec.d))
    return spec._frequencies


def scalar_feature_matrix(spec, X):
    """Scalar features for every row of X; shape (n, block_dim)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != spec.d:
        raise ValueError(f"instances have dimension {X.shape[1]}, spec expects {spec.d}")
    if spec.kind == KIND_IDENTITY:
        return X
    Z = X @ frequencies(spec).T
    # cos, sin interleaved in one buffer, so psi is never copied
    psi = np.empty((X.shape[0], block_dim(spec)))
    np.cos(Z, out=psi[:, 0::2])
    np.sin(Z, out=psi[:, 1::2])
    return psi


def feature_map(spec, x, y):
    """Full mapping of an (instance, label) pair: block y holds the scalars."""
    if not 1 <= y <= spec.num_classes:
        raise ValueError(f"label {y} outside 1..{spec.num_classes}")
    psi = scalar_feature_matrix(spec, x)[0]
    B = psi.size
    out = np.zeros(spec.num_classes * B)
    out[(y - 1) * B:y * B] = psi
    return out


def score_matrix(spec, X, mu):
    """Per-class scores Phi(x, y)^T mu for every row of X; shape (n, num_classes).

    Rows are mapped and scored in blocks of at most SCORE_BLOCK_BYTES of
    features. A row's last bits depend on how many rows share its product
    (see README), so they follow from the feature width; an X that fits in
    one block is scored exactly as one product.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    W = np.asarray(mu, dtype=float).reshape(spec.num_classes, -1).T
    width = block_dim(spec) + (spec.D if spec.kind == KIND_RFF else 0)
    rows = max(1, SCORE_BLOCK_BYTES // (8 * width))
    out = np.empty((X.shape[0], spec.num_classes))
    for start in range(0, X.shape[0], rows):
        np.matmul(scalar_feature_matrix(spec, X[start:start + rows]), W,
                  out=out[start:start + rows])
    return out


def block_labels(spec):
    """Owning class (1..K) of each mapping component; shape (m,)."""
    return np.repeat(np.arange(1, spec.num_classes + 1), block_dim(spec))


def feature_bound(spec, X):
    """Scalar-feature bound C needed by the confidence-vector formulas.

    Random Fourier features are bounded by 1. For the identity map the bound
    is the largest |x_j| seen in the supplied (training) instances.
    """
    if spec.kind == KIND_RFF:
        return 1.0
    return float(np.max(np.abs(X)))


def spec_to_dict(spec):
    return {
        "kind": spec.kind,
        "num_classes": spec.num_classes,
        "d": spec.d,
        "D": spec.D,
        "sigma": spec.sigma,
        "seed": spec.seed,
        "rng": RNG_NAME if spec.kind == KIND_RFF else None,
    }


def spec_from_dict(payload):
    return FeatureMapSpec(
        kind=payload["kind"],
        num_classes=payload["num_classes"],
        d=payload["d"],
        D=payload.get("D"),
        sigma=payload.get("sigma"),
        seed=payload.get("seed"),
    )
