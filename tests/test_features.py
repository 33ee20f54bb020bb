import math

import numpy as np
import pytest

from mrckit import features


def test_rff_at_zero_alternates_cos_sin():
    spec = features.rff_spec(2, 3, D=4, seed=0)
    psi = features.scalar_feature_matrix(spec, np.zeros(3))[0]
    assert np.array_equal(psi, np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=float))


def test_rff_norm_is_D(rng):
    spec = features.rff_spec(2, 5, D=16, seed=3)
    for _ in range(10):
        psi = features.scalar_feature_matrix(spec, rng.normal(size=5))[0]
        assert abs(psi @ psi - 16.0) < 1e-12


def test_default_sigma():
    spec = features.rff_spec(2, 8, D=4, seed=0)
    assert spec.sigma == math.sqrt(8 / 2)
    assert features.default_sigma(2) == 1.0


def test_kronecker_block_placement():
    spec = features.identity_spec(3, 2)
    phi = features.feature_map(spec, np.array([1.0, 2.0]), 2)
    assert phi.tolist() == [0, 0, 1, 2, 0, 0]


def test_blocks_orthogonal_across_labels(rng):
    spec = features.rff_spec(3, 2, D=5, seed=1)
    x = rng.normal(size=2)
    for y1 in range(1, 4):
        for y2 in range(1, 4):
            dot = features.feature_map(spec, x, y1) @ features.feature_map(spec, x, y2)
            if y1 != y2:
                assert dot == 0.0


def test_rff_sup_norm_bounded(rng):
    spec = features.rff_spec(2, 4, D=10, seed=2)
    for _ in range(20):
        phi = features.feature_map(spec, rng.normal(size=4), 1)
        assert np.max(np.abs(phi)) <= 1.0 + 1e-15


def test_label_out_of_range():
    spec = features.identity_spec(2, 2)
    with pytest.raises(ValueError):
        features.feature_map(spec, np.zeros(2), 3)


def test_dimension_mismatch():
    spec = features.identity_spec(2, 3)
    with pytest.raises(ValueError):
        features.scalar_feature_matrix(spec, np.zeros(4))


def test_determinism_from_seed(rng):
    x = rng.normal(size=6)
    a = features.rff_spec(2, 6, D=32, seed=77)
    b = features.rff_spec(2, 6, D=32, seed=77)
    assert np.array_equal(features.frequencies(a), features.frequencies(b))
    assert np.array_equal(features.scalar_feature_matrix(a, x)[0],
                          features.scalar_feature_matrix(b, x)[0])
    c = features.rff_spec(2, 6, D=32, seed=78)
    assert not np.array_equal(features.frequencies(a), features.frequencies(c))


def test_sum_over_labels_reproduces_scalars(rng):
    spec = features.rff_spec(3, 2, D=4, seed=5)
    x = rng.normal(size=2)
    psi = features.scalar_feature_matrix(spec, x)[0]
    total = sum(features.feature_map(spec, x, y) for y in range(1, 4))
    B = features.block_dim(spec)
    for c in range(3):
        assert np.array_equal(total[c * B:(c + 1) * B], psi)
    # exactly one nonzero block per pair
    phi = features.feature_map(spec, x, 2)
    blocks = [np.any(phi[c * B:(c + 1) * B] != 0) for c in range(3)]
    assert blocks == [False, True, False]


@pytest.mark.parametrize("rows,blocks", [
    (1, False),
    (1024, False),
    (1025, True),
    (2049, True),  # odd: the two blocks differ in size
])
def test_threaded_rff_matches_serial(rows, blocks):
    # (named when cos/sin ran on threads) the map equals elementwise cos/sin,
    # and rows mapped in two blocks equal the same rows mapped at once
    D = 64
    spec = features.rff_spec(2, 3, D=D, seed=1)
    X = np.random.default_rng(rows).normal(size=(rows, 3))
    psi = features.scalar_feature_matrix(spec, X)
    Z = X @ features.frequencies(spec).T
    expected = np.empty((rows, 2 * D))
    expected[:, 0::2] = np.cos(Z)
    expected[:, 1::2] = np.sin(Z)
    assert psi.tobytes() == expected.tobytes()
    if blocks:
        mapped = [features.scalar_feature_matrix(spec, block)
                  for block in (X[:rows // 2], X[rows // 2:])]
        assert np.vstack(mapped).tobytes() == psi.tobytes()


def test_kernel_consistency_monte_carlo(rng):
    # The seed-averaged inner product approximates the Gaussian kernel;
    # tolerance from the Monte-Carlo deviation at this replication count.
    d, D, reps, sigma = 3, 100, 300, 1.3
    x = rng.normal(size=d)
    xp = rng.normal(size=d)
    target = math.exp(-float((x - xp) @ (x - xp)) / (2 * sigma ** 2))
    vals = []
    for seed in range(reps):
        spec = features.rff_spec(2, d, D=D, sigma=sigma, seed=seed)
        vals.append(features.scalar_feature_matrix(spec, x)[0]
                    @ features.scalar_feature_matrix(spec, xp)[0] / D)
    # each cos term is bounded by 1, so the sd of the mean is < 1/sqrt(D*reps)
    tol = 5.0 / math.sqrt(D * reps)
    assert abs(np.mean(vals) - target) < tol


def test_feature_bound():
    spec = features.rff_spec(2, 2, D=3, seed=0)
    ident = features.identity_spec(2, 2)
    X = np.array([[0.5, -2.5], [1.0, 2.0]])
    assert features.feature_bound(spec, X) == 1.0
    assert features.feature_bound(ident, X) == 2.5


def test_spec_round_trip():
    spec = features.rff_spec(3, 4, D=6, sigma=0.7, seed=9)
    back = features.spec_from_dict(features.spec_to_dict(spec))
    assert back.kind == spec.kind and back.D == spec.D
    assert back.sigma == spec.sigma and back.seed == spec.seed
    assert back.num_classes == 3
    x = np.ones(4)
    assert np.array_equal(features.scalar_feature_matrix(back, x)[0],
                          features.scalar_feature_matrix(spec, x)[0])


def test_score_matrix_under_budget_is_one_product(rng):
    spec = features.rff_spec(3, 4, D=50, seed=2)
    X = rng.normal(size=(400, 4))
    mu = rng.normal(size=features.feature_dim(spec))
    assert 400 * (3 * 50) * 8 <= features.SCORE_BLOCK_BYTES
    expected = features.scalar_feature_matrix(spec, X) @ mu.reshape(3, -1).T
    assert features.score_matrix(spec, X, mu).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 7, 12, 13])
def test_score_matrix_over_budget_scores_in_blocks(rng, monkeypatch, mapped_rows, n):
    spec = features.rff_spec(3, 4, D=50, seed=2)
    X = rng.normal(size=(n, 4))
    mu = rng.normal(size=features.feature_dim(spec))
    expected = features.scalar_feature_matrix(spec, X) @ mu.reshape(3, -1).T
    # 4 rows of (100 + 50) features per block: n = 13 ends in a 1-row block
    monkeypatch.setattr(features, "SCORE_BLOCK_BYTES", 4 * 150 * 8 + 7)
    mapped_rows.clear()
    scores = features.score_matrix(spec, X, mu)
    assert mapped_rows == [4] * (n // 4) + ([n % 4] if n % 4 else [])
    assert np.allclose(scores, expected, rtol=0, atol=1e-12)
    assert np.array_equal(np.argmax(scores, axis=1), np.argmax(expected, axis=1))


def test_score_matrix_identity_block_counts_its_features(monkeypatch, mapped_rows):
    spec = features.identity_spec(2, 3)
    X = np.arange(30.0).reshape(10, 3)
    mu = np.arange(6.0)
    monkeypatch.setattr(features, "SCORE_BLOCK_BYTES", 3 * 3 * 8)  # 3 rows of B = 3
    scores = features.score_matrix(spec, X, mu)
    assert mapped_rows == [3, 3, 3, 1]
    assert np.array_equal(scores, X @ mu.reshape(2, 3).T)


def test_score_matrix_memory_bounded_in_feature_width(rng):
    tracemalloc = pytest.importorskip("tracemalloc")
    spec = features.rff_spec(2, 4, D=500, seed=0)
    X = rng.normal(size=(5000, 4))
    mu = rng.normal(size=features.feature_dim(spec))
    features.frequencies(spec)  # the cached frequencies are not scoring memory
    tracemalloc.start()
    try:
        features.score_matrix(spec, X, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one product over all rows would hold 5000 x 1500 x 8 = 60 MB
    assert peak < 2 * features.SCORE_BLOCK_BYTES
