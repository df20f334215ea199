"""Dense M-matrix inverses: the monotone structure every step solve uses."""

import numpy as np

from cases import inverse_nonnegative

RESIDUAL_RTOL = 1e-12
RANDOM_DRAWS = 1000


def test_inverse_hand_values():
    m = np.array([[2.0, -1.0], [-1.0, 2.0]])
    expected = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
    assert np.allclose(np.linalg.inv(m), expected, rtol=0.0, atol=1e-15)


def test_inverse_nonnegative_accepts_m_matrix():
    assert inverse_nonnegative(np.array([[2.0, -1.0], [-1.0, 2.0]]))


def test_inverse_nonnegative_rejects_positive_offdiag():
    assert not inverse_nonnegative(np.array([[1.0, 2.0], [0.0, 1.0]]))


def _dominant_m_matrix(rng, n):
    off = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(off, 0.0)
    m = -off
    np.fill_diagonal(m, off.sum(axis=1) + rng.uniform(0.1, 2.0, size=n))
    return m


def test_random_dominant_solves_have_small_residuals():
    # Solves through the explicit inverse, as the march does.
    rng = np.random.default_rng(20250819)
    for _ in range(RANDOM_DRAWS):
        n = int(rng.integers(1, 9))
        m = _dominant_m_matrix(rng, n)
        b = rng.uniform(-5.0, 5.0, size=n)
        x = np.linalg.inv(m) @ b
        residual = np.abs(m @ x - b).max()
        assert residual <= RESIDUAL_RTOL * (1.0 + np.abs(b).max())
        assert inverse_nonnegative(m)
