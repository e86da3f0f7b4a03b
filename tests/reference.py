"""Slow, direct reference forms of quantities the package computes
another way; tests compare the package against them."""

import numpy as np
from scipy.special import gammaln

from vepm.distributions import EDGE_EPS, block_structure
from vepm.sparse import SparseMatrix


def weibull_cdf(x: np.ndarray, k: float, lam: float) -> np.ndarray:
    return 1.0 - np.exp(-((np.asarray(x) / lam) ** k))


def weibull_mean(k: float, lam: float) -> float:
    return float(lam * np.exp(gammaln(1.0 + 1.0 / k)))


def pairwise_rate(z: np.ndarray, gamma: np.ndarray, i: int, j: int, k: int) -> np.ndarray:
    """Per-metacommunity interaction rates between nodes i and j.

    The total rate sum_c gamma_c z_ic z_jc splits into K block sums over
    contiguous groups of communities.
    """
    z = np.asarray(z, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    blocks = block_structure(z.shape[1], k)
    return (z[i] * gamma * z[j]) @ blocks


def bernoulli_poisson_loglik_bruteforce(
    adjacency: SparseMatrix, z: np.ndarray, gamma: np.ndarray
) -> float:
    """O(N^2) reference evaluation over every unordered pair."""
    z = np.asarray(z, dtype=np.float64)
    rates = (z * gamma) @ z.T
    dense = adjacency.to_dense()
    total = 0.0
    n = z.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            r = rates[i, j]
            if dense[i, j]:
                total += np.log(1.0 - np.exp(-r) + EDGE_EPS)
            else:
                total -= r
    return float(total)


def undirected_pairs(adjacency: SparseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once, as (i, j) arrays with i < j."""
    mask = adjacency.rows < adjacency.cols
    return adjacency.rows[mask], adjacency.cols[mask]


def dropout_mask(rng: np.random.Generator, shape: tuple, rate: float) -> np.ndarray:
    """The documented dropout mask: lane j of raw word w is bits
    16j..16j+15 of w, the lanes are laid out in row-major order, a unit is
    kept iff its lane is >= t = round(rate * 2^16), and a kept unit is
    scaled by 2^16 / (2^16 - t)."""
    size = int(np.prod(shape))
    words = rng.bit_generator.random_raw(-(-size // 4))
    shifts = np.arange(4, dtype=np.uint64) * np.uint64(16)
    lanes = ((words[:, None] >> shifts) & np.uint64(0xFFFF)).reshape(-1)[:size]
    t = round(rate * 65536)
    return np.where(lanes.reshape(shape) >= t, 65536 / (65536 - t), 0.0)
