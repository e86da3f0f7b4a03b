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


def block_affine(h: np.ndarray, w: np.ndarray, b, g: np.ndarray) -> tuple:
    """The K products h_k @ w_k + b_k over the row blocks of h, one 2-D
    product per block, and their gradients for the output gradient g:
    (value, grad h, grad w, grad b). w stacks the K weights as row blocks;
    b is one row per block, (K, dout), or None; the bias gradient is the
    column sum of each block of g, taken as ones @ g_k."""
    k = w.shape[0] // h.shape[1]
    n, din = h.shape[0] // k, h.shape[1]
    out, gh, gw = np.empty((h.shape[0], w.shape[1])), np.empty(h.shape), np.empty(w.shape)
    gb = np.empty((k, w.shape[1]))
    for i in range(k):
        rows, w_rows = slice(i * n, (i + 1) * n), slice(i * din, (i + 1) * din)
        out[rows] = h[rows] @ w[w_rows]
        if b is not None:
            out[rows] += b[i]
        gh[rows] = g[rows] @ w[w_rows].T
        gw[w_rows] = h[rows].T @ g[rows]
        gb[i] = np.ones(n) @ g[rows]
    return out, gh, gw, gb
