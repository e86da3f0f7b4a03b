"""Weibull reparameterized sampling, the analytic Weibull-to-Gamma KL
divergence, and the edge log-likelihood under the Bernoulli-Poisson link.

All operations are expressed through the diffmath primitives so the ELBO
is differentiable with respect to posterior parameters and the community
activations.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln as sp_gammaln

from . import diffmath as dm
from .diffmath import Node
from .sparse import SparseMatrix, undirected_pairs

EULER_GAMMA = 0.5772156649015329

SHAPE_MIN, SHAPE_MAX = 1e-2, 1e2
SCALE_MIN, SCALE_MAX = 1e-8, 1e8
EDGE_EPS = 1e-10
UNIFORM_EPS = 1e-12


class DistributionError(ValueError):
    pass


class CommunityActivations:
    """Positive per-community activations, stored unconstrained.

    gamma = softplus(raw); raw initializes to softplus^{-1}(1) so training
    starts from unit activations.
    """

    @staticmethod
    def initial_raw(c: int) -> np.ndarray:
        return np.full(c, float(np.log(np.expm1(1.0))))

    @staticmethod
    def gamma(raw: Node) -> Node:
        return dm.softplus(raw)


def clamp_weibull(shape_raw: Node, scale_raw: Node) -> tuple[Node, Node]:
    """Positive shape/scale from unconstrained encoder outputs.

    The shape is clamped to [1e-2, 1e2]: the reparameterization exponent
    1/k explodes numerically outside that range.
    """
    shape_k = dm.clip(dm.softplus(shape_raw), SHAPE_MIN, SHAPE_MAX)
    scale = dm.clip(dm.softplus(scale_raw), SCALE_MIN, SCALE_MAX)
    return shape_k, scale


def weibull_rsample(shape_k: Node, scale: Node, uniforms: np.ndarray) -> Node:
    """Z = scale * (-log(1 - U))^(1/shape), differentiable in both params."""
    u = np.clip(np.asarray(uniforms, dtype=np.float64), UNIFORM_EPS, 1.0 - UNIFORM_EPS)
    if u.shape != shape_k.value.shape:
        raise DistributionError("uniforms must match the parameter shape")
    log_c = dm.constant(np.log(-np.log1p(-u)))
    return dm.elementwise_mul(scale, dm.exp(dm.elementwise_mul(log_c, dm.power(shape_k, -1.0))))


def weibull_cdf(x: np.ndarray, k: float, lam: float) -> np.ndarray:
    return 1.0 - np.exp(-((np.asarray(x) / lam) ** k))


def weibull_mean(k: float, lam: float) -> float:
    return float(lam * np.exp(sp_gammaln(1.0 + 1.0 / k)))


def kl_weibull_gamma(shape_k: Node, scale: Node, alpha: float, beta: float) -> Node:
    """Elementwise KL(Weibull(k, lambda) || Gamma(alpha, beta)).

    KL = -a ln(lam) + g_E a / k + ln k + b lam Gamma(1 + 1/k)
         - g_E - 1 - a ln b + ln Gamma(a)
    with g_E the Euler-Mascheroni constant.
    """
    if alpha <= 0 or beta <= 0:
        raise DistributionError("alpha and beta must be positive")
    kinv = dm.power(shape_k, -1.0)
    gamma_term = dm.exp(dm.gammaln(dm.constant(1.0) + kinv))
    const = -EULER_GAMMA - 1.0 - alpha * np.log(beta) + float(sp_gammaln(alpha))
    out = dm.constant(-alpha) * dm.log(scale)
    out = out + dm.constant(EULER_GAMMA * alpha) * kinv
    out = out + dm.log(shape_k)
    out = out + dm.constant(beta) * dm.elementwise_mul(scale, gamma_term)
    return out + dm.constant(const)


def kl_weibull_gamma_value(k: float, lam: float, alpha: float, beta: float) -> float:
    """Scalar closed form, for reports and verification output."""
    return float(
        -alpha * np.log(lam)
        + EULER_GAMMA * alpha / k
        + np.log(k)
        + beta * lam * np.exp(sp_gammaln(1.0 + 1.0 / k))
        - EULER_GAMMA
        - 1.0
        - alpha * np.log(beta)
        + sp_gammaln(alpha)
    )


def block_structure(c: int, k: int) -> np.ndarray:
    """0/1 matrix (C x K) summing contiguous width-C/K column blocks."""
    if c % k != 0:
        raise DistributionError(f"C={c} not divisible by K={k}")
    width = c // k
    out = np.zeros((c, k))
    for block in range(k):
        out[block * width : (block + 1) * width, block] = 1.0
    return out


def pairwise_rate(z: np.ndarray, gamma: np.ndarray, i: int, j: int, k: int) -> np.ndarray:
    """Per-metacommunity interaction rates between nodes i and j.

    The total rate sum_c gamma_c z_ic z_jc splits into K block sums over
    contiguous groups of communities.
    """
    z = np.asarray(z, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    blocks = block_structure(z.shape[1], k)
    return (z[i] * gamma * z[j]) @ blocks


def bernoulli_poisson_loglik(
    adjacency: SparseMatrix,
    z: Node,
    gamma: Node,
    graph_ids: np.ndarray | None = None,
    n_graphs: int = 1,
) -> Node:
    """log p(A | Z) over unordered pairs, non-edge sum in closed form.

    sum_{edges} log(1 - e^{-r} + eps) - sum_{non-edges} r, where the
    non-edge total uses sum_{i<j} r_ij = (S' G S - sum_i z_i' G z_i) / 2
    per graph (S the per-graph column sums of Z), so no O(N^2) pass.
    """
    iu, ju = undirected_pairs(adjacency)
    zg = dm.elementwise_mul(z, gamma)

    if iu.size:
        edge_prod = dm.elementwise_mul(dm.gather_rows(zg, iu), dm.gather_rows(z, ju))
        edge_rates = dm.reduce_sum(edge_prod, axis=1)
        one = dm.constant(1.0 + EDGE_EPS)
        edge_term = dm.reduce_sum(dm.log(one + dm.negate(dm.exp(dm.negate(edge_rates)))))
        edge_rate_sum = dm.reduce_sum(edge_rates)
    else:
        edge_term = dm.constant(0.0)
        edge_rate_sum = dm.constant(0.0)

    if graph_ids is None:
        col_sums = dm.reshape(dm.reduce_sum(z, axis=0), (1, z.value.shape[1]))
    else:
        col_sums = dm.scatter_add_rows(z, graph_ids, n_graphs)
    sq = dm.elementwise_mul(dm.power(col_sums, 2.0), gamma)
    diag = dm.elementwise_mul(dm.power(z, 2.0), gamma)
    total_rate = dm.constant(0.5) * (dm.reduce_sum(sq) + dm.negate(dm.reduce_sum(diag)))

    nonedge_sum = total_rate + dm.negate(edge_rate_sum)
    return edge_term + dm.negate(nonedge_sum)


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
