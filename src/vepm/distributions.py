"""Weibull reparameterized sampling, the analytic Weibull-to-Gamma KL
divergence, and the edge log-likelihood under the Bernoulli-Poisson link.

Each term of the bound is one diffmath tape op with a hand-written reverse
rule, built with `dm.make_node`, so the ELBO is differentiable with
respect to the posterior parameters and the community activations.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import digamma
from scipy.special import gammaln as sp_gammaln

from . import diffmath as dm
from .diffmath import Node
from .sparse import SparseMatrix

EULER_GAMMA = 0.5772156649015329

SHAPE_MIN, SHAPE_MAX = 1e-2, 1e2
SCALE_MIN, SCALE_MAX = 1e-8, 1e8
EDGE_EPS = 1e-10
UNIFORM_EPS = 1e-12


class DistributionError(ValueError):
    pass


def clamp_weibull(shape_raw: Node, scale_raw: Node) -> tuple[Node, Node]:
    """Positive shape/scale from unconstrained encoder outputs.

    The shape is clamped to [1e-2, 1e2]: the reparameterization exponent
    1/k explodes numerically outside that range.
    """
    return (dm.softplus(shape_raw, SHAPE_MIN, SHAPE_MAX),
            dm.softplus(scale_raw, SCALE_MIN, SCALE_MAX))


def weibull_rsample(shape_k: Node, scale: Node, uniforms: np.ndarray) -> Node:
    """Z = scale * (-log(1 - U))^(1/shape), differentiable in both params.

    With log_c = log(-log(1 - U)) and e = exp(log_c / k), Z = scale * e;
    the reverse rule is g e for the scale and -g scale e log_c / k^2 for
    the shape.
    """
    u = np.clip(np.asarray(uniforms, dtype=np.float64), UNIFORM_EPS, 1.0 - UNIFORM_EPS)
    if not u.shape == shape_k.value.shape == scale.value.shape:
        raise DistributionError("uniforms must match the parameter shape")
    lam = scale.value
    log_c = np.log(-np.log1p(-u))
    kinv = shape_k.value ** -1.0
    e = np.exp(log_c * kinv)

    def vjp(g, needs):
        g_k = -(g * lam * e * log_c) * kinv * kinv if needs[0] else None
        return g_k, g * e if needs[1] else None

    return dm.make_node("weibull_rsample", lam * e, (shape_k, scale), vjp)


def kl_weibull_gamma(shape_k: Node, scale: Node, alpha: float, beta: float) -> Node:
    """Elementwise KL(Weibull(k, lambda) || Gamma(alpha, beta)).

    KL = -a ln(lam) + g_E a / k + ln k + b lam Gamma(1 + 1/k)
         - g_E - 1 - a ln b + ln Gamma(a)
    with g_E the Euler-Mascheroni constant. Its partial derivatives are
    d/dlam = -a / lam + b Gamma(1 + 1/k) and
    d/dk = 1/k - (g_E a + b lam Gamma(1 + 1/k) psi(1 + 1/k)) / k^2.
    """
    if alpha <= 0 or beta <= 0:
        raise DistributionError("alpha and beta must be positive")
    kv, lam = shape_k.value, scale.value
    if kv.shape != lam.shape:
        raise DistributionError("shape and scale must have one shape")
    kinv = kv ** -1.0
    gamma_term = np.exp(sp_gammaln(1.0 + kinv))
    const = -EULER_GAMMA - 1.0 - alpha * np.log(beta) + float(sp_gammaln(alpha))
    val = -alpha * np.log(lam)
    val += EULER_GAMMA * alpha * kinv
    val += np.log(kv)
    val += beta * (lam * gamma_term)
    val += const

    def vjp(g, needs):
        g_k = g_lam = None
        if needs[0]:
            psi = digamma(1.0 + kinv)
            g_k = g * (kinv - (EULER_GAMMA * alpha + beta * lam * gamma_term * psi)
                       * kinv * kinv)
        if needs[1]:
            g_lam = g * (beta * gamma_term - alpha / lam)
        return g_k, g_lam

    return dm.make_node("kl_weibull_gamma", val, (shape_k, scale), vjp)


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

    One scalar tape op over (z, gamma). With q = g (e^{-r} / (1 + eps -
    e^{-r}) + 1) per edge and Q the symmetric matrix carrying each edge's
    q on both of its stored entries, the reverse rule is
        dz_i   = gamma * (Q z)_i - g gamma * (S_{graph(i)} - z_i)
        dgamma = sum_i z_i * (Q z)_i / 2 - g (sum_g S_g^2 - sum_i z_i^2) / 2
    so the edge half is one CSR product over the adjacency support.
    """
    zv, gv = z.value, gamma.value
    layout = adjacency.pair_layout()
    rates = np.einsum("ij,ij->i", np.take(zv * gv, layout.iu, axis=0),
                      np.take(zv, layout.ju, axis=0))
    decay = np.exp(-rates)
    edge_term = np.log((1.0 + EDGE_EPS) - decay).sum()

    if graph_ids is None:
        col_sums = zv.sum(axis=0, keepdims=True)
    else:
        graph_ids = np.asarray(graph_ids, dtype=np.int64)
        col_sums = dm.segment_sum(zv, graph_ids, n_graphs)
    sq, z_sq = col_sums ** 2.0, zv ** 2.0
    total_rate = 0.5 * ((sq * gv).sum() - (z_sq * gv).sum())
    val = edge_term - (total_rate - rates.sum())

    def vjp(g, needs):
        q = g * (decay / ((1.0 + EDGE_EPS) - decay) + 1.0)
        support = adjacency.to_scipy()
        q_mat = sp.csr_matrix((np.take(q, layout.entry_pair), support.indices,
                               support.indptr), shape=support.shape)
        qz = np.asarray(q_mat @ zv)
        g_z = g_gamma = None
        if needs[0]:
            s_rows = col_sums if graph_ids is None else np.take(col_sums, graph_ids, axis=0)
            g_z = qz - g * (s_rows - zv)
            g_z *= gv
        if needs[1]:
            g_gamma = 0.5 * ((zv * qz).sum(axis=0) - g * (sq.sum(axis=0) - z_sq.sum(axis=0)))
        return g_z, g_gamma

    return dm.make_node("edge_loglik", val, (z, gamma), vjp)
