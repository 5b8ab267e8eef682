"""Infinite-lattice localization probabilities by Riemann quadrature.

Only the two unimodular-constant eigenvalue branches (lambda = -1 and +1)
survive the double limit T -> infinity, N -> infinity; the localization
probability for an (initial, observed) chirality pair is I1^2 + I2^2 where
I_k is the [0, pi]^2 integral of the degeneracy-class sum of eigenvector
component products, normalized by 1/(4 pi^2) for the four-member momentum
orbit (equivalently 1/(8 pi^2) for the n <-> m symmetrized eight-member sum).

At lambda = +-1 every family's eigenvector components factor into pure-x and
pure-y terms, px * qy; the factors are the closed-form eigenvectors of
spectral._FACTORS, the ones the finite-N eigensystem uses. Each integral
then reduces to bilinear forms u_x^T K u_y with a single real M x M kernel
shared by all momentum-sign variants. The two branches share it too: under
(lam, e) -> (-lam, -conj e), that is lam -> -lam and x -> pi - x, every
factor maps to plus or minus its own conjugate, so the lambda = +1 weights
|px|^2, |qy|^2 at pi - x are the lambda = -1 weights at x. The midpoint
nodes are mirror-symmetric, x_{M-1-i} = pi - x_i, so the lambda = +1 kernel
is the lambda = -1 kernel with both axes reversed, and one kernel build
serves both branches. One pbar_matrix call (both branches, all 16 pairs)
takes about 1.8 ms at M = 512 and 17 ms at M = 2048 on one core of a 2-core
Xeon with OpenBLAS. sweep_theta and theorem36_check call it once per theta
point, in grid order, on the calling thread.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .coins import COIN_FAMILIES
from .spectral import _FACTORS
from .walk import CHIRALITIES, chirality_index

__all__ = [
    "QuadratureSpec", "theta_grid",
    "pbar_matrix", "pbar_infinity_pair", "pbar_infinity_total",
    "sweep_theta", "theorem36_check", "convergence_delta",
]


def _check_count(value, least: int, what: str) -> int:
    """value as an int of at least `least`. Integer types, numpy's too, pass;
    bool, float (even 512.0 or NaN) and the rest raise ValueError."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if n < least:
        raise ValueError(f"need at least {least} {what}, got {n}")
    return n


@dataclass(frozen=True)
class QuadratureSpec:
    """Midpoint rule on [0, pi]^2 with M nodes per axis."""

    M: int = 512

    def __post_init__(self):
        object.__setattr__(self, "M", _check_count(self.M, 16, "quadrature nodes per axis"))

    def nodes(self) -> np.ndarray:
        return (np.arange(self.M) + 0.5) * np.pi / self.M


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not (-np.pi < theta < np.pi):
        raise ValueError("localization requires theta strictly inside (-pi, pi)")
    return theta


_PAIRS = np.triu_indices(4)   # the 10 independent (a <= b) pairs of a symmetric I_k
_BLOCK = 1 << 16              # kernel entries per row block, 512 KB: stays in L2
_GROVER_FAMILIES = ("p34x1", "p24y1", "p23z1")   # Theorem 3.6: diagonal 1/8


def _integrals(family: str, theta: float, M: int) -> np.ndarray:
    """I[k - 1, a, b] = class-sum integral of v_a conj(v_b) on branch k
    (k = 1: lambda = -1, k = 2: lambda = +1), all 16 pairs of both branches.

    The class sum runs over the momentum-sign variants ex, ey in {e, conj e}.
    px depends on x alone, qy on y alone, and both have real coefficients, so
    px(conj e) = conj px(e) and qy(conj e) = conj qy(e). All four variants
    then share the real kernel K = 1 / (|px|^2^T |qy|^2), and their bilinear
    forms ux^T K uy sum to 4 Re(ux)^T K Re(uy). The reflection x -> pi - x
    maps the nodes onto themselves in reverse order and the lambda = +1
    weights onto the lambda = -1 weights, so branch 2 is the same bilinear
    form with the lambda = -1 kernel and its own ux, uy read in reverse node
    order. One real GEMM against the 2 x 10 independent pairs then serves
    both branches. K is built a block of rows at a time into one reused
    buffer, so the GEMM reads each block from cache."""
    xs = QuadratureSpec(M).nodes()
    e = np.exp(1j * xs)
    a, b = _PAIRS

    def pairs(v):
        return (v[a] * np.conj(v[b])).real                       # (10, M)

    px, qy = _FACTORS[family](theta, -1.0, e, e)
    wx, wy = np.ascontiguousarray(np.abs(px.T) ** 2), np.abs(qy) ** 2
    px2, qy2 = (f[:, ::-1] for f in _FACTORS[family](theta, 1.0, e, e))
    ux = np.stack([pairs(px), pairs(px2)])                       # (2, 10, M)
    uy = np.ascontiguousarray(np.concatenate([pairs(qy), pairs(qy2)]).T)   # (M, 20)
    Kuy = np.empty((M, 2 * len(a)))
    rows = min(M, max(1, _BLOCK // M))
    K = np.empty((rows, M))
    for r in range(0, M, rows):
        Kr = K[:min(rows, M - r)]
        np.matmul(wx[r:r + rows], wy, out=Kr)
        np.reciprocal(Kr, out=Kr)
        np.matmul(Kr, uy, out=Kuy[r:r + rows])
    vals = np.einsum("kpm,mkp->kp", ux, Kuy.reshape(M, 2, len(a))) / (M * M)
    out = np.empty((2, 4, 4))
    out[:, a, b] = vals
    out[:, b, a] = vals
    return out


def pbar_matrix(family: str, theta: float, quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Localization probabilities for all pairs: entry [l(S')-1, l(S)-1] is
    the infinite-lattice time-averaged probability of observing |S'> at the
    origin for the walk started there in |S>."""
    if family not in COIN_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    theta = _check_theta(theta)
    I1, I2 = _integrals(family, theta, quad.M)
    return I1**2 + I2**2


def _pair_value(pm: np.ndarray, S: str, S_prime: str) -> float:
    return float(pm[chirality_index(S_prime) - 1, chirality_index(S) - 1])


def _total_value(pm: np.ndarray, S: str) -> float:
    return float(pm[:, chirality_index(S) - 1].sum())


def pbar_infinity_pair(family: str, theta: float, S: str, S_prime: str,
                       quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Limiting time-averaged probability for one (initial, observed) pair."""
    return _pair_value(pbar_matrix(family, theta, quad), S, S_prime)


def pbar_infinity_total(family: str, theta: float, S: str,
                        quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Total trapping probability at the origin for initial coin state |S>."""
    return _total_value(pbar_matrix(family, theta, quad), S)


def _convergence(family: str, theta: float, quad: QuadratureSpec):
    """(convergence_delta, the M-node pbar_matrix it compared against)."""
    coarse = pbar_matrix(family, theta, QuadratureSpec(max(quad.M // 2, 16)))
    fine = pbar_matrix(family, theta, quad)
    return float(np.abs(fine - coarse).max()), fine


def convergence_delta(family: str, theta: float, quad: QuadratureSpec) -> float:
    """Largest pairwise change when halving the node count; a value above
    1e-4 flags non-convergence."""
    return _convergence(family, theta, quad)[0]


def theta_grid(num_points: int = 400) -> np.ndarray:
    """Equidistant interior points of the open interval (-pi, pi)."""
    num_points = _check_count(num_points, 2, "sweep points")
    return np.linspace(-np.pi, np.pi, num_points + 2)[1:-1]


def sweep_theta(family: str, S_list=("R",), num_points: int = 400,
                quad: QuadratureSpec = QuadratureSpec()) -> list[dict]:
    """Sweep the open theta interval; one row per (theta, S) with the total
    and the full 16-pair breakdown (pairs are S-independent)."""
    grid = theta_grid(num_points)
    S_list = [S.upper() for S in S_list]
    rows = []
    for theta in grid:
        pm = pbar_matrix(family, theta, quad)
        pairs = {f"p_{si}{sj}": _pair_value(pm, si, sj)
                 for si in CHIRALITIES for sj in CHIRALITIES}
        for S in S_list:
            rows.append({
                "family": family,
                "S": S,
                "theta": float(theta),
                "p_total": _total_value(pm, S),
                **pairs,
                "quad_M": quad.M,
            })
    return rows


def theorem36_check(quad: QuadratureSpec = QuadratureSpec(), grid: int = 25) -> dict:
    """Max deviation of the same-chirality localization probability from 1/8
    over a theta grid, for the generalized Grover families."""
    thetas = theta_grid(grid)
    worst = 0.0
    worst_at = None
    for family in _GROVER_FAMILIES:
        for theta in thetas:
            pm = pbar_matrix(family, theta, quad)
            dev = float(np.abs(np.diag(pm) - 0.125).max())
            if dev > worst:
                worst, worst_at = dev, (family, float(theta))
    return {
        "families": list(_GROVER_FAMILIES),
        "grid": grid,
        "quad_M": quad.M,
        "max_abs_deviation": worst,
        "worst_at": worst_at,
        "passed": worst < 1e-6,
    }
