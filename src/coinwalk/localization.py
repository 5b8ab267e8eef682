"""Infinite-lattice localization probabilities by quadrature on the torus.

Only the two unimodular-constant eigenvalue branches (lambda = -1 and +1)
survive the double limit T -> infinity, N -> infinity; the localization
probability for an (initial, observed) chirality pair is I1^2 + I2^2 where
I_k is the [0, pi]^2 integral of the degeneracy-class sum of eigenvector
component products, normalized by 1/(4 pi^2) for the four-member momentum
orbit (equivalently 1/(8 pi^2) for the n <-> m symmetrized eight-member sum).

The two branches are equal. Under (lam, e) -> (-lam, -conj e), that is
lam -> -lam and x -> pi - x, every factor of spectral._FACTORS maps to plus
or minus its own conjugate, so the lambda = +1 integrand at pi - x is the
lambda = -1 integrand at x, and I2 = I1 to rounding. Only lambda = -1 is
computed, and pbar_matrix is 2 I^2. Theorem 3.6's diagonal 1/8 for the
generalized Grover families reads I_aa = 1/4.

At lambda = -1 every family's eigenvector factors into pure-x and pure-y
terms, px * qy, the closed-form factors spectral._FACTORS gives the finite-N
eigensystem. The y factor is a polynomial of degree one in e^{iy} (in
e^{-iy} for p23z1) with real coefficients, qy(y) = c(y) (Q0 + Q1 e^{iy})
with c = 1 or e^{-iy} common to the four entries and real 4-vectors Q0, Q1;
c cancels from the integrand. Its ends P+- = Q0 +- Q1 are qy at y = 0 and
y = pi up to a sign per end, and the integrand reads P+- only through the
products P+-_a P+-_b.

The integrand is then a ratio of two linear functions of cos y, whose y
integral _integrals takes exactly. In x, x3's has a kink at x = pi, where the
flat band meets the dispersive pair, and the Grover families' turns within
|theta -+ pi/2| of an end, so the x rule is the midpoint rule in s under
x = phi(s), with phi' = (8/3) sin^4 s vanishing to fourth order at both ends
(Sidi's sin^4 transform, 1993; Trefethen and Weideman, SIAM Review 56, 2014),
and phi(pi - s) = pi - phi(s) keeps the reflection above. At the default
M = 512 every family is within 4.4e-16 of M = 65536 at theta in {0, +-1e-9,
+-1e-6, +-1e-3, 0.7, -2, +-1.5707, +-3.1}, x3 at |theta| <= 1e-6 within 1.5e-12.

A call costs O(M), with no M x M array. One pbar_matrix call (all 16
pairs) takes about 0.1 ms at M = 128, 0.15 ms at M = 512 and 0.5 ms at
M = 2048 on one core of a 2-core Xeon (x3 at theta 0.7).
sweep_theta and theorem36_check call it once per theta point, in grid
order, on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coins import _GENERALIZED_GROVER, _check_count, _family_name
from .spectral import _FACTORS
from .walk import CHIRALITIES, chirality_index

__all__ = [
    "QuadratureSpec", "theta_grid",
    "pbar_matrix", "pbar_infinity_pair", "pbar_infinity_total",
    "sweep_theta", "theorem36_check", "convergence_delta",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """The exact y integral and M sin^4-mapped x nodes (_sin4_rule)."""

    M: int = 512

    def __post_init__(self):
        object.__setattr__(self, "M", _check_count(self.M, 16, "quadrature nodes per axis"))

    def nodes(self) -> np.ndarray:
        return _sin4_rule(self.M)[0]


def _sin4_rule(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes phi(s_j) and weights phi'(s_j) = (8/3) sin^4 s_j at the
    midpoints s_j = (j + 1/2) pi / M; the x integral over [0, pi] is
    (pi / M) sum_j w_j f(x_j)."""
    s = (np.arange(M) + 0.5) * np.pi / M
    return s - 2 / 3 * np.sin(2 * s) + np.sin(4 * s) / 12, 8 / 3 * np.sin(s) ** 4


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not (-np.pi < theta < np.pi):
        raise ValueError("localization requires theta strictly inside (-pi, pi)")
    return theta


# theorem36_check names where the largest deviation from 1/8 lies only above
# this; below it the deviations are rounding (at most 2.8e-16 on the default
# grid), and their argmax moves with any last-bit change of the quadrature
_ROUNDING_FLOOR = 1e-13


@lru_cache(maxsize=1)
def _integrals(family: str, theta: float, M: int) -> np.ndarray:
    """I[a, b] = lambda = -1 class-sum integral of v_a conj(v_b), all 16 pairs.
    The last result is kept, read-only: a value and its convergence_delta
    read the same M-node integrals.

    The class sum runs over the momentum-sign variants ex, ey in {e, conj e}.
    px depends on x alone, qy on y alone, and both have real coefficients, so
    the four variants sum to 4 Re(ux) Re(uy) / W with ux, uy the pair products
    of px, qy and W = |px|^2 . |qy|^2. On the y axis, qy = c(y) (Q0 + Q1 e^{iy}),
    and c cancels from uy / W. P+- = Q0 +- Q1, up to a sign per end that
    drops out of every product below, is qy at y = 0 and pi, from the same
    _FACTORS call as px. With
    W / |c|^2 = A + B cos y with A +- B = |px|^2 . (P+-)^2, and
    Re(uy_ab) / |c|^2 = gamma + delta cos y with gamma +- delta = P+-_a P+-_b,
    the y means of (1 +- cos y) / W are exact, from the mean 1 / D of
    1 / (A + B cos y) with D = sqrt(A^2 - B^2):
        T+-(x) = (A -+ B + D) / ((A + D) D).
    What is left is the x integral of ux_ab (P+_a P+_b T+ + P-_a P-_b T-) / 2,
    by the sin^4-mapped rule. Each of the 10 ux_ab with a <= b is summed
    against w T+- by a numpy reduction, not a BLAS product, so the values
    are the same bytes under every BLAS kernel.

    A +- B are sums of nonnegative terms, so nothing cancels in them, in
    D = sqrt(A + B) sqrt(A - B) or in T+-."""
    x, w = _sin4_rule(M)
    px, qy = _FACTORS[family](theta, -1.0, np.exp(1j * x), np.array([1.0, -1.0]))
    P = qy.real.T                                               # (2, 4): P+, P-
    # A + B, A - B
    Ap, Am = (P[:, :, None] ** 2 * (px.real**2 + px.imag**2)).sum(axis=1)
    D = np.sqrt(Ap) * np.sqrt(Am)
    AD = (Ap + Am) / 2 + D
    T = np.stack([Am + D, Ap + D]) * (w / (AD * D))             # w T+, w T-
    a, b = np.triu_indices(4)
    ux = px.real[a] * px.real[b] + px.imag[a] * px.imag[b]      # (10, M)
    S = (T[:, None, :] * ux).sum(axis=-1)           # sum_x w T+- Re(px_a conj px_b)
    I = np.empty((4, 4))
    I[a, b] = I[b, a] = (P[:, a] * P[:, b] * S).sum(axis=0) / (2 * M)
    I.setflags(write=False)
    return I


def pbar_matrix(family: str, theta: float, quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Localization probabilities for all pairs: entry [l(S')-1, l(S)-1] is
    the infinite-lattice time-averaged probability of observing |S'> at the
    origin for the walk started there in |S>. The lambda = +1 integral equals
    the lambda = -1 one, so the sum of the two squares is 2 I^2. family is
    one of COIN_FAMILIES, in any case."""
    family = _family_name(family)
    theta = _check_theta(theta)
    return 2 * _integrals(family, theta, quad.M) ** 2


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


def convergence_delta(family: str, theta: float, quad: QuadratureSpec) -> float:
    """Largest pairwise change when halving the node count. M must be at
    least 32, so that M / 2 is a rule of its own."""
    M = _check_count(quad.M, 32, "quadrature nodes per axis of the halving check")
    # fine first: right after a value at M, its integrals are the cached ones
    fine = pbar_matrix(family, theta, quad)
    coarse = pbar_matrix(family, theta, QuadratureSpec(M // 2))
    return float(np.abs(fine - coarse).max())


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
    over a theta grid, for the generalized Grover families. worst_at is the
    (family, theta) of that deviation when it exceeds _ROUNDING_FLOOR, and
    None otherwise."""
    thetas = theta_grid(grid)
    worst = 0.0
    worst_at = None
    for family in _GENERALIZED_GROVER:
        for theta in thetas:
            pm = pbar_matrix(family, theta, quad)
            dev = float(np.abs(np.diag(pm) - 0.125).max())
            if dev > worst:
                worst, worst_at = dev, (family, float(theta))
    return {
        "families": list(_GENERALIZED_GROVER),
        "grid": grid,
        "quad_M": quad.M,
        "max_abs_deviation": worst,
        "worst_at": worst_at if worst > _ROUNDING_FLOOR else None,
        "passed": worst < 1e-6,
    }
