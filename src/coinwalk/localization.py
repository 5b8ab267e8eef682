"""Infinite-lattice localization probabilities by midpoint quadrature.

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
terms, px * qy, the closed-form factors the finite-N eigensystem uses. The
y factor is qy(y) = c(y) (Q0 + Q1 e^{iy}) with one complex scalar c(y)
common to the four entries and real 4-vectors Q0, Q1; c cancels from the
integrand. spectral._FLAT_Y_ENDS tabulates P+- = Q0 +- Q1, the factor's ends
at y = 0 and y = pi, with t = sin(theta/2) and u = cos(theta/2):

    family  P+                         P-
    p24y1   [u+t, u+t, 1, -1]          [u-t, u-t, 1, 1]
    p34x1   [u+t, u+t, 1, 1]           [u-t, t-u, 1, -1]
    p23z1   p24y1's, rows [0, 1, 3, 2] p24y1's, rows [0, 1, 3, 2]
    x3      [-2 tan(theta/2), same, 1, -1]  [0, 0, 1, 1]

The integrand is then a ratio of two linear functions of cos y, and its
midpoint sum over y has a closed form by the aliasing identity of the
midpoint rule: sum_j cos(n y_j) over y_j = (j + 1/2) pi / M is M (-1)^k at
n = 2Mk and 0 otherwise (_integrals). What is left is one midpoint sum over
x, so a call costs O(M), with no M x M array. One pbar_matrix call (all 16
pairs) takes about 0.09 ms at M = 128, 0.13 ms at M = 512 and 0.28 ms at
M = 2048 on one core of a 2-core Xeon with OpenBLAS (x3 at theta 0.7).
sweep_theta and theorem36_check call it once per theta point, in grid
order, on the calling thread.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .coins import COIN_FAMILIES
from .spectral import _FACTORS, _FLAT_Y_ENDS
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


_GROVER_FAMILIES = ("p34x1", "p24y1", "p23z1")   # Theorem 3.6: diagonal 1/8


def _integrals(family: str, theta: float, M: int) -> np.ndarray:
    """I[a, b] = lambda = -1 class-sum integral of v_a conj(v_b), all 16 pairs.

    The class sum runs over the momentum-sign variants ex, ey in {e, conj e}.
    px depends on x alone, qy on y alone, and both have real coefficients, so
    the four variants sum to 4 Re(ux) Re(uy) / W with ux, uy the pair products
    of px, qy and W = |px|^2 . |qy|^2. On the y axis, qy = c(y) (Q0 + Q1 e^{iy})
    (spectral._FLAT_Y_ENDS), and c cancels from uy / W. With P+- = Q0 +- Q1,
    W / |c|^2 = A + B cos y with A +- B = |px|^2 . (P+-)^2, and
    Re(uy_ab) / |c|^2 = gamma + delta cos y with gamma +- delta = P+-_a P+-_b.
    The midpoint sum over y_j = (j + 1/2) pi / M then has a closed form:
    1 / (A + B cos y) = (1 + 2 sum_n r^n cos ny) / D with D = sqrt(A^2 - B^2)
    and r = -B / (A + D), and sum_j cos(n y_j) is M (-1)^k at n = 2Mk and 0
    otherwise, so
        T+-(x) = sum_j (1 +- cos y_j) / W
               = (M / D) (1 +- r) (1 -+ r^(2M-1)) / (1 + r^(2M)).
    The r^(2M) terms are the midpoint rule's aliasing error; dropping them
    would give the exact y integral, which is another rule. What is left is
    the midpoint sum over x of ux_ab (P+_a P+_b T+ + P-_a P-_b T-) / 2.

    A +- B are sums of nonnegative terms, so nothing cancels in them, in
    D = sqrt(A + B) sqrt(A - B), in 1 + r = (A - B + D) / (A + D) or in
    1 - r = (A + B + D) / (A + D). log |r| = log1p(-(min(A +- B) + D) / (A + D))
    gives the powers of r, and expm1 gives 1 - |r|^(2M-1) where r > 0."""
    e = np.exp(1j * QuadratureSpec(M).nodes())
    px = _FACTORS[family](theta, -1.0, e, e[:1])[0]             # qy is not used
    R = np.concatenate([px.real, px.imag])                      # (8, M)
    P = _FLAT_Y_ENDS[family](theta)                             # (2, 4): P+, P-
    Ap, Am = P**2 @ (R[:4] ** 2 + R[4:] ** 2)                   # A + B, A - B
    D = np.sqrt(Ap) * np.sqrt(Am)
    AD = (Ap + Am) / 2 + D
    with np.errstate(divide="ignore"):                          # r = 0: log 0
        log_r = np.log1p(-(np.minimum(Ap, Am) + D) / AD)        # log |r|
    odd = np.exp((2 * M - 1) * log_r)                           # |r|^(2M-1)
    one_minus = -np.expm1((2 * M - 1) * log_r)                  # 1 - |r|^(2M-1)
    r_pos = Am >= Ap
    T = np.stack([(Am + D) * np.where(r_pos, one_minus, 1 + odd),
                  (Ap + D) * np.where(r_pos, 1 + odd, one_minus)])
    T *= M / (AD * D * (1 + odd * np.exp(log_r)))
    G = (R * T[:, None, :]) @ R.T                               # (2, 8, 8)
    S = G[:, :4, :4] + G[:, 4:, 4:]                 # sum_x T+- Re(px_a conj px_b)
    I = (P[:, :, None] * P[:, None, :] * S).sum(axis=0) / (2 * M * M)
    return np.triu(I) + np.triu(I, 1).T


def pbar_matrix(family: str, theta: float, quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Localization probabilities for all pairs: entry [l(S')-1, l(S)-1] is
    the infinite-lattice time-averaged probability of observing |S'> at the
    origin for the walk started there in |S>. The lambda = +1 integral equals
    the lambda = -1 one, so the sum of the two squares is 2 I^2."""
    if family not in COIN_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
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
