import math

import numpy as np
import pytest

from coinwalk.coins import COIN_FAMILIES, coin_from_theta
from coinwalk.localization import (
    QuadratureSpec,
    convergence_delta,
    pbar_infinity_pair,
    pbar_infinity_total,
    pbar_matrix,
    sweep_theta,
    theorem36_check,
    theta_grid,
    _integrals,
)
from coinwalk.spectral import _FACTORS, _FLAT_Y_ENDS, c_table_p24y1, finite_N_pbar_matrix
from coinwalk.walk import CHIRALITIES

QUICK = QuadratureSpec(64)
EPS = np.finfo(float).eps
GROVER_FAMILIES = ("p34x1", "p24y1", "p23z1")


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(8)
    assert len(QuadratureSpec(32).nodes()) == 32


@pytest.mark.parametrize("M", [512.0, 100.5, float("nan"), True, "64", None, np.float64(64)])
def test_quadrature_spec_rejects_non_integer(M):
    with pytest.raises(ValueError, match="must be an integer"):
        QuadratureSpec(M)


def test_counts_accept_numpy_integers():
    q = QuadratureSpec(np.int64(32))
    assert q.M == 32 and type(q.M) is int
    assert len(q.nodes()) == 32
    assert len(theta_grid(np.int32(5))) == 5


@pytest.mark.parametrize("n", [3.0, True, "4", 1])
def test_theta_grid_rejects_bad_count(n):
    with pytest.raises(ValueError):
        theta_grid(n)


def test_theta_grid_open_interval():
    g = theta_grid(400)
    assert len(g) == 400
    assert -math.pi < g[0] and g[-1] < math.pi
    assert np.allclose(np.diff(g), g[1] - g[0])
    # symmetric about zero
    assert np.abs(g + g[::-1]).max() < 1e-12


@pytest.mark.parametrize("family", GROVER_FAMILIES)
@pytest.mark.parametrize("theta", [-2.5, -math.pi / 2, 0.4, 1.0])
def test_diagonal_is_exactly_one_eighth(family, theta):
    # the class-summed diagonal integrand is the constant 2, so even a
    # coarse midpoint rule hits 1/8 to machine precision
    pm = pbar_matrix(family, theta, QUICK)
    assert np.abs(np.diag(pm) - 0.125).max() < 1e-12


def test_theta_range_enforced():
    with pytest.raises(ValueError):
        pbar_infinity_pair("p24y1", math.pi, "R", "R", QUICK)


def test_grover_point_pair_value():
    # the Grover coin itself: every diagonal pair traps with probability 1/8
    for S in CHIRALITIES:
        v = pbar_infinity_pair("p24y1", -math.pi / 2, S, S, QUICK)
        assert v == pytest.approx(0.125, abs=1e-12)


def test_k1_integral_vanishes_at_theta_zero_for_rl_pair():
    I = _integrals("p24y1", 0.0, 64)
    assert abs(I[0, 1]) < 1e-14


def test_total_is_sum_of_pairs():
    pm = pbar_matrix("p23z1", 0.9, QUICK)
    tot = pbar_infinity_total("p23z1", 0.9, "U", QUICK)
    assert tot == pytest.approx(pm[:, 2].sum(), abs=1e-14)
    assert 0.125 <= tot <= 1.0


@pytest.mark.parametrize("family", COIN_FAMILIES)
def test_theta_symmetry(family):
    for theta in (0.6, 1.9, 2.8):
        for S in CHIRALITIES:
            a = pbar_infinity_total(family, theta, S, QUICK)
            b = pbar_infinity_total(family, -theta, S, QUICK)
            assert abs(a - b) < 1e-6


def test_values_in_unit_interval():
    for family in COIN_FAMILIES:
        pm = pbar_matrix(family, 1.3, QUICK)
        assert (pm >= -1e-15).all() and (pm <= 1.0 + 1e-12).all()
        assert (pm.sum(axis=0) <= 1.0 + 1e-9).all()


def test_x3_theta_zero_values():
    # permutation coin: walkers launched in R/L never return, U/D bounce
    # with period two and spend half the time at the origin
    for S, want in [("R", 0.0), ("L", 0.0), ("U", 0.5), ("D", 0.5)]:
        v = pbar_infinity_total("x3", 0.0, S, QUICK)
        assert v == pytest.approx(want, abs=1e-8)


def test_p24y1_kernel_matches_c_table_sums():
    # the p24y1 integral against midpoint sums of the closed-form class-sum
    # table of both flat branches, normalized by 1/(8 pi^2) for the
    # symmetrized sum
    M = 96
    xs = QuadratureSpec(M).nodes()
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    for theta in (0.8, -1.3):
        got = _integrals("p24y1", theta, M)
        for k in (1, 2):
            want = np.array([[c_table_p24y1(a, b, k, theta, X, Y).sum() / (8 * M * M)
                              for b in (1, 2, 3, 4)] for a in (1, 2, 3, 4)])
            assert np.abs(got - want).max() < 1e-10


def _integrals_matvec(family, theta, M, k):
    """Direct form of the quadrature: each of the four momentum-sign
    variants and each of the 16 pairs as its own bilinear form u_x^T K u_y,
    with the kernel K built from branch k's own factors."""
    xs = QuadratureSpec(M).nodes()
    lam = -1.0 if k == 1 else 1.0
    e_pos = np.exp(1j * xs)
    out = np.zeros((4, 4), dtype=complex)
    for ex in (e_pos, np.conj(e_pos)):
        for ey in (e_pos, np.conj(e_pos)):
            px, qy = _FACTORS[family](theta, lam, ex, ey)
            K = 1.0 / np.einsum("im,in->mn", np.abs(px) ** 2, np.abs(qy) ** 2)
            for a in range(4):
                for b in range(4):
                    ux = px[a] * np.conj(px[b])
                    uy = qy[a] * np.conj(qy[b])
                    out[a, b] += ux @ K @ uy
    return out / (4 * M * M)


# The one computed integral against both branches of the direct form: this
# is the test of the identity I_2 = I_1 that pbar_matrix = 2 I^2 rests on.

@pytest.mark.parametrize("family", COIN_FAMILIES)
@pytest.mark.parametrize("theta", [0.7, -2.0, 3.1, -3.1, 0.0, 1.5707, -1.5707])
def test_kernel_matches_matvec_quadrature(family, theta):
    got = _integrals(family, theta, 64)
    for k in (1, 2):
        want = _integrals_matvec(family, theta, 64, k)
        assert np.abs(want.imag).max() < 1e-14
        assert np.abs(got - want.real).max() < 1e-14


def test_kernel_large_even_M_matches_matvec_quadrature():
    # M = 600: a large even node count, at the thetas of the odd-M test
    for family in COIN_FAMILIES:
        for theta in (2.2, 1.5707, -1.5707):
            got = _integrals(family, theta, 600)
            for k in (1, 2):
                want = _integrals_matvec(family, theta, 600, k).real
                assert np.abs(got - want).max() < 1e-14


@pytest.mark.parametrize("family", COIN_FAMILIES)
@pytest.mark.parametrize("theta", [2.2, 1.5707, -1.5707])
def test_kernel_odd_M_matches_matvec_quadrature(family, theta):
    # odd M = 65: the middle node x = pi/2 is its own mirror image
    got = _integrals(family, theta, 65)
    for k in (1, 2):
        want = _integrals_matvec(family, theta, 65, k).real
        assert np.abs(got - want).max() < 1e-14


def _integrals_longdouble(family, theta, M):
    """The lambda = -1 integral as a direct 2-D midpoint sum in extended
    precision, nodes and factors included."""
    ld = np.longdouble
    xs = (np.arange(M, dtype=ld) + ld(0.5)) * (4 * np.arctan(ld(1))) / M
    e = np.exp(1j * xs)
    px, qy = _FACTORS[family](ld(theta), ld(-1), e, e)
    K = 1 / np.einsum("im,in->mn", np.abs(px) ** 2, np.abs(qy) ** 2)
    ux = (px[:, None] * np.conj(px[None, :])).real            # (4, 4, M)
    uy = (qy[:, None] * np.conj(qy[None, :])).real
    return np.einsum("abm,mn,abn->ab", ux, K, uy) / (M * M)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="np.longdouble is no wider than double here")
@pytest.mark.parametrize("family, theta", [
    ("x3", 3.1415), ("x3", -3.1415), ("x3", 3.141),
    *[(f, th) for f in GROVER_FAMILIES
      for th in (math.pi / 2, -math.pi / 2, 1.5707, -1.5707)]])
@pytest.mark.parametrize("M", [16, 65])
def test_integrals_match_extended_precision_sum(family, theta, M):
    # x3 near +-pi needs tan(theta / 2) itself: sin / (1 + cos) is 9e-14 off
    want = _integrals_longdouble(family, theta, M)
    assert np.abs(_integrals(family, theta, M) - want).max() < 1e-14


@pytest.mark.parametrize("family", COIN_FAMILIES)
@pytest.mark.parametrize("theta", [0.7, -2.0, 3.1, -3.1, 0.0, 1.5707, -1.5707, 1e-6])
def test_flat_y_ends_match_factors(family, theta):
    # the closed-form y sum's table against the lambda = -1 factors: at
    # seeded (x, y), Re(qy_a conj qy_b) / W = (gamma + delta cos y) /
    # (A + B cos y) with gamma +- delta = P+-_a P+-_b, A +- B = |px|^2 . (P+-)^2.
    # y stays 0.1 from the ends, where e^{iy} -+ 1 cancels in the factors
    rng = np.random.default_rng(16)
    x, y = rng.uniform(0.1, np.pi - 0.1, (2, 50))
    px, qy = _FACTORS[family](theta, -1.0, np.exp(1j * x), np.exp(1j * y))
    W = np.einsum("im,im->m", np.abs(px) ** 2, np.abs(qy) ** 2)
    uy = (qy[:, None] * np.conj(qy[None, :])).real
    P = _FLAT_Y_ENDS[family](theta)
    half = np.stack([np.cos(y / 2) ** 2, np.sin(y / 2) ** 2])   # (1 +- cos y) / 2
    W_ends = ((P**2 @ np.abs(px) ** 2) * half).sum(axis=0)
    uy_ends = np.einsum("ka,kb,km->abm", P, P, half)
    want, got = uy / W, uy_ends / W_ends
    scale = np.abs(qy) ** 2 / W               # |want_ab| <= sqrt(scale_a scale_b)
    bound = 1e-14 * np.sqrt(scale[:, None] * scale[None, :])
    assert (np.abs(got - want) <= bound).all()


@pytest.mark.parametrize("family", COIN_FAMILIES)
def test_pbar_matrix_finite_next_to_pi(family):
    # 1 + cos(theta) rounds to 0 within about 1e-8 of pi, so no factor may
    # divide by it
    for theta in (np.nextafter(np.pi, 0), np.pi - 1e-9):
        for th in (theta, -theta):
            pm = pbar_matrix(family, th, QUICK)
            assert np.isfinite(pm).all()
            assert (pm >= 0).all() and (pm.sum(axis=0) <= 1 + 1e-12).all()


@pytest.mark.parametrize("family", COIN_FAMILIES)
@pytest.mark.parametrize("theta", [0.7, -2.0, 3.1, 1.5707, -1.5707])
def test_branch_reflection(family, theta):
    # the reflection behind I_2 = I_1: the lambda = +1 weights at
    # node M-1-i (pi - x_i) are the lambda = -1 weights at x_i. The nodes are
    # mirror-symmetric to rounding, and next to the edges e^{ix} -+ 1 cancels,
    # which turns that rounding into a relative error that grows like M eps
    # (at most 1.5 M eps for M from 16 to 2049)
    for M in (64, 65):
        xs = QuadratureSpec(M).nodes()
        assert np.abs(xs[::-1] - (np.pi - xs)).max() < 1e-15
        e = np.exp(1j * xs)
        px_m, qy_m = _FACTORS[family](theta, -1.0, e, e)
        px_p, qy_p = _FACTORS[family](theta, 1.0, e[::-1], e[::-1])
        for plus, minus in ((px_p, px_m), (qy_p, qy_m)):
            want = np.abs(minus) ** 2
            assert (np.abs(np.abs(plus) ** 2 - want) <= 4 * M * EPS * want).all()


@pytest.mark.parametrize("family", COIN_FAMILIES)
def test_integrals_symmetric(family):
    for theta in (-2.4, 0.3, 1.7):
        I = _integrals(family, theta, 64)
        assert np.array_equal(I, I.T)


def test_p34x1_totals_equal_across_chirality():
    for theta in (0.7, 2.2):
        vals = [pbar_infinity_total("p34x1", theta, S, QUICK) for S in CHIRALITIES]
        assert max(vals) - min(vals) < 1e-10


def test_convergence_delta_small():
    for family in COIN_FAMILIES:
        assert convergence_delta(family, 1.1, QuadratureSpec(128)) < 1e-4


def test_finite_N_converges_to_quadrature_value():
    family, theta = "p24y1", 0.9
    c = coin_from_theta(family, theta)
    target = pbar_matrix(family, theta, QuadratureSpec(256))
    prev = None
    for N in (31, 61):
        diff = np.abs(finite_N_pbar_matrix(c, N) - target).max()
        if prev is not None:
            assert diff < prev
        prev = diff
    assert prev < 0.02


def test_sweep_rows_structure():
    rows = sweep_theta("p24y1", ("R", "D"), num_points=8, quad=QUICK)
    assert len(rows) == 16
    r0 = rows[0]
    assert r0["family"] == "p24y1" and r0["S"] == "R"
    assert set(k for k in r0 if k.startswith("p_")) == {
        f"p_{a}{b}" for a in CHIRALITIES for b in CHIRALITIES} | {"p_total"}
    assert r0["p_total"] == pytest.approx(sum(r0[f"p_R{b}"] for b in CHIRALITIES))
    assert r0["quad_M"] == 64


def test_theorem36_check_quick():
    rep = theorem36_check(QUICK, grid=5)
    assert rep["passed"]
    assert rep["max_abs_deviation"] < 1e-6


def test_finite_N_consistency_spec_sizes():
    # |P_N - P_inf| falls like 1/N and is below 0.02 by N = 201
    for family, theta, l_s in [("p24y1", 0.9, 0), ("p34x1", -1.3, 2)]:
        c = coin_from_theta(family, theta)
        target = pbar_matrix(family, theta, QuadratureSpec(256))
        diffs = [np.abs(finite_N_pbar_matrix(c, N) - target).max()
                 for N in (51, 101, 201)]
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 0.02


def test_quadrature_doubling_stable_at_256():
    for family in COIN_FAMILIES:
        for theta in (0.7, 2.9, -1.5709):
            coarse = pbar_matrix(family, theta, QuadratureSpec(256))
            fine = pbar_matrix(family, theta, QuadratureSpec(512))
            assert np.abs(fine - coarse).max() < 1e-4


def test_p24y1_monotone_pairing_matches_figures():
    # for theta > 0 the R and U totals fall with |theta| while L and D grow;
    # the curves pair up exactly as the figure panels do
    q = QuadratureSpec(96)
    pos = [th for th in theta_grid(30) if th > 0]
    tots = np.array([[pbar_matrix("p24y1", th, q)[:, i].sum() for i in range(4)]
                     for th in pos])
    dR, dL, dU, dD = np.diff(tots, axis=0).T
    assert (dR <= 1e-12).all() and (dU <= 1e-12).all()
    assert (dL >= -1e-12).all() and (dD >= -1e-12).all()
    assert np.abs(tots[:, 0] - tots[:, 2]).max() < 1e-10   # R with U
    assert np.abs(tots[:, 1] - tots[:, 3]).max() < 1e-10   # L with D
