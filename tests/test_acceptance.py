"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import zlib
from fractions import Fraction

import numpy as np

from coinwalk.coins import (
    COIN_FAMILIES,
    SET_TAGS,
    chain_ids,
    classify_batch_errors,
    coin_from_theta,
    coin_rational,
    group_closure_sample,
    is_orthogonal,
    is_permutative,
    set_member_from_theta,
)
from coinwalk.localization import (
    QuadratureSpec,
    pbar_infinity_total,
    pbar_matrix,
    theorem36_check,
    theta_grid,
)
from coinwalk.matspace import (
    basis_matrices,
    decompose_linear_sum,
    hadamard_matrix,
    hadamard_row_sum_check,
    sample_orthogonal_in_span,
    theorem217_family,
    two_permutation_check,
)
from coinwalk.spectral import (
    c_coefficient,
    coin_eigensystem,
    finite_N_pbar_matrix,
    reconstruct_state,
)
from coinwalk.walk import (
    CHIRALITIES,
    evolve,
    initial_state,
    time_averaged_chirality_profile,
)

from c_table_oracle import c_table_p24y1

GROVER_FAMILIES = ("p34x1", "p24y1", "p23z1")


def _report(num, ok, text):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_theorem36():
    """Same-chirality trapping probability equals 1/8 for each generalized
    Grover family on a 25-point theta grid, quadrature M = 512, tol 1e-6."""
    rep = theorem36_check(QuadratureSpec(512), grid=25)
    _report(1, rep["max_abs_deviation"] < 1e-6,
            f"theorem 3.6 diagonal = 1/8: max deviation {rep['max_abs_deviation']:.3e} "
            f"(tol 1e-6, M=512, 25-point grid, 3 families, 4 chiralities)")


def test_criterion_2_oracle_equivalence():
    """Direct evolution matches spectral reconstruction (1e-8) and the
    empirical time average matches the exact finite-N value (5e-4 at T=1e4)."""
    worst_state = 0.0
    worst_avg = 0.0
    T = 10_000
    for family in ("p24y1", "x3"):
        for theta in (0.7, -2.1):
            c = coin_from_theta(family, theta)
            for N in (3, 5):
                for S in ("R", "U"):
                    s0 = initial_state(N, S)
                    for t in (1, 7, 50):
                        d = evolve(s0, c, t)
                        r = reconstruct_state(c, N, S, t)
                        worst_state = max(worst_state, np.abs(d.amps - r.amps).max())
                emp = time_averaged_chirality_profile(c, N, "R", T)
                exact = finite_N_pbar_matrix(c, N)[:, 0]
                worst_avg = max(worst_avg, np.abs(emp - exact).max())
    ok = worst_state < 1e-8 and worst_avg < 5e-4
    _report(2, ok,
            f"oracle equivalence: state reconstruction max err {worst_state:.3e} "
            f"(tol 1e-8), time-average max err {worst_avg:.3e} (tol 5e-4 at T=1e4)")


def test_criterion_3_spectral_residuals():
    """Eigen-residuals at N=101 over 25 thetas and all families stay below
    1e-10; each block's eigenvector Gram at N=5 is the identity within 1e-10,
    so the 4N^2 eigenvectors of the evolution operator are orthonormal (the
    plane waves are)."""
    worst = 0.0
    N = 101
    for family in COIN_FAMILIES:
        for theta in theta_grid(25):
            lams, vecs, _, U = coin_eigensystem(coin_from_theta(family, theta), N)
            Uv = np.einsum("nmij,nmkj->nmki", U, vecs)
            resid = np.linalg.norm(Uv - lams[..., None] * vecs, axis=-1)
            worst = max(worst, float(resid.max()))
    worst_gram = 0.0
    for family in COIN_FAMILIES:
        vecs = coin_eigensystem(coin_from_theta(family, 0.9), 5)[1]
        gram = np.einsum("nmki,nmli->nmkl", vecs.conj(), vecs)
        worst_gram = max(worst_gram, float(np.abs(gram - np.eye(4)).max()))
    ok = worst < 1e-10 and worst_gram < 1e-10
    _report(3, ok,
            f"spectral residuals: max block residual {worst:.3e} (tol 1e-10, N=101, "
            f"25 thetas, 4 families); per-block eigenvector Gram deviation "
            f"{worst_gram:.3e} (tol 1e-10, N=5)")


def test_criterion_4_c_table_equivalence():
    """The numeric eigenvector path reproduces all ten closed-form p24y1
    class-sum entries on 100 random (theta, n, m, N) samples within 1e-8."""
    rng = np.random.default_rng(2024)
    class_pairs = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 4)]
    worst = 0.0
    for _ in range(100):
        N = int(rng.choice([5, 7, 9, 11, 13]))
        half = (N - 1) // 2
        n = int(rng.integers(1, half))
        m = int(rng.integers(n + 1, half + 1))
        theta = float(rng.uniform(-3.1, 3.1))
        coin = coin_from_theta("p24y1", theta)
        zn, zm = 2 * np.pi * n / N, 2 * np.pi * m / N
        for k in (1, 2):
            for a, b in class_pairs:
                got = c_coefficient(coin, CHIRALITIES[a - 1], CHIRALITIES[b - 1],
                                    n, m, k, N=N)
                want = complex(c_table_p24y1(a, b, k, theta, zn, zm))
                worst = max(worst, abs(got - want))
    _report(4, worst < 1e-8,
            f"c-table equivalence: max |numeric - closed form| {worst:.3e} "
            f"(tol 1e-8, 100 samples x 10 entries)")


def test_criterion_5_figure_shape_properties():
    """Sweep-curve properties at 400 theta points: symmetry, p34x1 chirality
    degeneracy and maxima at +-pi/2, x3 zeros and end-of-range ordering, and
    the 1/8 floor for the Grover families."""
    quad = QuadratureSpec(256)
    grid = theta_grid(400)
    mats = {fam: [pbar_matrix(fam, th, quad) for th in grid] for fam in COIN_FAMILIES}

    def totals(fam, l_s):
        return np.array([pm[:, l_s].sum() for pm in mats[fam]])

    # (a) symmetry in theta for every family and initial state
    sym_dev = max(
        float(np.abs(totals(fam, i) - totals(fam, i)[::-1]).max())
        for fam in COIN_FAMILIES for i in range(4)
    )
    ok_a = sym_dev < 1e-6

    # (b) p34x1: identical across chirality, maximized at +-pi/2
    x1_tot = np.stack([totals("p34x1", i) for i in range(4)])
    ok_b = float(x1_tot.max(axis=0).max() - x1_tot.min(axis=0).max()) < 1e-9 \
        and float(np.abs(x1_tot - x1_tot[0]).max()) < 1e-9
    spacing = grid[1] - grid[0]
    arg = np.argsort(x1_tot[0])[::-1]
    top = {round(grid[i] / spacing) for i in arg[:4]}
    near_half_pi = {round(th / spacing) for th in
                    (math.pi / 2 - spacing, math.pi / 2, math.pi / 2 + spacing,
                     -math.pi / 2 - spacing, -math.pi / 2, -math.pi / 2 + spacing)}
    ok_b = ok_b and top <= near_half_pi

    # (c) x3: R/L vanish at theta = 0; U/D at the grid ends sit below pi/2
    r0 = pbar_infinity_total("x3", 0.0, "R", quad)
    l0 = pbar_infinity_total("x3", 0.0, "L", quad)
    ud_end = max(totals("x3", 2)[0], totals("x3", 2)[-1],
                 totals("x3", 3)[0], totals("x3", 3)[-1])
    ud_half_pi = min(pbar_infinity_total("x3", math.pi / 2, "U", quad),
                     pbar_infinity_total("x3", math.pi / 2, "D", quad))
    ok_c = max(abs(r0), abs(l0)) < 1e-8 and ud_end < ud_half_pi

    # (d) every Grover-family total stays at or above the 1/8 diagonal
    floor = min(float(totals(fam, i).min()) for fam in GROVER_FAMILIES for i in range(4))
    ok_d = floor >= 0.125 - 1e-12

    ok = ok_a and ok_b and ok_c and ok_d
    _report(5, ok,
            f"figure shapes: symmetry dev {sym_dev:.2e} (tol 1e-6) [{'ok' if ok_a else 'FAIL'}]; "
            f"p34x1 S-degenerate & max at +-pi/2 [{'ok' if ok_b else 'FAIL'}]; "
            f"x3 zeros at 0 ({max(abs(r0), abs(l0)):.1e}) & end<pi/2 [{'ok' if ok_c else 'FAIL'}]; "
            f"Grover floor {floor:.6f} >= 1/8 [{'ok' if ok_d else 'FAIL'}]")


def test_criterion_6_classification_round_trip():
    """1e5 random coins classify and reconstruct within 1e-10; rational
    coins are exactly orthogonal in Fraction arithmetic."""
    rng = np.random.default_rng(99)
    total = 100_000
    chunk = 10_000
    worst = 0.0
    for start in range(0, total, chunk):
        tags = rng.integers(0, len(SET_TAGS), chunk)
        thetas = rng.uniform(-np.pi, np.pi, chunk).astype(complex)
        ncx = chunk // 10
        thetas[:ncx] += 1j * rng.normal(0, 0.4, ncx)
        mats = np.empty((chunk, 4, 4), dtype=complex)
        for t in range(len(SET_TAGS)):
            mask = tags == t
            if mask.any():
                mats[mask] = set_member_from_theta(SET_TAGS[t], thetas[mask])
        errs = classify_batch_errors(mats)
        worst = max(worst, float(errs.max()))
    exact_ok = True
    count_rational = 0
    for tag in SET_TAGS:
        for num in (1, 2, -3, 5, 7):
            for den in (1, 2, 3):
                for zb in (1, -1):
                    c = coin_rational(tag, Fraction(num, den), zb)
                    e = c.exact
                    for i in range(4):
                        for j in range(4):
                            dot = sum(e[k][i] * e[k][j] for k in range(4))
                            exact_ok &= dot == (1 if i == j else 0)
                    count_rational += 1
    ok = worst < 1e-10 and exact_ok
    _report(6, ok,
            f"classification round trip: max reconstruct error {worst:.3e} over "
            f"{total} coins (tol 1e-10); {count_rational} rational coins exactly "
            f"orthogonal: {exact_ok}")


def test_criterion_7_matrix_space_suite():
    """Span decomposition residuals, Prop 2.7 row-sum signs, the exhaustive
    552-pair two-permutation check, and the non-permutative family outputs."""
    rng = np.random.default_rng(5)
    basis = basis_matrices()
    worst_span = 0.0
    for _ in range(200):
        A = np.tensordot(rng.normal(size=10), basis, axes=1)
        dec = decompose_linear_sum(A)
        worst_span = max(worst_span, dec.residual,
                         float(np.abs(dec.reconstruct() - A).max()))
    ok_span = worst_span < 1e-12

    signs_ok = True
    from coinwalk.matspace import BASIS_NAMES
    samples = sample_orthogonal_in_span(BASIS_NAMES, 200, seed=17)
    assert len(samples) > 0
    for A in samples:
        signs_ok &= hadamard_row_sum_check(A, tol=1e-6) in (1, -1)

    rep = two_permutation_check()
    ok_two = rep["pairs"] == 552 and rep["nontrivial_solutions"] == 0

    H = hadamard_matrix()
    worst_off = 0.0
    worst_orth = 0.0
    all_nonperm = True
    for variant, lo, hi in (("c1", -1.0, 1.0 / 3.0), ("c2", -1.0 / 3.0, 1.0)):
        for c2 in np.linspace(lo + 0.05, hi - 0.05, 9):
            for branch in (1, -1):
                M = theorem217_family(variant, float(c2), branch)
                worst_orth = max(worst_orth, float(np.abs(M.T @ M - np.eye(4)).max()))
                B = H @ M @ H
                worst_off = max(worst_off, float(np.abs(B[0, 1:]).max()),
                                float(np.abs(B[1:, 0]).max()),
                                abs(abs(B[0, 0]) - 1.0))
                if abs(c2) > 1e-9 and abs(c2 + 1) > 1e-9 and abs(c2 - 1) > 1e-9:
                    all_nonperm &= not is_permutative(M, 1e-9)
    ok_c = worst_orth < 1e-12 and worst_off < 1e-12 and all_nonperm

    ok = ok_span and signs_ok and ok_two and ok_c
    _report(7, ok,
            f"matrix-space suite: span residual {worst_span:.2e} (tol 1e-12); "
            f"row-sum signs in {{+-1}}: {signs_ok}; 552-pair exhaustive: "
            f"{rep['nontrivial_solutions']} nontrivial; non-permutative family "
            f"orthogonality {worst_orth:.2e} / off-block {worst_off:.2e} (tol 1e-12), "
            f"non-permutative: {all_nonperm}")


def test_criterion_8_group_chains():
    """Every chain group: 1e4 sampled products and transposes re-classify
    into the group; the cross-family pair is the negative control."""
    frac_min = 1.0
    for cid in chain_ids():
        rep = group_closure_sample(cid, 10_000, seed=zlib.crc32(cid.encode()) % 100000)
        frac_min = min(frac_min, rep["fraction"])
    A = np.array([[2, -2, 4, 1], [-2, 2, 1, 4], [4, 1, -2, 2], [1, 4, 2, -2]]) / 5.0
    s2 = math.sqrt(2)
    B = np.array([[s2, 2, -s2, 1], [2, -s2, 1, s2], [-s2, 1, s2, 2], [1, s2, 2, -s2]]) / 3.0
    neg_ok = (is_orthogonal(A @ B, 1e-12) and not is_permutative(A @ B, 1e-6)
              and is_permutative(A, 1e-12) and is_permutative(B, 1e-12))
    ok = frac_min == 1.0 and neg_ok
    _report(8, ok,
            f"group chains: min in-chain fraction {frac_min} over {len(chain_ids())} "
            f"groups x 1e4 samples (need 1.0); cross-family negative control "
            f"non-permutative: {neg_ok}")
