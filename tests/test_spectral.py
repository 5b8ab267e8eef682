import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk.coins import COIN_FAMILIES, coin_from_theta, grover_coin, set_member_from_theta
from coinwalk.localization import QuadratureSpec
from coinwalk.spectral import (
    _DEGEN_TOL,
    _FACTORS,
    _RESID_TOL,
    _cluster_circle,
    _dense_eig,
    _eigensystem,
    _group_sums,
    _phases,
    build_block,
    c_coefficient,
    closed_form_eigenvalues,
    coefficient_rows,
    coin_eigensystem,
    finite_N_pbar,
    finite_N_pbar_matrix,
    omega_class,
    reconstruct_state,
    spectrum_rows,
)
from coinwalk.walk import (
    CHIRALITIES,
    evolve,
    initial_state,
    time_averaged_chirality_profile,
)

from c_table_oracle import c_table_p24y1

THETAS = (-2.8, -1.571, -0.9, 0.0, 0.33, 1.571, 2.6)


def test_block_zero_zero_is_coin():
    c = coin_from_theta("p24y1", 0.7)
    blk = build_block(c, 0, 0, 5)
    assert np.abs(blk.matrix - c.entries).max() < 1e-15
    lams = sorted(blk.eigenvalues, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert lams[0] == pytest.approx(-1)
    # lam3, lam4 are a conjugate pair
    assert blk.eigenvalues[2] == pytest.approx(np.conj(blk.eigenvalues[3]))


@pytest.mark.parametrize("family", COIN_FAMILIES)
def test_char_poly_structure(family):
    # det(lam I - U) = lam^4 - K lam^3 + K lam - 1 for a momentum-dependent K
    for theta in (0.7, -2.1):
        c = coin_from_theta(family, theta)
        for (n, m, N) in [(1, 2, 5), (0, 3, 7), (2, 2, 5)]:
            U = build_block(c, n, m, N).matrix
            coeffs = np.poly(U)
            assert coeffs[2] == pytest.approx(0.0, abs=1e-12)      # lam^2 term
            assert coeffs[4] == pytest.approx(-1.0, abs=1e-12)     # constant
            assert coeffs[1] == pytest.approx(-coeffs[3], abs=1e-12)


def test_p24y1_cubic_coefficient_matches_momentum_sum():
    theta, n, m, N = 0.9, 1, 3, 7
    U = build_block(coin_from_theta("p24y1", theta), n, m, N).matrix
    zn, zm = 2 * np.pi * n / N, 2 * np.pi * m / N
    want = np.sin(theta) * (np.cos(zn) + np.cos(zm))
    assert np.poly(U)[1] == pytest.approx(-want, abs=1e-12)


def test_sin_zero_gives_pm_i_pair():
    lams = build_block(coin_from_theta("p24y1", 0.0), 1, 2, 5).eigenvalues
    assert lams[2] == pytest.approx(-1j)
    assert lams[3] == pytest.approx(1j)


@pytest.mark.parametrize("family", COIN_FAMILIES)
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("N", [3, 5, 9])
def test_eigensystem_residuals_and_unimodularity(family, theta, N):
    c = coin_from_theta(family, theta)
    lams, vecs, fb, U = coin_eigensystem(c, N)
    assert np.abs(np.abs(lams) - 1).max() < 1e-12
    Uv = np.einsum("nmij,nmkj->nmki", U, vecs)
    resid = np.linalg.norm(Uv - lams[..., None] * vecs, axis=-1)
    assert resid.max() < 1e-10
    norms = np.linalg.norm(vecs, axis=-1)
    assert np.abs(norms - 1).max() < 1e-12
    dets = np.linalg.det(U)
    assert np.abs(lams.prod(axis=-1) - dets).max() < 1e-10


def _haar_unitary(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("coin,N", [
    *(pytest.param(coin_from_theta(f, -1.2), 5, id=f) for f in COIN_FAMILIES),
    *(pytest.param(coin_from_theta(f, 0.7), N, id=f"{f}-0.7-N{N}")
      for f in COIN_FAMILIES for N in (3, 5)),
    pytest.param(grover_coin().entries, 9, id="grover_raw"),
    pytest.param(coin_from_theta("x3", 0.4).entries, 9, id="x3_raw-0.4"),
    pytest.param(_haar_unitary(2021), 9, id="haar"),
])
def test_within_block_orthogonality(coin, N):
    # the plane waves are orthonormal, so the 4N^2 eigenvectors of the
    # evolution operator are orthonormal exactly when each block's are
    vecs = coin_eigensystem(coin, N)[1]
    gram = np.einsum("nmki,nmli->nmkl", np.conj(vecs), vecs)
    assert np.abs(gram - np.eye(4)).max() < 1e-10


def test_grover_point_triple_degeneracy_handled():
    c = coin_from_theta("p24y1", -math.pi / 2)
    blk = build_block(c, 0, 0, 5)
    assert blk.fallback
    lams = np.sort_complex(np.round(blk.eigenvalues, 9))
    assert list(lams) == [-1, -1, -1, 1]
    assert blk.residual() < 1e-10


def test_closed_vs_numeric_spectra_agree():
    rng = np.random.default_rng(5)
    for family in COIN_FAMILIES:
        for _ in range(10):
            theta = rng.uniform(-3.1, 3.1)
            N = int(rng.choice([3, 5, 7]))
            n, m = rng.integers(0, N, 2)
            c = coin_from_theta(family, theta)
            blk = build_block(c, n, m, N)
            numeric = np.linalg.eigvals(blk.matrix)
            dist = max(min(abs(numeric - lam)) for lam in blk.eigenvalues)
            assert dist < 1e-10


def test_omega_class_examples():
    assert set(omega_class(1, 0, 5).members) == {(1, 0), (0, 1), (4, 0), (0, 4)}
    assert set(omega_class(1, 2, 5).members) == {
        (1, 2), (1, 3), (4, 2), (4, 3), (2, 1), (2, 4), (3, 1), (3, 4)}
    assert set(omega_class(2, 2, 5).members) == {(2, 2), (2, 3), (3, 2), (3, 3)}
    assert omega_class(0, 0, 5).members == ((0, 0),)
    assert len(omega_class(1, 2, 5, symmetric=False).members) == 4
    assert set(omega_class(1, 0, 5, symmetric=False).members) == {(1, 0), (4, 0)}


def test_omega_class_sizes():
    for N in (5, 9):
        half = (N - 1) // 2
        for n in range(half + 1):
            for m in range(n, half + 1):
                size = len(omega_class(n, m, N).members)
                if (n, m) == (0, 0):
                    assert size == 1
                elif n == 0 or n == m:
                    assert size == 4
                else:
                    assert size == 8


@pytest.mark.parametrize("family", COIN_FAMILIES)
def test_spectrum_equal_across_class(family):
    c = coin_from_theta(family, 1.05)
    N = 7
    lams, _, _, _ = coin_eigensystem(c, N)
    for (n, m) in [(1, 0), (1, 2), (2, 2), (0, 3)]:
        cls = omega_class(min(n, m) if family == "x3" else n, m, N,
                          symmetric=(family != "x3"))
        if family == "x3":
            cls = omega_class(n, m, N, symmetric=False)
        ref = np.sort_complex(np.round(lams[cls.representative], 9))
        for nn, mm in cls.members:
            got = np.sort_complex(np.round(lams[nn, mm], 9))
            assert np.abs(got - ref).max() < 1e-12


def test_c_diagonal_is_two_for_p24y1():
    c = coin_from_theta("p24y1", 0.77)
    for S in CHIRALITIES:
        for k in (1, 2):
            val = c_coefficient(c, S, S, 1, 2, k, N=7)
            assert val == pytest.approx(2.0, abs=1e-12)


def test_c_table_matches_eigenvector_path():
    rng = np.random.default_rng(42)
    for _ in range(60):
        N = int(rng.choice([5, 7, 11, 15]))
        half = (N - 1) // 2
        n = int(rng.integers(1, half))
        m = int(rng.integers(n + 1, half + 1))
        theta = float(rng.uniform(-3.1, 3.1))
        k = int(rng.integers(1, 3))
        a, b = rng.integers(1, 5, 2)
        c = coin_from_theta("p24y1", theta)
        got = c_coefficient(c, CHIRALITIES[a - 1], CHIRALITIES[b - 1], n, m, k, N=N)
        zn, zm = 2 * np.pi * n / N, 2 * np.pi * m / N
        want = c_table_p24y1(a, b, k, theta, zn, zm)
        assert abs(got - complex(want)) < 1e-8


def test_c_table_theta_zero_example():
    # with sin(theta) = 0 the {1,2} class-1 entry reduces to -(cos zn + cos zm)
    zn, zm = 0.6, 2.0
    val = c_table_p24y1(1, 2, 1, 0.0, zn, zm)
    assert val == pytest.approx(-(np.cos(zn) + np.cos(zm)))


@pytest.mark.parametrize("family,theta", [("p24y1", 0.7), ("p24y1", -2.1),
                                          ("x3", 0.7), ("x3", -2.1)])
@pytest.mark.parametrize("N", [3, 5])
def test_spectral_reconstruction_matches_evolution(family, theta, N):
    c = coin_from_theta(family, theta)
    for S in ("R", "U"):
        s0 = initial_state(N, S)
        for t in (1, 7, 50):
            direct = evolve(s0, c, t)
            rec = reconstruct_state(c, N, S, t)
            assert np.abs(direct.amps - rec.amps).max() < 1e-8


@pytest.mark.parametrize("family,theta", [("p24y1", 0.7), ("x3", -2.1)])
def test_finite_N_pbar_matches_time_average(family, theta):
    N, T = 3, 4000
    c = coin_from_theta(family, theta)
    emp = time_averaged_chirality_profile(c, N, "R", T)
    pm = finite_N_pbar_matrix(c, N)[:, 0]
    assert np.abs(emp - pm).max() < 5.0 / T


def test_finite_N_pbar_n3_hand_enumeration():
    # N = 3 has representatives (0,0), (1,0), (1,1) only; the full
    # eigenvalue-grouped sum must agree with direct enumeration over all
    # nine blocks
    theta = 0.7
    c = coin_from_theta("p24y1", theta)
    lams, vecs, _, _ = coin_eigensystem(c, 3)
    groups = {}
    for n in range(3):
        for m in range(3):
            for k in range(4):
                key = (round(lams[n, m, k].real, 9), round(lams[n, m, k].imag, 9))
                w = vecs[n, m, k, 0] * np.conj(vecs[n, m, k, 0])
                groups[key] = groups.get(key, 0) + w
    by_hand = sum(abs(v) ** 2 for v in groups.values()) / 3**4
    assert finite_N_pbar(c, "R", "R", 3) == pytest.approx(by_hand, abs=1e-14)


def test_finite_N_pbar_grows_toward_eighth():
    c = coin_from_theta("p24y1", 1.0)
    vals = [finite_N_pbar(c, "R", "R", N) for N in (5, 11, 21, 41)]
    diffs = [abs(v - 0.125) for v in vals]
    assert diffs == sorted(diffs, reverse=True)
    assert diffs[-1] < 0.02


def test_spectrum_rows_shape():
    rows = list(spectrum_rows(coin_from_theta("p34x1", 0.4), 3))
    assert len(rows) == 36
    n, m, k, re, im = rows[0]
    assert (n, m, k) == (0, 0, 1)
    assert re == pytest.approx(-1.0)
    assert im == pytest.approx(0.0)


def test_raw_coin_numeric_path():
    g = grover_coin().entries  # pass the bare array: treated as raw
    lams, vecs, fb, U = coin_eigensystem(g, 3)
    assert fb.all()
    Uv = np.einsum("nmij,nmkj->nmki", U, vecs)
    resid = np.linalg.norm(Uv - lams[..., None] * vecs, axis=-1)
    assert resid.max() < 1e-10


def _parallel(u, v, tol=1e-9):
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    i = int(np.argmax(np.abs(v)))
    return np.abs(u * v[i] - v * u[i]).max() <= tol * np.abs(v).max() * np.abs(u).max()


def test_p24y1_edge_vectors_match_published_special_case():
    # explicit n > 0, m = 0 eigenvectors for the +-1 branches:
    # [ (1+c+s) w^-n / ((1+c) w^-n + s), -(1+c+s)/((1+c) w^-n + s), 1, -1 ]
    # for k = 1 and the sign-flipped variant with last entry +1 for k = 2
    for theta in (0.6, -1.9, 2.4):
        s, c = np.sin(theta), np.cos(theta)
        for N, n in [(5, 1), (7, 3), (9, 2)]:
            wn = np.exp(2j * np.pi * n / N)
            blk = build_block(coin_from_theta("p24y1", theta), n, 0, N)
            lam1, lam2 = blk.eigenvalues[:2]
            v1, v2 = blk.eigenvectors[:2]
            assert lam1 == -1 and lam2 == 1
            den_p = (1 + c) / wn + s
            ref1 = np.array([(1 + c + s) / wn / den_p, -(1 + c + s) / den_p, 1, -1])
            den_m = (1 + c) / wn - s
            ref2 = np.array([(1 + c - s) / wn / den_m, (1 + c - s) / den_m, 1, 1])
            assert _parallel(v1, ref1)
            assert _parallel(v2, ref2)


def test_p24y1_interior_vectors_match_published_pm_one_branches():
    # the n, m > 0 vectors for lambda = -+1:
    # [ (1+c +- s w^m) w^-n / ((1+c) w^-n +- s), -+(1+c +- s w^m)/((1+c) w^-n +- s), 1, -+w^m ]
    theta, N, n, m = (1.1, 7, 2, 4)
    s, c = np.sin(theta), np.cos(theta)
    wn, wm = np.exp(2j * np.pi * n / N), np.exp(2j * np.pi * m / N)
    v1, v2 = build_block(coin_from_theta("p24y1", theta), n, m, N).eigenvectors[:2]
    ref1 = np.array([(1 + c + s * wm) / wn / ((1 + c) / wn + s),
                     -(1 + c + s * wm) / ((1 + c) / wn + s), 1, -wm])
    ref2 = np.array([(1 + c - s * wm) / wn / ((1 + c) / wn - s),
                     (1 + c - s * wm) / ((1 + c) / wn - s), 1, wm])
    assert _parallel(v1, ref1)
    assert _parallel(v2, ref2)


def _factor_residuals(family, theta, zn, zm):
    """Relative residuals |U v - lam v| / |v| of v = px * qy at the momentum
    pairs (zn, zm), one row per flat branch lam = -1, +1."""
    C = coin_from_theta(family, theta).entries
    wn, wm = np.exp(1j * zn), np.exp(1j * zm)
    U = np.stack([1 / wn, wn, 1 / wm, wm], axis=-1)[:, :, None] * C
    out = []
    for lam in (-1.0, 1.0):
        px, qy = _FACTORS[family](theta, lam, wn, wm)
        v = (px * qy).T
        r = np.einsum("bij,bj->bi", U, v) - lam * v
        out.append(np.linalg.norm(r, axis=1) / np.linalg.norm(v, axis=1))
    return np.array(out)


@pytest.mark.parametrize("family", COIN_FAMILIES)
def test_factors_are_eigenvectors_off_grid(family):
    # the one factor table serves both the finite-N grid and localization's
    # quadrature nodes; check it at those nodes, with both momentum signs,
    # and at seeded momenta on no grid. The factors divide by nothing, so
    # the residual stays at rounding at theta = +-pi/2 too
    rng = np.random.default_rng(21)
    seeded = rng.uniform(-np.pi, np.pi, (2, 200))
    x = QuadratureSpec(64).nodes()
    zn, zm = np.concatenate([x, -x, seeded[0]]), np.concatenate([x[::-1], x, seeded[1]])
    half = np.pi / 2
    for theta in (-2.8, -0.9, 0.0, 1e-9, 0.33, 1.2, 2.6, 3.1, -1.571, 1.571,
                  half, -half, np.nextafter(half, 0)):
        assert _factor_residuals(family, theta, zn, zm).max() < 1e-15


def test_x3_eigen_angle_relation():
    # the rotating branch satisfies 2 cos(angle) = (1+cos t) cos zn
    # + (1-cos t) cos zm; at cos t = 0 and n = m this is cos zn itself
    for N, n in [(5, 1), (7, 3)]:
        zn = 2 * np.pi * n / N
        lam3 = build_block(coin_from_theta("x3", np.pi / 2), n, n, N).eigenvalues[2]
        assert lam3.real == pytest.approx(np.cos(zn), abs=1e-12)
        assert abs(lam3) == pytest.approx(1.0, abs=1e-12)


def test_p34x1_vectors_match_published_formula():
    # the published x1-family eigenvector (which survives verification as
    # printed, unlike its z1 sibling):
    # [ (s-(1-c)L/wn)/((1-c)-sLwm) * ((1+c)-Lswm)/(s-(1+c)Lwn), 1,
    #   -(s-(1-c)L/wn)/((1-c)-Lswm), -(s-(1+c)L/wn)/((1+c)-Ls/wm) ]
    rng = np.random.default_rng(8)
    for _ in range(25):
        theta = float(rng.uniform(-2.9, 2.9))
        if abs(theta) < 0.05:
            continue  # the printed form is 0/0 at sin(theta)=0; ours is not
        N = int(rng.choice([5, 7, 9]))
        n, m = (int(v) for v in rng.integers(1, N, 2))
        s, c = np.sin(theta), np.cos(theta)
        wn, wm = np.exp(2j * np.pi * n / N), np.exp(2j * np.pi * m / N)
        blk = build_block(coin_from_theta("p34x1", theta), n, m, N)
        for k, (lam, v) in enumerate(zip(blk.eigenvalues, blk.eigenvectors), 1):
            r1 = (s - (1 - c) * lam / wn) / ((1 - c) - s * lam * wm)
            ref = np.array([
                r1 * ((1 + c) - lam * s * wm) / (s - (1 + c) * lam * wn),
                1.0,
                -r1,
                -(s - (1 + c) * lam / wn) / ((1 + c) - lam * s / wm),
            ])
            if not np.isfinite(ref).all():
                continue
            assert _parallel(v, ref, 1e-8), (theta, N, n, m, k)


@pytest.mark.parametrize("family,theta,S,t", [("p24y1", 0.7, "R", 30), ("x3", -2.1, "U", 30),
                                              ("p34x1", 1.3, "L", 60)])
def test_reconstruction_matches_evolution_at_N201(family, theta, S, t):
    # the inverse FFT keeps the reconstruction within a few ulp of the direct
    # walk on a large lattice
    c = coin_from_theta(family, theta)
    d = evolve(initial_state(201, S), c, t)
    assert np.abs(d.amps - reconstruct_state(c, 201, S, t).amps).max() < 2e-15


@pytest.mark.parametrize("family", ["p34x1", "p23z1"])
def test_reconstruction_other_families(family):
    from coinwalk.walk import evolve, initial_state
    c = coin_from_theta(family, -0.9)
    for N in (3, 5):
        for t in (1, 9):
            d = evolve(initial_state(N, "L"), c, t)
            r = reconstruct_state(c, N, "L", t)
            assert np.abs(d.amps - r.amps).max() < 1e-12


def test_grover_point_projector_equality():
    # at the Grover coin the (0,0) block has the triple eigenvalue -1; the
    # orthonormalized basis is arbitrary but its projector is not: it must
    # equal I - uu^T with u the normalized all-ones vector (the +1 branch)
    blk = build_block(coin_from_theta("p24y1", -math.pi / 2), 0, 0, 5)
    groups = {}
    for lam, v in zip(blk.eigenvalues, blk.eigenvectors):
        key = round(lam.real, 9), round(lam.imag, 9)
        groups.setdefault(key, []).append(v)
    proj_minus = sum(np.outer(v, np.conj(v)) for v in groups[(-1.0, 0.0)])
    u = np.full(4, 0.5)
    assert np.abs(proj_minus - (np.eye(4) - np.outer(u, u))).max() < 1e-10
    proj_plus = sum(np.outer(v, np.conj(v)) for v in groups[(1.0, 0.0)])
    assert np.abs(proj_plus - np.outer(u, u)).max() < 1e-10


def test_complex_orthogonal_raw_coin_rejected():
    # the raw-coin path clusters eigenvalues on the unit circle, which a
    # complex-orthogonal but non-unitary coin leaves
    a = set_member_from_theta("x3", 0.7 + 0.5j)
    with pytest.raises(ValueError, match="unitary"):
        finite_N_pbar_matrix(a, 5)


def test_spectral_takes_the_coins_the_walk_takes():
    # coin_eigensystem asks walk._walk_coin, so every spectral consumer
    # rejects what the walk rejects, with the walk's message
    deg = coin_from_theta("p24y1", math.pi)
    calls = (lambda: coin_eigensystem(deg, 5), lambda: finite_N_pbar_matrix(deg, 5),
             lambda: reconstruct_state(deg, 5, "R", 2), lambda: list(spectrum_rows(deg, 5)),
             lambda: list(coefficient_rows(deg, 5)),
             lambda: c_coefficient(deg, "R", "R", 0, 0, 1, 5))
    for call in calls:
        with pytest.raises(ValueError, match=r"walk evolution excludes the degenerate theta = \+-pi"):
            call()
    for raw in (np.eye(3), np.arange(16.0), np.eye(4)[None]):
        with pytest.raises(ValueError, match="coin must be 4x4"):
            coin_eigensystem(raw, 5)


@pytest.mark.parametrize("N", [4, 0, 1, -3, 5.9, 5.0, True, "5"])
def test_spectral_rejects_lattices_the_walk_rejects(N):
    # every spectral consumer reads coin_eigensystem, which checks the side
    # before the cache lookup, on both the closed-form and the raw-coin path
    c = coin_from_theta("p24y1", 0.7)
    msg = f"lattice side must be odd and >= 3, got {N}"
    with pytest.raises(ValueError, match=msg):
        initial_state(N, "R")
    for coin in (c, c.entries):
        with pytest.raises(ValueError, match=msg):
            coin_eigensystem(coin, N)
    with pytest.raises(ValueError, match=msg):
        reconstruct_state(c, N, "R", 3)
    with pytest.raises(ValueError, match=msg):
        list(spectrum_rows(c, N))
    with pytest.raises(ValueError, match=msg):
        finite_N_pbar_matrix(c, N)


# ---------------------------------------------------------------------------
# the batched dense eigensolve against a per-block oracle

_ORACLE_TOL = 1e-9


def _oracle_block(U, target_lams):
    """Dense eigensolve of one 4x4 block, one block at a time: greedy
    matching onto target_lams group by group, QR inside each degenerate
    group, first entry above 1e-8 made real positive. Without targets the
    eigenvalues are sorted by angle in (-pi, pi], -pi + 1e-9 and below
    counting as +pi."""
    lam, V = np.linalg.eig(U)
    if target_lams is None:
        ang = np.array([np.pi if a <= -np.pi + 1e-9 else a for a in np.angle(lam)])
        order = np.lexsort((np.round(lam.imag, 9), np.round(ang, 9)))
        lam, V = lam[order], V[:, order]
        target_lams = lam
    groups = []
    for k in range(4):
        for g in groups:
            if abs(target_lams[k] - target_lams[g[0]]) < _ORACLE_TOL:
                g.append(k)
                break
        else:
            groups.append([k])
    out = np.zeros((4, 4), dtype=complex)
    used = np.zeros(4, dtype=bool)
    for g in groups:
        cols = []
        for k in g:
            d = np.abs(lam - target_lams[k])
            d[used] = np.inf
            j = int(np.argmin(d))
            used[j] = True
            cols.append(j)
        Vg = V[:, cols]
        if len(g) > 1:
            Vg, _ = np.linalg.qr(Vg)
        for i, k in enumerate(g):
            v = Vg[:, i]
            idx = np.argmax(np.abs(v) > 1e-8)
            out[k] = v / (v[idx] / abs(v[idx]))
    return np.asarray(target_lams), out


def _oracle_labels(lams, tol=_ORACLE_TOL):
    """Circular clustering walked one eigenvalue at a time."""
    order = np.argsort(np.angle(lams), kind="stable")
    labels = np.empty(len(lams), dtype=int)
    current = -1
    prev = None
    for idx in order:
        if prev is None or abs(lams[idx] - prev) > tol:
            current += 1
        labels[idx] = current
        prev = lams[idx]
    if current > 0 and abs(lams[order[0]] - lams[order[-1]]) <= tol:
        labels[labels == labels[order[-1]]] = labels[order[0]]
    return labels


def _assert_matches_oracle(lams, vecs, U, blocks, targets=None):
    for n, m in blocks:
        want_l, want_v = _oracle_block(U[n, m], None if targets is None else targets[n, m])
        assert np.array_equal(lams[n, m], want_l), (n, m)
        assert np.abs(vecs[n, m] - want_v).max() < 1e-14, (n, m)


@pytest.mark.parametrize("name", ["haar", "grover", "x3"])
def test_raw_eigensystem_matches_per_block_oracle(name):
    C = {"haar": _haar_unitary(2021), "grover": grover_coin().entries,
         "x3": np.array(coin_from_theta("x3", 0.7).entries)}[name]
    N = 15
    lams, vecs, fb, U = coin_eigensystem(C, N)
    assert fb.all()
    _assert_matches_oracle(lams, vecs, U, np.ndindex(N, N))
    flat = lams.reshape(-1)
    assert np.array_equal(_cluster_circle(flat), _oracle_labels(flat))


@pytest.mark.parametrize("family,theta,N", [("x3", 0.4, 101), ("p24y1", -math.pi / 2, 15)])
def test_fallback_blocks_match_per_block_oracle(family, theta, N):
    lams, vecs, fb, U = coin_eigensystem(coin_from_theta(family, theta), N)
    assert fb.any() and not fb.all()
    z = 2 * np.pi * np.arange(N) / N
    ZN, ZM = np.meshgrid(z, z, indexing="ij")
    targets = closed_form_eigenvalues(family, theta, ZN, ZM)
    _assert_matches_oracle(lams, vecs, U, zip(*np.nonzero(fb)), targets)
    flat = lams.reshape(-1)
    assert np.array_equal(_cluster_circle(flat), _oracle_labels(flat))


def test_dense_eig_matches_oracle_in_group_order():
    # targets 0 and 2 form one group, so target 2 is matched before target
    # 1; in index order target 1 would take the eigenvalue at 1.5e-9 instead
    U = np.diag(np.exp(1j * np.array([0.0, 1.5e-9, 5e-9, 2.0])))
    targets = np.exp(1j * np.array([0.0, 2e-9, 0.9e-9, 2.0]))
    lams, vecs = _dense_eig(U[None], targets[None])
    want_l, want_v = _oracle_block(U, targets)
    assert np.array_equal(lams[0], want_l)
    assert np.abs(vecs[0] - want_v).max() < 1e-14
    assert np.abs(vecs[0, 1]).argmax() == 2


def test_cluster_labels_match_oracle_with_wraparound_merge():
    rng = np.random.default_rng(17)
    grid = np.linspace(-np.pi, np.pi, 13)                 # both +-pi present
    for _ in range(30):
        n = int(rng.integers(2, 300))
        ang = rng.choice(grid, n) + rng.choice([0.0, 1e-11, -1e-11], n)
        lams = np.exp(1j * ang)
        assert np.array_equal(_cluster_circle(lams), _oracle_labels(lams))
    # the two ends of the angle order are one eigenvalue: the last group
    # takes the first label
    lams = np.exp(1j * np.array([np.pi - 1e-12, 0.5, -np.pi + 1e-12, 0.5]))
    labels = _cluster_circle(lams)
    assert np.array_equal(labels, _oracle_labels(lams))
    assert labels[0] == labels[2] == 0 and labels[1] == labels[3] == 1


@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5, 7]),
       st.integers(0, 20), st.sampled_from(CHIRALITIES))
@settings(max_examples=40, deadline=None)
def test_raw_coin_reconstruction_matches_evolution(seed, N, t, S):
    C = _haar_unitary(seed)
    direct = evolve(initial_state(N, S), C, t)
    rec = reconstruct_state(C, N, S, t)
    assert np.abs(direct.amps - rec.amps).max() < 1e-10


@pytest.mark.parametrize("coin", ["p24y1", "x3", "grover_raw", "x3_raw"])
def test_class_sums_equal_member_loop(coin):
    # the member-by-member scalar sum, independent of the grouped kernel
    C = {"p24y1": coin_from_theta("p24y1", 0.9), "x3": coin_from_theta("x3", 0.4),
         "grover_raw": grover_coin().entries,
         "x3_raw": coin_from_theta("x3", 0.4).entries}[coin]
    N = 9
    v = coin_eigensystem(C, N)[1]
    rows = list(coefficient_rows(C, N))
    x3 = coin.startswith("x3")
    for S, Sp, n, m, k, re, im in rows:
        cls = omega_class(n, m, N, symmetric=not x3)
        a, b = CHIRALITIES.index(Sp), CHIRALITIES.index(S)
        want = complex(sum(v[nn, mm, k - 1, a] * np.conj(v[nn, mm, k - 1, b])
                           for nn, mm in cls.members))
        assert (re, im) == (want.real, want.imag)
        assert c_coefficient(C, Sp, S, n, m, k, N) == want
    assert len(rows) == 16 * 4 * (25 if x3 else 15)


@pytest.mark.parametrize("raw", [False, True], ids=["coin", "raw"])
@pytest.mark.parametrize("family", COIN_FAMILIES)
def test_c_coefficient_is_its_coefficient_rows_entry(family, raw):
    # both read one class-sum routine: every class and every k, bit for bit,
    # with the (S', S) pair cycling through all 16
    coin = coin_from_theta(family, 0.7)
    C = coin.entries if raw else coin
    N = 9
    rows = {row[:5]: row[5:] for row in coefficient_rows(C, N)}
    classes = sorted({key[2:] for key in rows})
    assert len(classes) == 4 * (25 if family == "x3" else 15)
    for i, (n, m, k) in enumerate(classes):
        S, Sp = CHIRALITIES[i % 4], CHIRALITIES[i // 4 % 4]
        c = c_coefficient(C, Sp, S, n, m, k, N)
        assert np.array([c.real, c.imag]).tobytes() == np.array(rows[S, Sp, n, m, k]).tobytes()


@pytest.mark.parametrize("family, theta", [("x3", 0.4), ("p24y1", -math.pi / 2)])
def test_raw_coin_folds_like_its_family(family, theta):
    # a raw coin folds n <-> m only when its block spectra are symmetric:
    # the raw x3 array keeps the axes apart, the raw Grover array folds
    coin = coin_from_theta(family, theta)
    N = 9

    def reps(C):
        return [row[:5] for row in coefficient_rows(C, N)]

    assert reps(coin.entries) == reps(coin)


@pytest.mark.parametrize("coin", ["grover_raw", "x3", "x3_raw"])
def test_coefficient_rows_one_eigensystem(monkeypatch, coin):
    import coinwalk.spectral as spectral_mod
    C = {"grover_raw": grover_coin().entries, "x3": coin_from_theta("x3", 0.4),
         "x3_raw": coin_from_theta("x3", 0.4).entries}[coin]
    N = 9
    want = []
    for S, Sp, n, m, k, _, _ in spectral_mod.coefficient_rows(C, N):
        c = spectral_mod.c_coefficient(C, Sp, S, n, m, k, N)
        want.append((S, Sp, n, m, k, float(c.real), float(c.imag)))
    calls = []
    real = spectral_mod.coin_eigensystem
    monkeypatch.setattr(spectral_mod, "coin_eigensystem",
                        lambda *a: calls.append(1) or real(*a))
    assert list(spectral_mod.coefficient_rows(C, N)) == want
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the bincount group sums against the einsum route they replaced: equal bit
# for bit, signed zeros included


def _einsum_group_sums(vecs, labels, G):
    w = np.einsum("b...a,b...c->b...ac", vecs, np.conj(vecs))
    sums = np.zeros((G,) + w.shape[1:], dtype=complex)
    np.add.at(sums, labels, w)
    return sums


def _assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


@pytest.mark.parametrize("inner", [(), (4,), (1,)])
def test_group_sums_match_einsum_add_at(inner):
    rng = np.random.default_rng(170)
    B = 60
    shape = (B,) + inner + (4,)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # mixed signs, zero real or imaginary parts, and a group of real vectors
    v.real[rng.random(shape) < 0.2] = 0.0
    v.imag[rng.random(shape) < 0.2] = 0.0
    v.real[rng.random(shape) < 0.1] = -0.0
    labels = rng.integers(0, 6, B)
    labels[:3] = 7                  # one group of three real vectors
    v[:3] = v[:3].real
    labels[3] = 9                   # a single-member group
    G = 12                          # groups 6, 8, 10 and 11 are empty
    _assert_bits_equal(_group_sums(v, labels, G), _einsum_group_sums(v, labels, G))


def _meshgrid_blocks(C, N):
    w = np.exp(2j * np.pi * np.arange(N) / N)
    WN, WM = np.meshgrid(w, w, indexing="ij")
    return np.stack([1 / WN, WN, 1 / WM, WM], axis=-1)[..., :, None] * C


def _einsum_pbar_matrix(lams, vecs, N):
    labels = _cluster_circle(lams.reshape(-1))
    sums = _einsum_group_sums(vecs.reshape(-1, 4), labels, labels.max() + 1)
    return (np.abs(sums) ** 2).sum(axis=0) / N**4


def _block_residuals(lams, vecs, U):
    """max over k of |U v_k - lam_k v_k|, (N, N)."""
    r = np.einsum("nmij,nmkj->nmki", U, vecs) - lams[..., None] * vecs
    return np.linalg.norm(r, axis=-1).max(axis=-1)


def _assert_mirrored(vecs, bad):
    """Row N - n is row n at m -> N - m: the fallback mask equal, and each
    closed-form block conj(source) in k order 1, 2, 4, 3, bit for bit."""
    N = len(bad)
    half = (N - 1) // 2
    source = (slice(half, 0, -1), -np.arange(N) % N)
    assert np.array_equal(bad[half + 1:], bad[source])
    closed = ~bad[half + 1:]
    _assert_bits_equal(vecs[half + 1:][closed],
                       vecs[source][:, :, [0, 1, 3, 2]].conj()[closed])


def _eig_projector_errors(lams, vecs, U):
    """Per eigenpair (N, N, 4): the largest entry of v v^H - w w^H, with w
    the np.linalg.eig vector of the block whose eigenvalue is nearest
    lams[n, m, k], and the gap from lams[n, m, k] to the block's others."""
    ev, V = np.linalg.eig(U)
    j = np.abs(lams[..., :, None] - ev[..., None, :]).argmin(axis=-1)
    w = np.swapaxes(np.take_along_axis(V, j[..., None, :], -1), -1, -2)
    err = np.abs(vecs[..., :, None] * vecs[..., None, :].conj()
                 - w[..., :, None] * w[..., None, :].conj()).max(axis=(-2, -1))
    gap = np.abs(lams[..., :, None] - lams[..., None, :]) + 9 * np.eye(4)
    return err, gap.min(axis=-1)


@pytest.mark.parametrize("family", COIN_FAMILIES)
@pytest.mark.parametrize("theta", [1.5707, -1.5707, 0.4, -1.285, 1.83])
def test_eigensystem_and_pbar_match_einsum_route(family, theta):
    # the blocks, the closed-form eigenvalues, the mirror and the bincount
    # group sums are bit for bit those of the direct full-grid route. The
    # vectors, the deflated k = 3, 4 included, span the eigenspaces of a
    # per-block np.linalg.eig: |v v^H - w w^H| <= 1e-14 / gap on every block
    # whose eigenvalue gaps all exceed 1e-6 (measured worst 1.8e-15 / gap;
    # the gap falls to 9.6e-5 at theta = +-1.5707)
    for N in (5, 51):
        coin = coin_from_theta(family, theta)
        lams, vecs, bad, U = coin_eigensystem(coin, N)
        assert np.array_equal(U, _meshgrid_blocks(coin.entries, N))
        z = 2 * np.pi * np.arange(N) / N
        assert np.array_equal(lams, closed_form_eigenvalues(family, theta, z[:, None],
                                                            z[None, :]))
        _assert_mirrored(vecs, bad)
        err, gap = _eig_projector_errors(lams, vecs, U)
        wide = gap.min(axis=-1) > 1e-6
        assert (err * np.minimum(gap, 1.0))[wide].max() <= 1e-14
        if family == "x3":
            assert bad.any()
        _assert_bits_equal(finite_N_pbar_matrix(coin, N), _einsum_pbar_matrix(lams, vecs, N))


# a real coin's block at (N - n, N - m) is the conjugate of its block at
# (n, m): coin_eigensystem solves rows n <= (N - 1)/2 and mirrors them
@pytest.mark.parametrize("family", COIN_FAMILIES)
@pytest.mark.parametrize("theta", [0.0, 1e-9, 0.4, 0.7, -2.1, 1.5707, -1.5707,
                                   1.5708, -1.5708, 2.99, -2.99, 3.1])
def test_mirrored_rows_are_conjugate_blocks(family, theta):
    for N in (3, 5, 51, 201):
        lams, vecs, bad, U = coin_eigensystem(coin_from_theta(family, theta), N)
        _assert_mirrored(vecs, bad)
        # fallback blocks included, as perfbench's RESIDUAL_TOL bounds them:
        # their eigenvalues are the accurate closed forms, solved by
        # _dense_eig to rounding
        assert _block_residuals(lams, vecs, U).max() <= _RESID_TOL


_EIG_THETAS = (1e-9, -1e-9, 1e-6, -1e-6, 1e-3, 0.7, 1.5707, -1.5707, 1.5708, -1.5708,
               2.99, 3.1)


def _oracle_eigenvalues(U):
    """np.linalg.eig eigenvalues, each refined to the Rayleigh quotient of
    its own vector: on their own they are off by up to 5.8e-15 at the exact
    lambda = +-1 (p24y1, theta 1e-9, N 51), the refined ones by 8.1e-16."""
    _, V = np.linalg.eig(U)
    return (V.conj() * (U @ V)).sum(axis=-2) / (np.abs(V) ** 2).sum(axis=-2)


@pytest.mark.parametrize("family", COIN_FAMILIES)
@pytest.mark.parametrize("theta", _EIG_THETAS)
def test_eigenvalues_match_eig_to_a_few_eps(family, theta):
    # the half-angle form cancels nowhere: before it, x3's dispersive pair
    # was 1.5e-9 off at theta = 1e-6 and the Grover families' 3.0e-13 off
    # at +-1.5707. Every eigenvalue lies within 5e-15 of the oracle's
    lams, _, _, U = coin_eigensystem(coin_from_theta(family, theta), 51)
    want = _oracle_eigenvalues(U)
    assert np.abs(lams[..., :, None] - want[..., None, :]).min(axis=-1).max() <= 5e-15


@pytest.mark.parametrize("theta", [0.4, 0.7, -1.2, 2.99, 3.1, 1.5707])
@pytest.mark.parametrize("N", [21, 51, 101])
def test_x3_falls_back_on_block_zero_only(theta, N):
    # x3 follows the one fallback rule of every family: only the block
    # (0, 0), where lambda = +1 is also a dispersive eigenvalue, collides
    lams, vecs, bad, U = coin_eigensystem(coin_from_theta("x3", theta), N)
    want = np.zeros((N, N), dtype=bool)
    want[0, 0] = True
    assert np.array_equal(bad, want)
    assert _block_residuals(lams, vecs, U).max() <= _RESID_TOL


@pytest.mark.parametrize("theta", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("N", [21, 51])
def test_x3_small_theta_falls_back_within_row_zero(theta, N):
    # near theta = 0 the dispersive pair of row n = 0 lies within about
    # theta of +1, so blocks of that row may fail the residual check; no
    # block of another row does
    bad = coin_eigensystem(coin_from_theta("x3", theta), N)[2]
    assert bad[0, 0] and not bad[1:].any()


def test_x3_flat_factor_is_finite_where_w_n_is_lambda():
    # at w^n = lambda = +1 the flat vector px * qy is finite, and nonzero
    # for m != 0 and theta != 0: px has no denominator
    wm = np.exp(2j * np.pi * np.arange(1, 21) / 21)
    for theta in (1e-9, 0.7, -2.0, 3.1):
        px, qy = _FACTORS["x3"](theta, 1.0, np.ones_like(wm), wm)
        v = px * qy
        assert np.isfinite(v).all() and (np.abs(v).max(axis=0) > 0).all()


def test_raw_pbar_matches_einsum_route():
    C = coin_from_theta("x3", -1.285).entries
    N = 21
    lams, vecs, bad, U = coin_eigensystem(C, N)
    assert np.array_equal(U, _meshgrid_blocks(C, N))
    want_l, want_v = _dense_eig(U.reshape(-1, 4, 4))
    assert np.array_equal(lams.reshape(-1, 4), want_l) and bad.all()
    assert np.array_equal(vecs.reshape(-1, 4, 4), want_v)
    _assert_bits_equal(finite_N_pbar_matrix(C, N), _einsum_pbar_matrix(lams, vecs, N))


# ---------------------------------------------------------------------------
# one cached eigensystem route: a raw coin is the all-fallback case


def test_raw_eigensystem_is_cached_read_only():
    C = _haar_unitary(404)
    N = 7
    first = coin_eigensystem(C, N)
    second = coin_eigensystem(np.array(C), N)
    for a, b in zip(first, second):
        assert a is b
        assert not a.flags.writeable
    _, _, bad, U = first
    assert np.array_equal(U, _phases(N)[..., :, None] * C)
    assert np.array_equal(bad, np.ones((N, N), dtype=bool))


def test_eigensystem_cache_holds_one_entry():
    coin_eigensystem(coin_from_theta("p24y1", 0.7), 5)
    coin_eigensystem(grover_coin().entries, 5)
    assert _eigensystem.cache_info().currsize == 1


@pytest.mark.parametrize("family, theta",
                         [("p24y1", -math.pi / 2), ("p34x1", 0.9), ("x3", 0.4), ("p23z1", 1.1)])
def test_raw_class_members_share_the_representative_order(family, theta):
    # every member of a class lists its eigenvalues in the representative's
    # order, so on classes with no repeated eigenvalue the raw class sums
    # are the family path's, once k is matched by eigenvalue
    coin = coin_from_theta(family, theta)
    N = 9
    raw_lams = coin_eigensystem(coin.entries, N)[0]
    raw = list(coefficient_rows(coin.entries, N))
    fam_lams = coin_eigensystem(coin, N)[0]
    fam = {row[:5]: complex(*row[5:]) for row in coefficient_rows(coin, N)}
    assert {row[:5] for row in raw} == set(fam)
    k_fam = {}
    for n, m in {row[2:4] for row in raw}:
        rep = raw_lams[n, m]
        for nn, mm in omega_class(n, m, N, symmetric=family != "x3").members:
            assert np.abs(raw_lams[nn, mm] - rep).max() < _DEGEN_TOL, (n, m, nn, mm)
        if np.abs(rep[:, None] - rep[None, :])[np.triu_indices(4, 1)].min() > _DEGEN_TOL:
            k_fam[n, m] = 1 + np.abs(fam_lams[n, m][None, :] - rep[:, None]).argmin(axis=1)
    assert k_fam
    for S, Sp, n, m, k, re, im in raw:
        if (n, m) in k_fam:
            want = fam[S, Sp, n, m, k_fam[n, m][k - 1]]
            assert abs(complex(re, im) - want) < 1e-13, (S, Sp, n, m, k)


def test_raw_class_with_mixed_spectra_rejected():
    # the bare x1 set member at theta = 0.7: 16 of its 25 orbit classes at
    # N = 9 hold blocks whose spectra differ from the representative's, so
    # a class sum would add vectors of different eigenvalues
    C = set_member_from_theta("x1", 0.7)
    with pytest.raises(ValueError, match="different spectra"):
        list(coefficient_rows(C, 9))
    with pytest.raises(ValueError, match="different spectra"):
        c_coefficient(C, "R", "R", 1, 2, 1, 9)


@pytest.mark.parametrize("call", [
    lambda c: omega_class(1.5, 0, 5),
    lambda c: omega_class(1, True, 5),
    lambda c: build_block(c, 1.0, 0, 5),
    lambda c: build_block(c, 1, np.float64(2), 5),
    lambda c: c_coefficient(c, "R", "R", 1.5, 0, 1, 5),
    lambda c: c_coefficient(c, "R", "R", 1, 0, True, 5),
    lambda c: c_coefficient(c, "R", "R", 1, 0, 2.0, 5),
], ids=["omega_float_n", "omega_bool_m", "block_float_n", "block_numpy_float_m",
        "c_float_n", "c_bool_k", "c_float_k"])
def test_quantum_numbers_must_be_integers(call):
    with pytest.raises(ValueError, match="integer"):
        call(coin_from_theta("p24y1", 0.7))


@pytest.mark.parametrize("t", [2.5, -3, float("nan"), 3.0, True])
def test_reconstruct_state_rejects_what_evolve_rejects(t):
    with pytest.raises(ValueError, match="t must be (an integer|>= 0), got"):
        reconstruct_state(coin_from_theta("p24y1", 0.7), 5, "R", t)


@pytest.mark.parametrize("t", [2.5, -3, float("nan"), 3.0, True])
def test_reconstruct_state_and_evolve_reject_t_with_one_message(t):
    coin = coin_from_theta("p24y1", 0.7)
    with pytest.raises(ValueError) as spectral_exc:
        reconstruct_state(coin, 5, "R", t)
    with pytest.raises(ValueError) as walk_exc:
        evolve(initial_state(5, "R"), coin, t)
    assert str(spectral_exc.value) == str(walk_exc.value)


@pytest.mark.parametrize("t", [np.int64(4), np.uint8(4)])
def test_reconstruct_state_takes_numpy_integer_t(t):
    coin = coin_from_theta("p24y1", 0.7)
    rec = reconstruct_state(coin, 5, "R", t)
    assert np.abs(rec.amps - evolve(initial_state(5, "R"), coin, int(t)).amps).max() < 1e-12


@pytest.mark.parametrize("N", [4, 5.9, True])
def test_omega_class_checks_the_lattice_side(N):
    # an even side has no centred lattice, and a float one is not truncated
    with pytest.raises(ValueError, match="lattice side must be odd and >= 3"):
        omega_class(1, 0, N)
