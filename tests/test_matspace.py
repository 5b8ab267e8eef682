import itertools
import zlib

import numpy as np
import pytest

from coinwalk.coins import grover_coin, is_orthogonal, is_permutative
from coinwalk.matspace import (
    BASIS_NAMES,
    L_SPACES,
    NotInLError,
    basis_matrices,
    decompose_linear_sum,
    direct_sum_components,
    h_orthogonal,
    hadamard_matrix,
    hadamard_row_sum_check,
    is_perm_equivalent_direct_sum,
    quadrangular,
    sample_orthogonal_in_span,
    satisfies_span_dichotomy,
    six_class_partition,
    strongly_quadrangular,
    subspace_membership,
    theorem217_block,
    theorem217_family,
    two_permutation_check,
)
from coinwalk.perms import ALL_PERMS, perm_matrix

G = grover_coin().entries

# symmetric example living in L1 + L2 + L5
SYM11 = np.array([
    [10, -2, -1, 4],
    [-2, 7, -2, 8],
    [-1, -2, 10, 4],
    [4, 8, 4, -5],
]) / 11.0
SYM11_COEFFS = np.array([1, -6, 9, 7, 0, 0, 0, -3, -1, 4]) / 11.0

GROVER_COEFFS = np.array([-0.5, 0, 0, -0.5, 0, 0, 0, 1.0, 0.5, 0.5])


def test_basis_is_linearly_independent():
    flat = basis_matrices().reshape(10, 16)
    assert np.linalg.matrix_rank(flat) == 10
    gram = flat @ flat.T
    assert abs(np.linalg.det(gram)) > 1e-6


def test_decompose_basis_element():
    dec = decompose_linear_sum(perm_matrix("(12)"))
    expected = np.zeros(10)
    expected[BASIS_NAMES.index("(12)")] = 1.0
    assert np.abs(dec.coeffs - expected).max() < 1e-12
    assert dec.residual < 1e-12


def test_decompose_grover():
    dec = decompose_linear_sum(G)
    assert dec.residual < 1e-12
    assert np.abs(dec.coeffs - GROVER_COEFFS).max() < 1e-12
    assert dec.coefficient_sum() == pytest.approx(1.0, abs=1e-12)


def test_decompose_symmetric_example():
    dec = decompose_linear_sum(SYM11)
    assert dec.residual < 1e-12
    assert np.abs(dec.coeffs - SYM11_COEFFS).max() < 1e-12


def test_decompose_reconstruct_on_span():
    rng = np.random.default_rng(3)
    for _ in range(50):
        coeffs = rng.normal(size=10)
        A = np.tensordot(coeffs, basis_matrices(), axes=1)
        dec = decompose_linear_sum(A)
        assert np.abs(dec.reconstruct() - A).max() < 1e-12
        assert np.abs(dec.coeffs - coeffs).max() < 1e-12


def test_decompose_outside_span_has_residual():
    A = np.diag([1.0, 1.0, 1.0, -1.0])  # any diagonal sign flip leaves the span
    assert decompose_linear_sum(A).residual > 1e-3


def test_row_sum_sign_pm_one_for_orthogonal_members():
    rng = np.random.default_rng(11)
    signs = set()
    for names in [("(12)", "(34)", "(13)(24)", "(14)(23)"), ("(24)", "(12)(34)")]:
        for A in sample_orthogonal_in_span(names, 40, seed=int(rng.integers(1 << 30))):
            dec = decompose_linear_sum(A)
            assert dec.residual < 1e-10
            s = dec.coefficient_sum()
            assert min(abs(s - 1), abs(s + 1)) < 1e-10
            signs.add(hadamard_row_sum_check(A))
    assert signs <= {1, -1}


def test_h_orthogonal_examples():
    assert h_orthogonal(np.eye(4), perm_matrix("(12)(34)"))
    assert not h_orthogonal(perm_matrix("(12)"), perm_matrix("(12)"))
    assert not h_orthogonal(perm_matrix("(12)"), perm_matrix("(12)(34)"))


def test_six_class_partition_structure():
    classes = six_class_partition()
    assert len(classes) == 6
    all_perms = [p for cls in classes for p in cls]
    assert len(set(all_perms)) == 24
    assert classes[0][0].cycles() == "id"
    assert {p.cycles() for p in classes[3]} == {"(34)", "(12)", "(1324)", "(1423)"}
    for cls in classes:
        support = sum(p.matrix() for p in cls)
        assert np.array_equal(support, np.ones((4, 4)))
        for a, b in itertools.combinations(cls, 2):
            assert h_orthogonal(a.matrix(), b.matrix())


def test_strongly_quadrangular_examples():
    assert strongly_quadrangular(np.ones((4, 4), dtype=int))
    assert strongly_quadrangular(np.eye(4, dtype=int))
    bad = np.array([[1, 1, 0, 0], [1, 0, 1, 1], [0, 0, 1, 1], [1, 1, 1, 0]])
    assert not quadrangular(bad)
    assert not strongly_quadrangular(bad)
    # quadrangular but pattern of a permutation pair: still fine
    klein = perm_matrix("(12)(34)") + np.eye(4)
    assert strongly_quadrangular(klein)


def test_every_family_coin_pattern_supports_unitary():
    # family coins are orthogonal, so their patterns must pass the test
    from coinwalk.coins import coin_from_theta
    for th in (0.3, 1.2, -2.0):
        pat = (np.abs(coin_from_theta("p24y1", th).entries) > 1e-12).astype(int)
        assert strongly_quadrangular(pat)


def test_subspace_membership_examples():
    assert subspace_membership(G) <= {1, 2}
    assert subspace_membership(perm_matrix("(23)")) == {5}
    assert subspace_membership(SYM11) == {1, 2, 5}
    with pytest.raises(NotInLError):
        subspace_membership(np.diag([1.0, 1.0, 1.0, -1.0]))


def test_hadamard_row_sum_check_examples():
    assert hadamard_row_sum_check(G) == 1
    assert hadamard_row_sum_check(-np.eye(4)) == -1
    with pytest.raises(ValueError):
        hadamard_row_sum_check(np.diag([1.0, 1.0, 1.0, -1.0]))


def test_hadamard_matrix_involution():
    H = hadamard_matrix()
    assert np.abs(H @ H - np.eye(4)).max() < 1e-15
    assert np.array_equal(H, H.T)


def test_theorem217_c1_at_third():
    M = theorem217_family("c1", 1.0 / 3.0)
    assert np.abs(M[0] - np.array([-0.5, 0.5, 0.5, 0.5])).max() < 1e-12
    assert M[1, 3] == pytest.approx(-1.0 / 6.0)
    assert is_orthogonal(M, 1e-12)


def test_theorem217_c1_endpoint_degenerate():
    M = theorem217_family("c1", -1.0)
    assert M[1, 3] == pytest.approx(0.5)
    Mm = theorem217_family("c1", -1.0, branch=-1)
    assert np.abs(M - Mm).max() < 1e-12


@pytest.mark.parametrize("variant,c2", [
    ("c1", 0.2), ("c1", -0.7), ("c1", 0.31), ("c2", 0.0), ("c2", 0.8), ("c2", -0.3),
])
@pytest.mark.parametrize("branch", [1, -1])
def test_theorem217_h_conjugate_structure(variant, c2, branch):
    M = theorem217_family(variant, c2, branch)
    assert is_orthogonal(M, 1e-12)
    H = hadamard_matrix()
    B = H @ M @ H
    corner = 1.0 if variant == "c1" else -1.0
    assert B[0, 0] == pytest.approx(corner, abs=1e-12)
    assert max(np.abs(B[0, 1:]).max(), np.abs(B[1:, 0]).max()) < 1e-12
    blk = B[1:, 1:]
    assert np.abs(blk.T @ blk - np.eye(3)).max() < 1e-12
    # the block is permutative (rows permute one another)
    s = np.sort(blk, axis=1)
    assert np.abs(s - s[0]).max() < 1e-12
    expected = theorem217_block(variant, c2, branch)
    assert np.abs(np.sort(blk.reshape(-1)) - np.sort(expected.reshape(-1))).max() < 1e-12
    rowsum = -1.0 if variant == "c1" else 1.0
    assert np.abs(blk.sum(axis=1) - rowsum).max() < 1e-12


@pytest.mark.parametrize("variant,c2", [("c1", 0.2), ("c1", -0.6), ("c2", 0.5)])
def test_theorem217_generic_members_not_permutative(variant, c2):
    M = theorem217_family(variant, c2)
    assert not is_permutative(M, 1e-9)


@pytest.mark.parametrize("branch", [0, 5, -2, True, False, 1.0, -1.0, "1", None])
@pytest.mark.parametrize("fn", [theorem217_family, theorem217_block])
def test_theorem217_rejects_branch_but_plus_minus_one(fn, branch):
    with pytest.raises(ValueError, match="branch must be"):
        fn("c1", 0.2, branch=branch)


@pytest.mark.parametrize("branch", [1, -1])
@pytest.mark.parametrize("fn", [theorem217_family, theorem217_block])
def test_theorem217_takes_numpy_branch(fn, branch):
    assert fn("c2", 0.3, np.int32(branch)).tobytes() == fn("c2", 0.3, branch).tobytes()


def test_theorem217_out_of_range():
    with pytest.raises(ValueError):
        theorem217_family("c1", 0.5)
    with pytest.raises(ValueError):
        theorem217_family("c2", -0.7)


@pytest.mark.parametrize("c2", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("fn", [theorem217_family, theorem217_block])
def test_theorem217_rejects_non_finite_c2(fn, c2):
    # a NaN discriminant is never below the interval's bound, so it needs
    # its own rejection
    for variant in ("c1", "c2"):
        with pytest.raises(ValueError, match=f"c2={c2} is not finite"):
            fn(variant, c2)


def test_theorem217_variant_case_blind():
    for fn in (theorem217_family, theorem217_block):
        assert fn("C1", 0.2).tobytes() == fn("c1", 0.2).tobytes()
        assert fn("C2", -0.2, -1).tobytes() == fn("c2", -0.2, -1).tobytes()
    with pytest.raises(ValueError, match="variant must be 'c1' or 'c2'"):
        theorem217_block("c3", 0.2)


def test_two_permutation_exhaustive():
    report = two_permutation_check()
    assert report["pairs"] == 552
    assert report["cross_term_nonzero"] == 552
    assert report["nontrivial_solutions"] == 0


def test_direct_sum_detection():
    A = np.zeros((4, 4))
    A[0, 0] = 1.0
    A[1:, 1:] = 2.0 / 3.0 - np.eye(3)
    comps = direct_sum_components(A)
    assert len(comps) == 2
    assert is_perm_equivalent_direct_sum(A)
    assert not is_perm_equivalent_direct_sum(G)


def _searched_components(A, tol=1e-12):
    # the depth-first search that direct_sum_components replaced
    B = np.abs(np.asarray(A)) > tol
    n = B.shape[0]
    seen_r, comps = set(), []
    for start in range(n):
        if start in seen_r:
            continue
        rows, cols, stack = set(), set(), [("r", start)]
        while stack:
            side, i = stack.pop()
            if side == "r":
                if i in rows:
                    continue
                rows.add(i)
                stack.extend(("c", j) for j in np.nonzero(B[i])[0])
            else:
                if i in cols:
                    continue
                cols.add(i)
                stack.extend(("r", j) for j in np.nonzero(B[:, i])[0])
        seen_r |= rows
        comps.append((sorted(rows), sorted(cols)))
    return comps


def test_direct_sum_components_match_the_search_on_every_pattern():
    bits = (np.arange(1 << 16)[:, None] >> np.arange(16)) & 1
    for pattern in bits.reshape(-1, 4, 4):
        assert direct_sum_components(pattern) == _searched_components(pattern)


def test_direct_sum_components_match_the_search_on_rectangles():
    rng = np.random.default_rng(5)
    for _ in range(1500):
        shape = tuple(rng.integers(1, 8, 2))
        A = rng.normal(size=shape) * (rng.random(shape) < rng.random())
        A[rng.random(shape) < 0.1] = 1e-13                  # below the default tol
        assert direct_sum_components(A) == _searched_components(A)
        assert direct_sum_components(A, 0.5) == _searched_components(A, 0.5)


def _space_names(*idx):
    names = []
    for i in idx:
        names.extend(L_SPACES[i])
    return tuple(names)


@pytest.mark.parametrize("pair", list(itertools.combinations(range(1, 6), 2)))
def test_orthogonal_in_two_spaces_dichotomy(pair):
    seed = zlib.crc32(repr(pair).encode()) % 100000
    samples = sample_orthogonal_in_span(_space_names(*pair), 300, seed=seed)
    assert len(samples) > 0
    for A in samples:
        assert satisfies_span_dichotomy(A), (pair, A)


@pytest.mark.parametrize("triple", [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5),
                                    (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)])
def test_orthogonal_in_three_spaces_dichotomy(triple):
    samples = sample_orthogonal_in_span(_space_names(*triple), 300, seed=sum(triple))
    assert len(samples) > 0
    for A in samples:
        assert satisfies_span_dichotomy(A), (triple, A)


def test_orthogonal_in_l2345_dichotomy():
    samples = sample_orthogonal_in_span(_space_names(2, 3, 4, 5), 400, seed=9)
    assert len(samples) > 0
    for A in samples:
        assert satisfies_span_dichotomy(A)


def test_l234_direct_sum_member_is_exactly_orthogonal():
    # exact witness that the three-space dichotomy genuinely needs its
    # direct-sum branch: (3/4) P_(12)(34) + q P_(124) + r P_(123) with
    # q, r = 1/8 -+ sqrt(13)/8 is orthogonal but not permutative
    p = 0.75
    disc = np.sqrt((1 - p) * (1 + 3 * p))
    q, r = (1 - p + disc) / 2, (1 - p - disc) / 2
    A = (p * perm_matrix("(12)(34)") + r * perm_matrix("(124)")
         + q * perm_matrix("(123)"))
    assert is_orthogonal(A, 1e-12)
    assert subspace_membership(A) == {2, 3, 4}
    assert not is_permutative(A, 1e-6)
    assert is_perm_equivalent_direct_sum(A, 1e-9)


def _satisfies_l134_trichotomy(A, tol=1e-6) -> bool:
    # samples converge to square-root precision at variety corners, so the
    # classification tolerance is looser than the orthogonality gate
    if is_permutative(A, tol):
        return True
    if is_perm_equivalent_direct_sum(A, tol):
        return True
    # remaining case: some row/column permutation H-conjugates to
    # diag(+-1) + 3x3 permutative orthogonal block
    H = hadamard_matrix()
    perms = [p.matrix() for p in ALL_PERMS]
    for P in perms:
        PA = P @ A
        for Q in perms:
            B = H @ (PA @ Q) @ H
            if abs(abs(B[0, 0]) - 1) > tol:
                continue
            if max(np.abs(B[0, 1:]).max(), np.abs(B[1:, 0]).max()) > tol:
                continue
            blk = B[1:, 1:]
            s = np.sort(blk, axis=1)
            if np.abs(s - s[0]).max() < tol:
                return True
    return False


def test_orthogonal_in_l134_trichotomy():
    samples = sample_orthogonal_in_span(_space_names(1, 3, 4), 200, seed=21)
    assert len(samples) > 0
    found_nonpermutative = False
    for A in samples:
        assert _satisfies_l134_trichotomy(A)
        found_nonpermutative |= not is_permutative(A, 1e-8)
    # the space genuinely contains non-permutative orthogonal matrices
    assert found_nonpermutative


@pytest.mark.slow
@pytest.mark.parametrize("pair", list(itertools.combinations(range(1, 6), 2)))
def test_orthogonal_in_two_spaces_dichotomy_full(pair):
    seed = zlib.crc32(repr(pair).encode()) % 99991
    samples = sample_orthogonal_in_span(_space_names(*pair), 10000, seed=seed)
    for A in samples:
        assert satisfies_span_dichotomy(A)


# ---------------------------------------------------------------------------
# the cross-term routes against test-local copies of the routes they replaced


def _einsum_sampler(names, trials, seed, newton_steps=60, tol=1e-12):
    """Gauss-Newton step with the Jacobian rebuilt from A by two 4-index
    einsums in every iteration."""
    gens = np.stack([perm_matrix(n) for n in names])
    d = len(gens)
    c = np.random.default_rng(seed).normal(0, 1, (trials, d))
    iu = np.triu_indices(4)

    def residual(cc):
        A = np.tensordot(cc, gens, axes=1)
        G = np.einsum("bji,bjk->bik", A, A) - np.eye(4)
        return A, G[:, iu[0], iu[1]]

    for _ in range(newton_steps):
        A, f = residual(c)
        J = (np.einsum("lji,bjk->blik", gens, A)
             + np.einsum("bji,ljk->blik", A, gens))[:, :, iu[0], iu[1]]
        J = np.swapaxes(J, 1, 2)
        mu = 1e-12 + 1e-2 * (f**2).sum(axis=1)
        JtJ = np.einsum("bri,brk->bik", J, J) + mu[:, None, None] * np.eye(d)
        rhs = -np.einsum("bri,br->bi", J, f)
        c = c + np.linalg.solve(JtJ, rhs[..., None])[..., 0]
    A, f = residual(c)
    return A[np.abs(f).max(axis=1) <= tol]


# (spaces, trials, seed) of every sampler call in the dichotomy tests above
_SAMPLED = (
    [(p, 300, zlib.crc32(repr(p).encode()) % 100000)
     for p in itertools.combinations(range(1, 6), 2)]
    + [(t, 300, sum(t)) for t in [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5),
                                  (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)]]
    + [((2, 3, 4, 5), 400, 9), ((1, 3, 4), 200, 21)]
)


@pytest.mark.parametrize("trials, match", [
    (-1, "trials must be >= 0"), (2.5, "trials must be an integer"),
    (3.0, "trials must be an integer"), (True, "trials must be an integer"),
])
def test_sampler_rejects_bad_trials(trials, match):
    with pytest.raises(ValueError, match=match):
        sample_orthogonal_in_span(L_SPACES[1], trials, 0)


def test_sampler_takes_zero_and_numpy_trials():
    assert sample_orthogonal_in_span(L_SPACES[1], 0, 0).shape == (0, 4, 4)
    got = sample_orthogonal_in_span(L_SPACES[2], np.int64(5), 3)
    assert got.tobytes() == sample_orthogonal_in_span(L_SPACES[2], 5, 3).tobytes()


@pytest.mark.parametrize("spaces,trials,seed", _SAMPLED)
def test_sampler_matches_einsum_reference(spaces, trials, seed):
    names = _space_names(*spaces)
    got = sample_orthogonal_in_span(names, trials, seed)
    want = _einsum_sampler(names, trials, seed)
    assert len(got) == len(want)
    # the routes agree to rounding, except in spaces with L1 or with
    # L2+L3+L4: there some starts land near corners of the variety, where
    # Gauss-Newton only reaches square-root precision (up to 2.2e-8 here)
    corners = 1 in spaces or {2, 3, 4} <= set(spaces)
    assert np.abs(got - want).max() <= (1e-6 if corners else 1e-12)


def _branchy_theorem217(variant, c2, branch):
    """Theorem 2.17 with one branch per variant: (family, block)."""
    if variant == "c1":
        disc = (1 - 3 * c2) * (1 + c2)
    else:
        disc = (1 + 3 * c2) * (1 - c2)
    a4 = -0.5 * c2 + branch * 0.5 * np.sqrt(max(disc, 0.0))
    e = -a4 - c2
    if variant == "c1":
        d = 0.5 + c2
        fam = [[-0.5, 0.5, 0.5, 0.5], [0.5, d, e, a4], [0.5, e, a4, d], [0.5, a4, d, e]]
        b = [-0.5 + a4, -0.5 - a4 - c2, c2]
    else:
        d = -0.5 + c2
        fam = [[0.5, -0.5, -0.5, -0.5], [-0.5, d, e, a4], [-0.5, e, a4, d], [-0.5, a4, d, e]]
        b = [0.5 + a4, 0.5 - a4 - c2, c2]
    blk = [[b[0], b[1], b[2]], [b[1], b[2], b[0]], [b[2], b[0], b[1]]]
    return np.array(fam), np.array(blk)


@pytest.mark.parametrize("variant,lo,hi", [("c1", -1.0, 1.0 / 3.0), ("c2", -1.0 / 3.0, 1.0)])
def test_theorem217_signed_formula_matches_branches(variant, lo, hi):
    for c2 in list(np.linspace(lo, hi, 41)) + [0.0, -0.5, 0.5]:
        if not lo <= c2 <= hi:
            continue
        for branch in (1, -1):
            fam, blk = _branchy_theorem217(variant, c2, branch)
            assert theorem217_family(variant, c2, branch).tobytes() == fam.tobytes()
            assert theorem217_block(variant, c2, branch).tobytes() == blk.tobytes()
