import json
import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk.coins import (
    COIN_FAMILIES,
    SET_TAGS,
    Coin,
    _family_matrix,
    NotOrthogonalError,
    NotPermutativeError,
    build_permutative,
    chain_ids,
    chain_sets,
    classify,
    classify_batch_errors,
    coin_from_json,
    coin_from_theta,
    coin_rational,
    coin_to_json,
    grover_coin,
    group_closure_sample,
    is_orthogonal,
    is_permutative,
    is_unitary,
    set_member_from_theta,
)
from coinwalk.perms import ONE_PLUS_P3, P23, P24, P34, perm_matrix

# generalized-Grover factor of each pattern family
LEFT = {"x": P34, "y": P24, "z": P23}

G = grover_coin().entries

# the non-permutative orthogonal example: 1 (+) (2/3 J - I)
BLOCK_EXAMPLE = np.zeros((4, 4))
BLOCK_EXAMPLE[0, 0] = 1.0
BLOCK_EXAMPLE[1:, 1:] = 2.0 / 3.0 - np.eye(3)


def test_grover_matches_p24y1_at_minus_half_pi():
    assert np.abs(coin_from_theta("p24y1", -math.pi / 2).entries - G).max() < 1e-15


def test_p24y1_at_zero_is_cyclic_permutation():
    c = coin_from_theta("p24y1", 0.0).entries.real
    ones = {(i, j) for i in range(4) for j in range(4) if abs(c[i, j] - 1) < 1e-15}
    assert ones == {(0, 1), (1, 2), (2, 3), (3, 0)}
    assert np.abs(c).sum() == pytest.approx(4.0)


def test_x3_at_zero_is_p34():
    c = coin_from_theta("x3", 0.0).entries.real
    assert np.array_equal(c, perm_matrix("(34)"))


@pytest.mark.parametrize("family", COIN_FAMILIES)
def test_theta_grid_orthogonal_and_permutative(family):
    for theta in np.linspace(-math.pi, math.pi, 1000):
        c = coin_from_theta(family, theta).entries
        assert np.abs(c.T @ c - np.eye(4)).max() < 1e-12
        assert is_permutative(c, 1e-12)


def test_theta_out_of_range():
    with pytest.raises(ValueError):
        coin_from_theta("p24y1", 3.5)
    with pytest.raises(ValueError):
        coin_from_theta("bogus", 0.1)


@pytest.mark.parametrize("theta", [4.0, -3.5, 2 * math.pi])
def test_coin_rejects_family_theta_out_of_range(theta):
    # the matrix is a valid coin, but the closed forms of the spectral
    # machinery read family and theta, and take theta in [-pi, pi] only
    with pytest.raises(ValueError) as want:
        coin_from_theta("p24y1", theta)
    entries = _family_matrix("p24y1", theta)
    with pytest.raises(ValueError) as got:
        Coin(entries, family="p24y1", theta=theta)
    assert str(got.value) == str(want.value) == f"theta={theta} out of range [-pi, pi]"
    obj = {"family": "p24y1", "theta": theta, "entries_re": entries.tolist()}
    with pytest.raises(ValueError, match=r"out of range \[-pi, pi\]"):
        coin_from_json(obj)


def test_endpoint_flagged_degenerate():
    assert coin_from_theta("p24y1", math.pi).degenerate
    assert not coin_from_theta("p24y1", 3.0).degenerate


def test_build_permutative_repeated_rows():
    c = build_permutative([1, 0, 0, 0], np.eye(4), np.eye(4), np.eye(4))
    assert np.abs(c.entries - c.entries[0]).max() == 0


def test_build_permutative_grover_from_y_pattern():
    # the cyclic pattern built on (-1/2, 1/2, 1/2, 1/2) is the Grover matrix
    # up to the (24) row swap that defines the generalized Grover set
    x = [-0.5, 0.5, 0.5, 0.5]
    c = build_permutative(x, perm_matrix("(1432)"), perm_matrix("(13)(24)"),
                          perm_matrix("(1234)"))
    assert np.abs(P24 @ c.entries - G).max() < 1e-15
    # a direct row-selection gives G itself
    d = build_permutative(x, perm_matrix("(12)"), perm_matrix("(13)"), perm_matrix("(14)"))
    assert np.abs(d.entries - G).max() < 1e-15


def test_build_permutative_x_pattern():
    # the no-repeated-column pattern with rows (x,y,z,w), (y,x,w,z),
    # (z,w,y,x), (w,z,x,y) comes from the 4-cycle collection
    xs = np.array([0.1 + 0.2j, -0.3, 0.4, 0.5j])
    c = build_permutative(xs, perm_matrix("(12)(34)"), perm_matrix("(1423)"),
                          perm_matrix("(1324)"))
    x, y, z, w = xs
    expected = np.array([[x, y, z, w], [y, x, w, z], [z, w, y, x], [w, z, x, y]])
    assert np.abs(c.entries - expected).max() < 1e-15


def test_is_orthogonal_is_permutative_examples():
    assert is_orthogonal(np.eye(4)) and is_permutative(np.eye(4))
    assert is_orthogonal(G) and is_permutative(G)
    assert is_orthogonal(BLOCK_EXAMPLE, 1e-12)
    assert not is_permutative(BLOCK_EXAMPLE)


def test_classify_grover_first_witness():
    w = classify(G)
    assert (w.family, w.kind, w.sign) == ("x", "m", 1)
    assert w.left.cycles() == "(34)"
    assert w.x == pytest.approx(-0.5)
    assert w.z == pytest.approx(0.5)
    assert np.abs(w.reconstruct() - G).max() < 1e-15


def test_classify_identity_corner():
    w = classify(np.eye(4))
    assert (complex(w.x), complex(w.z)) in {(0j, 1 + 0j), (0j, 0j)}
    assert np.abs(w.reconstruct() - np.eye(4)).max() < 1e-15


@given(st.sampled_from(SET_TAGS), st.floats(-3.1, 3.1), st.floats(-0.8, 0.8),
       st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_classify_matches_batch_errors(tag, re, im, complex_theta, left):
    theta = complex(re, im) if complex_theta else re
    a = set_member_from_theta(tag, theta)
    if left:
        a = LEFT[tag[0]] @ a
    w = classify(a)
    err = np.abs(w.reconstruct() - a).max()
    assert err <= 1e-9
    # the same residual, up to rounding of sqrt(re^2 + im^2) against hypot;
    # the squares underflow for residuals under about 1e-154
    assert classify_batch_errors(a[None])[0] == pytest.approx(err, rel=1e-15, abs=1e-150)


def test_set_member_from_theta_array():
    thetas = np.array([[0.3, -2.0], [1.1 + 0.4j, 3.0]])
    for tag in SET_TAGS:
        stack = set_member_from_theta(tag, thetas)
        assert stack.shape == (2, 2, 4, 4)
        for idx in np.ndindex(2, 2):
            assert np.array_equal(stack[idx], set_member_from_theta(tag, thetas[idx]))


@pytest.mark.parametrize("family", COIN_FAMILIES)
def test_family_coin_is_left_factor_times_member(family):
    # p34x1 = P34 x1(theta), p24y1 = P24 y1(theta), p23z1 = P23 z1(pi - theta),
    # x3 = x3(theta)
    eps = np.finfo(float).eps
    tag = family[-2:]

    def member(theta):
        m = set_member_from_theta(tag, math.pi - theta if family == "p23z1" else theta)
        return m if family == "x3" else LEFT[tag[0]] @ m

    for theta in (0.7, -2.0, 3.1, 0.0, 1.3, math.pi, -math.pi):
        c = coin_from_theta(family, theta)
        assert np.abs(c.entries - member(theta)).max() <= eps
        assert c.degenerate == (abs(theta) == math.pi)
    # on a grid, p23z1's member is taken at the rounded pi - theta (and
    # math.pi is itself pi rounded), which costs up to one more epsilon
    bound = 2 * eps if family == "p23z1" else eps
    for theta in np.linspace(-math.pi, math.pi, 401):
        assert np.abs(coin_from_theta(family, theta).entries - member(theta)).max() <= bound


def test_is_unitary_rejects_complex_orthogonal():
    for family in COIN_FAMILIES:
        assert is_unitary(coin_from_theta(family, 0.7).entries)
    a = set_member_from_theta("x3", 0.7 + 0.5j)
    assert is_orthogonal(a)
    assert not is_unitary(a)
    assert np.abs(a.conj().T @ a - np.eye(4)).max() > 0.5


def test_classify_errors():
    with pytest.raises(NotOrthogonalError):
        classify(np.ones((4, 4)))
    with pytest.raises(NotPermutativeError):
        classify(BLOCK_EXAMPLE)


@pytest.mark.parametrize("family", COIN_FAMILIES)
@pytest.mark.parametrize("theta", [-2.9, -1.0, 0.33, 2.2])
def test_classify_round_trip_family_coins(family, theta):
    c = coin_from_theta(family, theta).entries
    w = classify(c, tol=1e-9)
    assert np.abs(w.reconstruct() - c).max() < 1e-12
    assert w.variety_residual() < 1e-12
    assert w.is_real


@given(st.sampled_from(SET_TAGS), st.floats(-3.1, 3.1))
@settings(max_examples=120, deadline=None)
def test_classify_round_trip_bare_sets(tag, theta):
    a = set_member_from_theta(tag, theta)
    w = classify(a, tol=1e-9)
    assert np.abs(w.reconstruct() - a).max() < 1e-10
    s = 1 if int(tag[1]) in (1, 3) else -1
    assert abs(w.x**2 + w.z**2 - w.sign * w.z) < 1e-12
    assert w.sign == s


def test_classify_complex_members():
    rng = np.random.default_rng(7)
    for tag in SET_TAGS:
        th = rng.uniform(-3, 3) + 1j * rng.normal(0, 0.5)
        a = set_member_from_theta(tag, th)
        assert is_orthogonal(a, 1e-9)
        w = classify(a)
        assert np.abs(w.reconstruct() - a).max() < 1e-9


@pytest.mark.parametrize("tag", SET_TAGS)
def test_determinants_by_block_kind(tag):
    theta = 1.234
    a = set_member_from_theta(tag, theta)
    want = 1.0 if int(tag[1]) in (1, 2) else -1.0
    assert np.linalg.det(a).real == pytest.approx(want, abs=1e-12)


def test_conjugation_identities():
    for j in (1, 2, 3, 4):
        for theta in (0.4, -1.7):
            x = set_member_from_theta(f"x{j}", theta)
            y = set_member_from_theta(f"y{j}", theta)
            z = set_member_from_theta(f"z{j}", theta)
            assert np.abs(P23 @ x @ P23 - y).max() < 1e-15
            assert np.abs(P24 @ x @ P24 - z).max() < 1e-15


def test_rational_coin_examples():
    c = coin_rational("x1", 2)
    assert c.exact[0][0] == Fraction(3, 10)
    assert c.exact[0][2] == Fraction(9, 10)
    c_minus = coin_rational("x1", 2, z_branch=-1)
    assert c_minus.exact[0][2] == Fraction(1, 10)
    c2 = coin_rational("x2", 3)
    x, z = c2.exact[0][0], c2.exact[0][2]
    assert x == Fraction(2, 5)
    assert z in (Fraction(-1, 5), Fraction(-4, 5))
    assert x * x + z * z + z == 0


def test_rational_r_one_gives_binary_entries():
    c = coin_rational("x1", 1)
    vals = {v for row in c.exact for v in row}
    assert vals <= {Fraction(0), Fraction(1)}


@pytest.mark.parametrize("tag", SET_TAGS)
@pytest.mark.parametrize("r", [Fraction(1), Fraction(2), Fraction(-3, 5), Fraction(7, 2)])
def test_rational_exact_orthogonality(tag, r):
    c = coin_rational(tag, r)
    e = c.exact
    for i in range(4):
        for j in range(4):
            dot = sum(e[k][i] * e[k][j] for k in range(4))
            assert dot == (1 if i == j else 0)


def test_rational_r_zero_rejected():
    with pytest.raises(ValueError):
        coin_rational("x1", 0)


def test_json_round_trip_float_and_exact():
    c = coin_from_theta("p23z1", 0.9)
    back = coin_from_json(coin_to_json(c))
    assert np.abs(back.entries - c.entries).max() < 1e-15
    assert back.family == "p23z1" and back.theta == pytest.approx(0.9)
    cr = coin_rational("y3", Fraction(5, 3))
    back = coin_from_json(coin_to_json(cr))
    assert back.exact == cr.exact
    assert back.r == Fraction(5, 3)


@pytest.mark.parametrize("theta", [math.pi, -math.pi])
def test_json_round_trip_keeps_degenerate(theta):
    from coinwalk.spectral import finite_N_pbar
    from coinwalk.walk import evolve, initial_state
    back = coin_from_json(coin_to_json(coin_from_theta("p24y1", theta)))
    assert back.degenerate
    with pytest.raises(ValueError, match="degenerate"):
        evolve(initial_state(5, "R"), back, 1)
    with pytest.raises(ValueError, match="pi"):
        finite_N_pbar(back, "R", "R", 5)
    assert not coin_from_json(coin_to_json(coin_from_theta("p24y1", 3.0))).degenerate


def test_degenerate_derived_from_family_and_theta():
    from coinwalk.spectral import finite_N_pbar
    from coinwalk.walk import evolve, initial_state
    # rebuilt by hand from the entries, the endpoint coin still reads degenerate
    c = Coin(coin_from_theta("p24y1", math.pi).entries, family="p24y1", theta=math.pi)
    assert c.degenerate
    with pytest.raises(ValueError, match="degenerate"):
        evolve(initial_state(5, "R"), c, 1)
    with pytest.raises(ValueError, match="pi"):
        finite_N_pbar(c, "R", "R", 5)
    with pytest.raises(TypeError):
        Coin(c.entries, family="p24y1", theta=math.pi, degenerate=False)


def test_coin_rejects_entries_contradicting_family_theta():
    # the walk evolves the entries while the spectral code uses the named
    # family's closed forms, so a contradiction would split the two
    x3 = coin_from_theta("x3", 0.7).entries
    with pytest.raises(ValueError, match=r"entries differ from p34x1\(theta=0.7\)"):
        Coin(x3, family="p34x1", theta=0.7)
    with pytest.raises(ValueError, match="differ"):
        Coin(coin_from_theta("p24y1", 0.7).entries, family="p24y1", theta=0.7 + 1e-9)
    with pytest.raises(ValueError, match="differ"):
        Coin(x3, family="x3", theta=math.nan)
    # without a named family or a theta there is nothing to contradict
    assert Coin(x3, family="raw", theta=0.7).family == "raw"
    assert Coin(x3, family="p34x1").theta is None


@pytest.mark.parametrize("family", COIN_FAMILIES)
@pytest.mark.parametrize("theta", [-math.pi, -math.pi / 2, 0.0, 0.7, 3.0, math.pi])
def test_named_coins_load_through_json_text(family, theta):
    c = coin_from_theta(family, theta)
    back = coin_from_json(json.loads(json.dumps(coin_to_json(c))))
    assert (back.family, back.theta) == (family, theta)
    assert np.array_equal(back.entries, c.entries)


def test_grover_coin_is_its_family_member():
    g = grover_coin()
    assert np.abs(g.entries - coin_from_theta("p24y1", -math.pi / 2).entries).max() < 1e-15
    assert coin_from_json(json.loads(json.dumps(coin_to_json(g)))).family == "p24y1"


def test_coin_entries_read_only_copy():
    a = np.eye(4)
    c = Coin(a)
    with pytest.raises(ValueError):
        c.entries[0, 0] = 2.0
    a[0, 0] = 2.0                       # the caller's array stays writable
    assert c.entries[0, 0] == 1.0 and c.unitary
    assert not Coin(a).unitary


def test_chain_ids_cover_expected_groups():
    ids = chain_ids()
    assert len(ids) == 39
    assert "x-base" in ids and "y2-full" in ids
    assert chain_sets("x-base") == [("x", 3, True)]
    assert chain_sets("z4-full") == [("z", 3, True), ("z", 4, True), ("z", 3, False), ("z", 4, False)]
    with pytest.raises(ValueError):
        chain_sets("w1-a")


def _parsed_chain_sets(chain_id):
    # the string parser that chain_sets replaced with a table lookup
    fam = chain_id[0]
    if fam not in "xyz":
        raise ValueError(f"unknown chain {chain_id!r}")
    body = chain_id[1:]
    if body == "-base":
        return [(fam, 3, True)]
    try:
        j, variant = int(body[0]), body[2:]
    except (ValueError, IndexError):
        raise ValueError(f"unknown chain {chain_id!r}") from None
    if j not in (1, 2, 3, 4):
        raise ValueError(f"unknown chain {chain_id!r}")
    if variant == "a":
        sets = [(fam, 3, True), (fam, j, True)]
    elif variant == "b":
        sets = [(fam, 3, True), (fam, j, False)]
    elif variant == "full":
        sets = [(fam, 3, True), (fam, j, True), (fam, 3, False), (fam, j, False)]
    else:
        raise ValueError(f"unknown chain {chain_id!r}")
    seen, out = set(), []
    for s in sets:
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def test_chain_table_matches_the_parser():
    ids = [i for f in "xyz" for i in [f"{f}-base"] + [f"{f}{j}-{v}" for j in (1, 2, 3, 4)
                                                      for v in ("a", "b", "full")]]
    assert chain_ids() == ids
    for cid in ids:
        assert chain_sets(cid) == _parsed_chain_sets(cid)
    chain_sets("x1-full").clear()                   # a caller's list, not the table
    assert chain_sets("x1-full") == _parsed_chain_sets("x1-full")


@pytest.mark.parametrize("chain_id", ["", "x1", "x5-a", "x1-c", "X1-a", "x-base ", ["x-base"]])
def test_chain_sets_rejects_unknown_ids(chain_id):
    with pytest.raises(ValueError, match="unknown chain"):
        chain_sets(chain_id)


@pytest.mark.parametrize("chain", ["x-base", "x1-full", "y2-a", "z3-b", "y4-full"])
def test_group_closure_sampled(chain):
    rep = group_closure_sample(chain, 300, seed=11)
    assert rep["fraction"] == 1.0


def test_cross_family_product_not_permutative():
    # explicit members of x1 and y1 whose product leaves the permutative set
    A = np.array([[2, -2, 4, 1], [-2, 2, 1, 4], [4, 1, -2, 2], [1, 4, 2, -2]]) / 5.0
    s2 = math.sqrt(2)
    B = np.array([[s2, 2, -s2, 1], [2, -s2, 1, s2], [-s2, 1, s2, 2], [1, s2, 2, -s2]]) / 3.0
    assert is_orthogonal(A, 1e-12) and is_permutative(A, 1e-12)
    assert is_orthogonal(B, 1e-12) and is_permutative(B, 1e-12)
    assert is_orthogonal(A @ B, 1e-12)
    assert not is_permutative(A @ B, 1e-6)


def test_identity_in_base_chain():
    from coinwalk.coins import in_pattern_set
    assert in_pattern_set(np.eye(4, dtype=complex), "x3", left=True, tol=1e-12)


def test_family_coin_row_and_column_sums_unit():
    from coinwalk.matspace import hadamard_row_sum_check
    for family in COIN_FAMILIES:
        for theta in (0.3, -2.7):
            c = coin_from_theta(family, theta).entries.real
            assert hadamard_row_sum_check(c) == 1


def test_witness_rational_flag():
    from coinwalk.coins import classify
    c = coin_rational("x1", 2)
    w = classify(c.entries)
    assert w.is_real and w.is_rational()
    w2 = classify(coin_from_theta("p24y1", 0.7).entries)
    assert w2.is_real and not w2.is_rational()


def test_witness_j_follows_kind_sign_table():
    from coinwalk.coins import FamilyWitness, _J_KIND_SIGN
    left = ONE_PLUS_P3[0]
    for j, (kind, sign) in _J_KIND_SIGN.items():
        w = FamilyWitness("y", left, kind, sign, 0j, 0j)
        assert (w.j, w.set_tag) == (j, f"y{j}")


def test_in_pattern_set_wrapper():
    from coinwalk.coins import in_pattern_set
    a = set_member_from_theta("y2", 1.3)
    assert in_pattern_set(a, "y2")
    assert not in_pattern_set(a, "y1")
    assert in_pattern_set(np.eye(4), "x3", left=True)  # identity sits in the base group


def test_classify_all_permutation_matrices():
    from coinwalk.perms import ALL_PERMS
    for p in ALL_PERMS:
        m = p.matrix()
        w = classify(m)
        assert np.abs(w.reconstruct() - m).max() < 1e-15
        # permutations sit at variety corners: parameters from {0, +-1}
        vals = {round(complex(w.x).real, 12), round(complex(w.z).real, 12)}
        assert vals <= {0.0, 1.0, -1.0}
        assert w.variety_residual() < 1e-15


def test_classify_negated_permutations():
    from coinwalk.perms import ALL_PERMS
    for p in ALL_PERMS[:8]:
        m = -p.matrix()
        w = classify(m)
        assert np.abs(w.reconstruct() - m).max() < 1e-15


def test_exact_rational_chain_closure():
    # two exact rational members of the same bare set multiply into the
    # P(34)-shifted set with the pattern and variety holding exactly
    from fractions import Fraction
    from coinwalk.perms import P34

    def fr_matmul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)]

    A = coin_rational("x1", Fraction(2)).exact
    B = coin_rational("x1", Fraction(5, 3), z_branch=-1).exact
    AB = fr_matmul(A, B)
    # undo the left (34) factor: swap rows 3 and 4
    M = [AB[0], AB[1], AB[3], AB[2]]
    # exact N+ pattern: [[p,1-p,q,-q],[1-p,p,-q,q],[q,-q,1-p,p],[-q,q,p,1-p]]
    p, q = M[0][0], M[0][2]
    expected = [[p, 1 - p, q, -q], [1 - p, p, -q, q],
                [q, -q, 1 - p, p], [-q, q, p, 1 - p]]
    assert M == expected
    assert p * p + q * q - p == 0
    float_AB = np.array([[float(v) for v in row] for row in AB])
    assert is_orthogonal(float_AB, 1e-12)
    from coinwalk.coins import in_pattern_set
    assert in_pattern_set(float_AB, "x3", left=True, tol=1e-12)


def test_classify_noisy_input_uses_loose_pass():
    rng = np.random.default_rng(3)
    c = coin_from_theta("p23z1", 1.234).entries
    noisy = c + rng.normal(0, 1e-11, (4, 4))
    w = classify(noisy, tol=1e-9)
    assert np.abs(w.reconstruct() - noisy).max() < 1e-9


def _reference_residuals(mats, transforms=slice(None)):
    # the complex full-width kernel that the row-blocked _residuals replaced
    from coinwalk.coins import _E1, _E2, _EC, _GATHER, _J_KIND_SIGN
    T = mats.reshape(len(mats), 16)[:, _GATHER[transforms]]
    slots = T[..., [0, 2]]
    base = slots[..., :1] * _E1.ravel()
    base += slots[..., 1:] * _E2.ravel()
    im2 = T.imag - base.imag
    im2 *= im2
    sq = np.empty(T.shape[:2] + (4,))
    for j, (kind, sign) in _J_KIND_SIGN.items():
        d = T.real - (base.real + sign * _EC[kind].ravel())
        d *= d
        d += im2
        sq[..., j - 1] = d.max(axis=-1)
    return np.sqrt(sq), slots


def test_residuals_match_reference_kernel():
    from coinwalk.coins import _SET_TRANSFORM, _residuals
    rng = np.random.default_rng(10)
    parts = []
    for tag in SET_TAGS:
        th = rng.uniform(-np.pi, np.pi, 80).astype(complex)
        th[:40] += 1j * rng.normal(0, 0.7, 40)
        m = set_member_from_theta(tag, th)
        m[::2] = LEFT[tag[0]] @ m[::2]
        parts.append(m)
    parts.append(rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4)))
    parts.append(rng.choice([-0.5, 0.5], (40, 4, 4)) + 1e-13 * rng.normal(size=(40, 4, 4)))
    mats = np.concatenate(parts).astype(complex)
    mats = mats[rng.permutation(len(mats))]
    assert len(mats) == 1040
    subsets = [slice(None)] + [[t] for t in sorted(set(_SET_TRANSFORM.values()))]
    subsets += [np.unique([_SET_TRANSFORM[f, lm] for f, _, lm in chain_sets(cid)])
                for cid in chain_ids()]
    for B in (1, 127, 128, 129, 1000):
        for transforms in subsets:
            res = _residuals(mats[:B], transforms)
            assert np.array_equal(res, _reference_residuals(mats[:B], transforms)[0])


def test_classify_batch_errors_non_finite_and_empty():
    a = np.stack([set_member_from_theta("y2", 0.4)] * 4)
    a[1, 2, 3] = np.nan
    a[2, 0, 0] = np.inf
    a[3, 3, 1] = -np.inf
    with np.errstate(invalid="ignore"):
        errs = classify_batch_errors(a)
    assert errs[0] <= 1e-15
    assert np.all(errs[1:] == np.inf)
    empty = classify_batch_errors(np.empty((0, 4, 4)))
    assert empty.shape == (0,)


@pytest.mark.parametrize("shape", [(2, 16), (3, 4, 4, 1), (4, 4), (2, 3, 3), (16,)])
def test_classify_batch_errors_rejects_non_batch_shapes(shape):
    with pytest.raises(ValueError, match=r"expects a \(B, 4, 4\) batch"):
        classify_batch_errors(np.zeros(shape))


def test_in_pattern_set_rejects_non_4x4():
    from coinwalk.coins import in_pattern_set
    for a in (np.arange(16.0), np.eye(3), np.eye(4)[None]):
        with pytest.raises(ValueError, match="in_pattern_set expects a 4x4 matrix"):
            in_pattern_set(a, "x1")


@pytest.mark.parametrize("count", [0, -1])
def test_group_closure_sample_rejects_count_below_one(count):
    with pytest.raises(ValueError, match="count must be >= 1"):
        group_closure_sample("x1-full", count, seed=1)


@pytest.mark.parametrize("count", [2.5, 3.0, True, "3", None])
def test_group_closure_sample_rejects_non_integer_count(count):
    with pytest.raises(ValueError, match="count must be an integer"):
        group_closure_sample("x1-full", count, seed=1)


def test_group_closure_sample_takes_numpy_integers():
    assert group_closure_sample("y2-a", np.int64(7), seed=3) == group_closure_sample("y2-a", 7, seed=3)


@pytest.mark.parametrize("z_branch", [0, 2, True, False, 1.0, -1.0, "1", None])
def test_coin_rational_rejects_z_branch_but_plus_minus_one(z_branch):
    with pytest.raises(ValueError, match="z_branch must be"):
        coin_rational("x1", 2, z_branch=z_branch)


@pytest.mark.parametrize("z_branch", [1, -1])
def test_coin_rational_takes_numpy_z_branch(z_branch):
    got = coin_rational("y2", Fraction(3, 5), z_branch=np.int8(z_branch))
    want = coin_rational("y2", Fraction(3, 5), z_branch=z_branch)
    assert got.exact == want.exact and all(type(v) is Fraction for row in got.exact for v in row)


@pytest.mark.parametrize("r", [True, False])
def test_coin_rational_rejects_bool_r(r):
    # Fraction(True) is 1: a flag must not pass as the parameter r = 1
    with pytest.raises(ValueError, match="r must be a Fraction, an integer or a string"):
        coin_rational("x1", r)


@pytest.mark.parametrize("r", [Fraction(2), 2, "2", "2/1", np.int64(2), np.uint8(2)])
def test_coin_rational_takes_fraction_int_str_and_numpy_r(r):
    got = coin_rational("x1", r)
    assert got.exact == coin_rational("x1", Fraction(2, 1)).exact
    assert type(got.r.numerator) is int
    assert json.loads(json.dumps(coin_to_json(got)))["r"] == [2, 1]


@pytest.mark.parametrize("obj", [{}, {"entries_re": 5}, {"entries_re": np.eye(4).tolist(), "r": 3},
                                 {"entries_re": np.eye(4).tolist(), "r": [1, 0]},
                                 {"entries_re": [[[1, 2]]]},
                                 {"entries_re": np.eye(4).tolist(), "entries_im": 7},
                                 {"entries_re": np.eye(4).tolist(), "family": 5},
                                 {"entries_re": np.eye(4).tolist(), "theta": "0.5"}])
def test_coin_from_json_rejects_missing_or_mistyped_fields(obj):
    with pytest.raises(ValueError, match="coin JSON"):
        coin_from_json(obj)


# ---------------------------------------------------------------------------
# the first-row family pruning of the witness search

PRUNE_TOLS = (0.0, 1e-12, 1e-9, 1e-6, 0.3)
EPS = np.finfo(float).eps


def _full_search_witness(mats, tol):
    # the search the pruned one replaced: all 18 transforms, all 72 candidates
    from coinwalk.coins import _residuals
    res = _residuals(mats)
    B = len(mats)
    errs = res.reshape(B, 3, 6, 4).transpose(0, 1, 3, 2).reshape(B, 72)
    best = np.full(B, -1)
    for pass_tol in sorted({min(1e-12, tol), tol}):
        hit = errs <= pass_tol
        new = hit.any(axis=1) & (best < 0)
        best[new] = hit.argmax(axis=1)[new]
    err = np.where(best >= 0, errs[np.arange(B), best], np.inf)
    return best, err


def _member_draws(rng, n, complex_theta=True):
    # as the benchmark draws them: a random set, theta, and left factor
    tags = rng.integers(0, len(SET_TAGS), n)
    th = rng.uniform(-np.pi, np.pi, n).astype(complex)
    if complex_theta:
        cx = rng.random(n) < 0.5
        th[cx] += 1j * rng.normal(0, 0.5, int(cx.sum()))
    left = rng.random(n) < 0.5
    out = np.empty((n, 4, 4), dtype=complex)
    for i in range(n):
        tag = SET_TAGS[tags[i]]
        a = set_member_from_theta(tag, th[i])
        out[i] = LEFT[tag[0]] @ a if left[i] else a
    return out


def _row1_edge_members(tol, rng):
    """Real members with one row-1 entry moved so that the row-1 term of
    their own block lies one ulp either side of tol: moved along the real
    axis, and in random complex directions, where sqrt(re^2 + im^2) and
    hypot can round apart."""
    from coinwalk.coins import _CONJ_IDX, _SET_TRANSFORM, _residuals
    out, own_candidate = [], []
    for t, tag in enumerate(SET_TAGS):
        kind, sign = {1: ("m", 1), 2: ("m", -1), 3: ("n", 1), 4: ("n", -1)}[int(tag[1])]
        a = set_member_from_theta(tag, 0.3 + 0.4 * t).astype(complex)
        c = _CONJ_IDX[tag[0]]
        for pos, slot, own in ((1, 0, kind == "n"), (3, 2, kind == "m")):
            w = (sign if own else 0) - a[0, c[slot]].real
            for phi in (0.0, *rng.uniform(0, 2 * np.pi, 3)):
                d = tol * complex(math.cos(phi), math.sin(phi))
                re, im = w + d.real, d.imag

                def term(r):
                    return math.sqrt((r - w) ** 2 + im ** 2)

                while term(re) > tol:
                    re = math.nextafter(re, -math.inf if re > w else math.inf)
                while term(math.nextafter(re, math.inf if re >= w else -math.inf)) <= tol:
                    re = math.nextafter(re, math.inf if re >= w else -math.inf)
                for r in (re, math.nextafter(re, math.inf if re >= w else -math.inf)):
                    m = a.copy()
                    m[0, c[pos]] = complex(r, im)
                    out += [m, LEFT[tag[0]] @ m]
                    own_candidate += [(_SET_TRANSFORM[tag[0], lm], int(tag[1]) - 1)
                                      for lm in (False, True)]
    out = np.array(out)
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.isfinite(_residuals(out)).all()
    return out, np.array(own_candidate)


def _pruning_inputs(tol):
    rng = np.random.default_rng(18)
    parts = [_member_draws(rng, 240), _member_draws(rng, 120, complex_theta=False)]
    parts.append(_member_draws(rng, 60) + 1e-10 * rng.normal(size=(60, 4, 4)))
    parts.append(rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4)))
    parts.append(rng.normal(size=(20, 4, 4)).astype(complex))
    parts.append(np.stack([G, np.eye(4)]).astype(complex))
    perms = np.array([np.eye(4)[list(q)] for q in permutations(range(4))])
    signs = rng.choice([-1.0, 1.0], (len(perms), 4, 1))
    parts += [perms.astype(complex), (signs * perms).astype(complex), -perms.astype(complex)]
    bad = _member_draws(rng, 8)
    bad[0, 0, 1] = np.nan
    bad[1, 0, 0] = np.inf
    bad[2, 0, 3] = -np.inf
    bad[3, 2, 2] = np.nan
    bad[4, 3, 1] = np.inf
    bad[5, 0, 2] = complex(0, np.nan)
    bad[6] = np.nan
    bad[7, 1, 0] = -np.inf
    parts.append(bad)
    if tol > 0:
        parts.append(_row1_edge_members(tol, rng)[0])
    return np.concatenate(parts)


@pytest.mark.parametrize("tol", PRUNE_TOLS)
def test_pruned_witness_matches_full_search(tol):
    from coinwalk.coins import _CONJ_IDX, _canonical_witness
    mats = _pruning_inputs(tol)
    with np.errstate(invalid="ignore", over="ignore"):
        best, err = _canonical_witness(mats, tol)
        ref_best, ref_err = _full_search_witness(mats, tol)
        ref_slots = _reference_residuals(mats)[1]
    found = ref_best >= 0
    assert np.array_equal(err <= tol, found)
    assert np.array_equal(best[found], ref_best[found])
    assert np.array_equal(err[found], ref_err[found])
    # classify reads the slots off row 1 of A; they are the reference kernel's
    fam, left = ref_best[found] // 24, ref_best[found] % 6
    cols = np.array([_CONJ_IDX[f][[0, 2]] for f in "xyz"])[fam]
    slots = mats[found, 0][np.arange(found.sum())[:, None], cols]
    assert np.array_equal(slots, ref_slots[found, 6 * fam + left])
    assert found.sum() > 200


@pytest.mark.parametrize("tol", PRUNE_TOLS)
def test_pruned_witness_empty_batch(tol):
    from coinwalk.coins import _canonical_witness
    empty = np.empty((0, 4, 4), dtype=complex)
    best, err = _canonical_witness(empty, tol)
    ref_best, ref_err = _full_search_witness(empty, tol)
    assert best.shape == err.shape == ref_best.shape == ref_err.shape == (0,)


def test_row1_bound_never_exceeds_a_residual():
    from coinwalk.coins import _residuals, _row1_bound
    mats = np.concatenate([_pruning_inputs(t) for t in (1e-9, 0.3)])
    with np.errstate(invalid="ignore", over="ignore"):
        bound = _row1_bound(mats)                                   # (j, family, B)
        res = _residuals(mats).reshape(len(mats), 3, 6, 4)         # (B, family, left, j)
    assert not np.any(bound.transpose(2, 1, 0)[:, :, None, :] > res)


def test_row1_bound_is_the_kernel_row1_term():
    # where row 1 alone is off the block, the residual of the matching
    # candidate is the row-1 term, and the bound equals it bit for bit
    from coinwalk.coins import _residuals, _row1_bound
    rng = np.random.default_rng(5)
    for tol in (1e-9, 1e-6, 0.3):
        mats, own = _row1_edge_members(tol, rng)
        t, j = own.T
        at = np.arange(len(mats))
        res = _residuals(mats)[at, t, j]
        assert np.array_equal(_row1_bound(mats)[j, t // 6, at], res)
        # each edge comes as [at or below tol, its left-multiplied copy,
        # one ulp of the entry further out (above tol), its copy]
        lo, hi = res.reshape(-1, 2, 2)[:, :, 0].T
        assert np.all(lo <= tol) and np.all(hi > tol)
        assert np.all(hi - lo <= 4 * EPS)


def test_classify_batch_errors_whole_or_chunked():
    rng = np.random.default_rng(7)
    mats = np.concatenate([_member_draws(rng, 900), rng.normal(size=(60, 4, 4)),
                           _pruning_inputs(1e-9)]).astype(complex)
    mats = mats[rng.permutation(len(mats))]
    with np.errstate(invalid="ignore", over="ignore"):
        whole = classify_batch_errors(mats)
        for cuts in ([1, 2, 3], [127, 128, 129], [500, 1000]):
            edges = [0, *cuts, len(mats)]
            parts = [classify_batch_errors(mats[a:b]) for a, b in zip(edges, edges[1:])]
            assert np.array_equal(np.concatenate(parts), whole)
    assert np.isfinite(whole).sum() > 900
