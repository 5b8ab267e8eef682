import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk.coins import Coin, coin_from_theta, grover_coin, set_member_from_theta
from coinwalk.walk import (
    CHIRALITIES,
    WalkState,
    chirality_index,
    coords_of,
    evolve,
    index_of,
    initial_state,
    position_distribution,
    probability_at,
    simulate,
    step,
    time_averaged_chirality_profile,
    time_averaged_probability,
)


def test_chirality_order():
    assert [chirality_index(S) for S in CHIRALITIES] == [1, 2, 3, 4]


def test_index_examples():
    assert index_of("R", -2, -2, 5) == 1
    assert index_of("D", 2, 2, 5) == 100
    assert index_of("U", 0, 0, 5) == 51


def test_index_bijection_n5():
    seen = set()
    for S in CHIRALITIES:
        for x in range(-2, 3):
            for y in range(-2, 3):
                w = index_of(S, x, y, 5)
                assert coords_of(w, 5) == (S, x, y)
                seen.add(w)
    assert seen == set(range(1, 101))


@given(st.sampled_from([3, 5, 7, 9]), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_index_round_trip(N, s, data):
    half = (N - 1) // 2
    x = data.draw(st.integers(-half, half))
    y = data.draw(st.integers(-half, half))
    S = CHIRALITIES[s]
    assert coords_of(index_of(S, x, y, N), N) == (S, x, y)


def test_index_validation():
    with pytest.raises(ValueError):
        index_of("R", 3, 0, 5)
    with pytest.raises(ValueError):
        index_of("R", 0, 0, 4)
    with pytest.raises(ValueError):
        coords_of(101, 5)


def test_initial_state_positions():
    s = initial_state(5, "R")
    assert s.to_vector()[48] == 1.0  # index 49, 0-based 48
    assert s.norm() == 1.0
    s = initial_state(5, "D")
    assert s.to_vector()[51] == 1.0
    assert abs(s.amplitude("D", 0, 0)) == 1.0


def test_vector_round_trip():
    rng = np.random.default_rng(0)
    v = rng.normal(size=100) + 1j * rng.normal(size=100)
    st5 = WalkState.from_vector(v, 5)
    assert np.abs(st5.to_vector() - v).max() == 0


@pytest.mark.parametrize("N", [4, 2, 1])
def test_from_vector_rejects_lattices_initial_state_rejects(N):
    # a vector of the right length for an even or too small side used to
    # give a state that evolve walked without complaint
    msg = f"lattice side must be odd and >= 3, got {N}"
    with pytest.raises(ValueError, match=msg):
        initial_state(N, "R")
    with pytest.raises(ValueError, match=msg):
        WalkState.from_vector(np.eye(4 * N * N)[0], N)


def test_identity_coin_pure_translation():
    s = initial_state(5, "R")
    s1 = step(s, np.eye(4))
    assert abs(s1.amplitude("R", 1, 0) - 1.0) < 1e-15
    # after N steps the walker recurs exactly
    sN = evolve(s, np.eye(4), 5)
    assert np.abs(sN.amps - s.amps).max() < 1e-12


def test_grover_one_step_amplitudes():
    G = grover_coin()
    s1 = step(initial_state(5, "R"), G)
    assert s1.amplitude("R", 1, 0) == pytest.approx(-0.5)
    assert s1.amplitude("L", -1, 0) == pytest.approx(0.5)
    assert s1.amplitude("U", 0, 1) == pytest.approx(0.5)
    assert s1.amplitude("D", 0, -1) == pytest.approx(0.5)
    assert probability_at(s1, 0, 0) == 0.0
    for x, y in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        assert probability_at(s1, x, y) == pytest.approx(0.25)


def test_probabilities_normalized_every_step():
    c = coin_from_theta("p23z1", 1.1)
    s = initial_state(7, "U")
    for _ in range(25):
        s = step(s, c)
        assert position_distribution(s).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("family", ["p34x1", "p24y1", "p23z1", "x3"])
@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_unitarity_long_run(family, N):
    c = coin_from_theta(family, -1.3)
    s = evolve(initial_state(N, "L"), c, 400)
    assert abs(s.norm() - 1.0) < 1e-12


def test_translation_covariance():
    c = coin_from_theta("p24y1", 0.8)
    s = initial_state(5, "R")
    rolled = WalkState(5, np.roll(s.amps, (1, 2), axis=(1, 2)))
    lhs = evolve(rolled, c, 9).amps
    rhs = np.roll(evolve(s, c, 9).amps, (1, 2), axis=(1, 2))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_degenerate_coin_rejected():
    c = coin_from_theta("p24y1", math.pi)
    with pytest.raises(ValueError):
        step(initial_state(5, "R"), c)


def test_nonunitary_coin_rejected():
    s = initial_state(3, "R")
    with pytest.raises(ValueError, match="unitary"):
        step(s, np.eye(4) * 1.001)


def test_complex_orthogonal_coin_rejected_by_evolve():
    # A^T A = I holds, but max |A^H A - I| = 0.59: the norm would grow
    a = set_member_from_theta("x3", 0.7 + 0.5j)
    with pytest.raises(ValueError, match="unitary"):
        evolve(initial_state(5, "R"), a, 20)


def test_time_average_t1_is_origin_probability():
    c = coin_from_theta("x3", 2.2)
    assert time_averaged_probability(c, 5, "R", 0, 0, 1) == 1.0


def test_x3_permutation_coin_cycles():
    # theta = 0 makes the coin the (34) permutation: R drifts right with
    # period N, U bounces with period 2
    c = coin_from_theta("x3", 0.0)
    assert time_averaged_probability(c, 5, "R", 0, 0, 2000) == pytest.approx(1 / 5)
    assert time_averaged_probability(c, 5, "U", 0, 0, 2000) == pytest.approx(1 / 2)


def test_chirality_profile_sums_to_position_average():
    c = coin_from_theta("p34x1", 0.5)
    prof = time_averaged_chirality_profile(c, 5, "R", 300)
    total = time_averaged_probability(c, 5, "R", 0, 0, 300)
    assert prof.sum() == pytest.approx(total, abs=1e-14)


def test_grover_time_average_matches_spectral_value():
    # the Grover point has a triply degenerate (0,0) block; the grouped
    # spectral average must still match direct evolution
    from coinwalk.coins import grover_coin
    from coinwalk.spectral import finite_N_pbar_matrix
    g = grover_coin()
    T = 2000
    emp = time_averaged_chirality_profile(g, 5, "R", T)
    exact = finite_N_pbar_matrix(g, 5)[:, 0]
    assert np.abs(emp - exact).max() < 5.0 / T


@pytest.mark.slow
def test_unitarity_ten_thousand_steps():
    c = coin_from_theta("p23z1", 0.9)
    s = evolve(initial_state(9, "D"), c, 10_000)
    assert abs(s.norm() - 1.0) < 1e-10


def test_evolve_checks_coin_at_t0():
    s = initial_state(5, "R")
    with pytest.raises(ValueError, match="unitary"):
        evolve(s, np.eye(4) * 1.001, 0)
    with pytest.raises(ValueError, match="degenerate"):
        evolve(s, coin_from_theta("p24y1", -math.pi), 0)
    assert evolve(s, grover_coin(), 0) is s


def test_evolve_rejects_negative_t():
    with pytest.raises(ValueError, match="t must be >= 0"):
        evolve(initial_state(5, "R"), grover_coin(), -1)


def test_chirality_profile_rejects_empty_average():
    for T in (0, -2):
        with pytest.raises(ValueError, match="T must be >= 1"):
            time_averaged_chirality_profile(grover_coin(), 5, "R", T)


def test_chirality_profile_steps_once_per_averaged_state(monkeypatch):
    # the average reads t = 0..T-1, so it takes T - 1 steps
    import coinwalk.walk as walk_mod
    calls = []
    real = walk_mod.step
    monkeypatch.setattr(walk_mod, "step", lambda *a: calls.append(1) or real(*a))
    got = time_averaged_chirality_profile(grover_coin(), 5, "R", 7)
    assert len(calls) == 6
    states = [initial_state(5, "R")]
    for _ in range(6):
        states.append(real(states[-1], grover_coin()))
    want = np.mean([np.abs(s.amps[:, 2, 2]) ** 2 for s in states], axis=0)
    assert np.abs(got - want).max() < 1e-15


def test_chirality_profile_checks_coin():
    with pytest.raises(ValueError, match="unitary"):
        time_averaged_chirality_profile(np.eye(4) * 1.001, 5, "R", 1)


@pytest.mark.parametrize("N, T", [(5, 1), (7, 40), (53, 6)])
def test_simulate_reads_the_evolved_states(N, T):
    coin = coin_from_theta("p23z1", 1.3)
    probs, pbar, state = simulate(coin, N, "D", T, 1, -1)
    states = [evolve(initial_state(N, "D"), coin, t) for t in range(T + 1)]
    assert probs == [probability_at(s, 1, -1) for s in states]
    assert np.array_equal(state.amps, states[-1].amps)
    acc = 0.0
    for p in probs[:T]:
        acc += p
    assert pbar == acc / T == time_averaged_probability(coin, N, "D", 1, -1, T)


@pytest.mark.parametrize("walk_fn", [
    simulate,
    lambda C, N, S, T, x, y: time_averaged_probability(C, N, S, x, y, T),
    lambda C, N, S, T, x, y: time_averaged_chirality_profile(C, N, S, T, x, y),
])
def test_walk_checks_lattice_chirality_coin_T_then_vertex(walk_fn):
    bad_coin, coin = np.eye(4) * 1.001, grover_coin()
    for args, match in [
        ((bad_coin, 4, "Q", 0, 9, 9), "lattice side must be odd"),
        ((bad_coin, 5, "Q", 0, 9, 9), "chirality must be one of"),
        ((bad_coin, 5, "R", 0, 9, 9), "unitary"),
        ((coin, 5, "R", 0, 9, 9), "^T must be >= 1$"),
        ((coin, 5, "R", 2.0, 9, 9), "^T must be an integer, got 2.0$"),
        ((coin, 5, "R", 1, 9, 9), "outside the centered lattice"),
    ]:
        with pytest.raises(ValueError, match=match):
            walk_fn(*args)


def test_coin_unitarity_checked_once(monkeypatch):
    import coinwalk.coins as coins_mod
    calls = []
    real = coins_mod.is_unitary
    monkeypatch.setattr(coins_mod, "is_unitary", lambda A, *a: calls.append(1) or real(A, *a))
    evolve(initial_state(5, "R"), grover_coin().entries, 12)
    assert len(calls) == 1


# the roll-based step the fused step replaced, kept as its oracle
def _roll_step(amps: np.ndarray, C: np.ndarray) -> np.ndarray:
    mixed = np.einsum("ij,jxy->ixy", C, amps)
    return np.stack([
        np.roll(mixed[0], 1, axis=0),    # R pulls from x-1
        np.roll(mixed[1], -1, axis=0),   # L pulls from x+1
        np.roll(mixed[2], 1, axis=1),    # U pulls from y-1
        np.roll(mixed[3], -1, axis=1),   # D pulls from y+1
    ])


def _haar(rng, real: bool) -> np.ndarray:
    z = rng.standard_normal((4, 4))
    if not real:
        z = z + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_state(rng, N: int) -> WalkState:
    amps = rng.standard_normal((4, N, N)) + 1j * rng.standard_normal((4, N, N))
    return WalkState(N, amps / np.linalg.norm(amps))


@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([3, 5, 7, 101]),
       st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_fused_step_matches_roll_oracle(seed, real, N, t):
    rng = np.random.default_rng(seed)
    C = _haar(rng, real)
    s0 = _random_state(rng, N)
    want = s0.amps
    for _ in range(t):
        want = _roll_step(want, C)
    assert np.abs(evolve(s0, C, t).amps - want).max() < 1e-13
    # the origin start, where a swapped shift moves the walker visibly
    want = initial_state(N, "U").amps
    for _ in range(t):
        want = _roll_step(want, C)
    assert np.abs(evolve(initial_state(N, "U"), Coin(C), t).amps - want).max() < 1e-13


@pytest.mark.parametrize("N", [3, 101])
def test_step_leaves_input_unmodified(N):
    s = _random_state(np.random.default_rng(N), N)
    before = s.amps.copy()
    out = step(s, coin_from_theta("p23z1", 0.4))
    assert np.array_equal(s.amps, before)
    assert not np.shares_memory(out.amps, s.amps)
    out.amps[...] = 0
    assert np.array_equal(s.amps, before)


# the slice step that the small-lattice gather replaced, kept as its exact oracle
def _slice_step(amps: np.ndarray, C: np.ndarray) -> np.ndarray:
    N = amps.shape[1]
    mixed = (C @ amps.reshape(4, N * N)).reshape(4, N, N)
    out = np.empty_like(mixed)
    out[0, 1:] = mixed[0, :-1]
    out[0, 0] = mixed[0, -1]
    out[1, :-1] = mixed[1, 1:]
    out[1, -1] = mixed[1, 0]
    out[2, :, 1:] = mixed[2, :, :-1]
    out[2, :, 0] = mixed[2, :, -1]
    out[3, :, :-1] = mixed[3, :, 1:]
    out[3, :, -1] = mixed[3, :, 0]
    return out


SWITCH_NS = (3, 5, 41, 63, 65, 101)


def test_switch_sizes_cover_both_shift_paths():
    import coinwalk.walk as walk_mod
    assert min(SWITCH_NS) <= walk_mod._GATHER_MAX_N < max(SWITCH_NS)


@pytest.mark.parametrize("N", SWITCH_NS)
@pytest.mark.parametrize("real", [True, False])
def test_step_equals_slice_step_bit_for_bit(N, real):
    rng = np.random.default_rng([N, real])
    C = _haar(rng, real)
    coin = Coin(C)
    # the slice chain multiplies by the coin step multiplies by, so that it
    # runs the same GEMM (test_real_walk_equals_complex_walk compares the
    # float64 product of a real start with the complex128 one)
    for s in (_random_state(rng, N), initial_state(N, "D")):
        want = s.amps
        for _ in range(4):
            want = _slice_step(want, coin.compact_entries)
            s = step(s, coin)
            assert s.amps.shape == (4, N, N)
            assert np.array_equal(s.amps, want)
        # a bare array takes the same route
        assert np.array_equal(step(s, C).amps, _slice_step(s.amps, coin.compact_entries))


@pytest.mark.parametrize("N", [3, 5, 65])
def test_probability_at_equals_numpy_formula_bit_for_bit(N):
    rng = np.random.default_rng(N)
    half = (N - 1) // 2
    for _ in range(3):
        s = _random_state(rng, N)
        for x in range(-half, half + 1):
            for y in range(-half, half + 1):
                v = s.amps[:, x + half, y + half]
                assert probability_at(s, x, y) == float(np.abs(v ** 2).sum().real)


def test_probability_at_rejects_outside_vertices():
    s = initial_state(5, "R")
    for x, y in [(3, 0), (0, -3), (-3, 3)]:
        with pytest.raises(ValueError, match="outside the centered lattice of side 5"):
            probability_at(s, x, y)


_COORD_CALLS = {
    "index_of": lambda x, y: index_of("R", x, y, 5),
    "amplitude": lambda x, y: initial_state(5, "R").amplitude("R", x, y),
    "probability_at": lambda x, y: probability_at(initial_state(5, "R"), x, y),
    "simulate": lambda x, y: simulate(coin_from_theta("x3", 0.7), 5, "R", 3, x, y),
    "chirality_profile": lambda x, y: time_averaged_chirality_profile(
        coin_from_theta("x3", 0.7), 5, "R", 3, x, y),
}


@pytest.mark.parametrize("x, y", [(0.5, 0), (True, 0), (0.0, 0), (0, 1.0),
                                  (np.float64(1), 0), (0, "1"), (None, 0)])
@pytest.mark.parametrize("call", _COORD_CALLS.values(), ids=_COORD_CALLS)
def test_coordinates_follow_the_integer_rule(call, x, y):
    # a float or bool coordinate is not truncated or read as 0 / 1
    with pytest.raises(ValueError, match=r"^coordinates must be integers, got \("):
        call(x, y)


@pytest.mark.parametrize("call", _COORD_CALLS.values(), ids=_COORD_CALLS)
def test_coordinates_take_numpy_integers(call):
    want = call(1, -2)
    got = call(np.int64(1), np.int8(-2))
    if isinstance(want, tuple):                 # simulate: probs, average, state
        assert got[:2] == want[:2] and np.array_equal(got[2].amps, want[2].amps)
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("w", [3.0, 0.5, True, None, "3"])
def test_coords_of_index_follows_the_integer_rule(w):
    with pytest.raises(ValueError, match="^index must be an integer, got "):
        coords_of(w, 5)


def test_coords_of_takes_numpy_integers():
    assert coords_of(np.int64(51), 5) == coords_of(51, 5) == ("U", 0, 0)
    assert all(type(v) is int for v in coords_of(np.uint16(100), 5)[1:])


@pytest.mark.parametrize("N", [5, 65])
def test_step_and_probability_call_no_public_walk_function(monkeypatch, N):
    # the traced benchmark wraps every public coinwalk.walk function, so a
    # nested call would add a child span to every step
    import inspect

    import coinwalk.walk as walk_mod
    the_step, the_probability = walk_mod.step, walk_mod.probability_at
    calls = []
    for name, fn in list(vars(walk_mod).items()):
        if (inspect.isfunction(fn) and fn.__module__ == walk_mod.__name__
                and not name.startswith("_")):
            monkeypatch.setattr(walk_mod, name,
                                lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
    s = _random_state(np.random.default_rng(N), N)
    coin = coin_from_theta("p34x1", 0.9)
    the_probability(the_step(s, coin), 1, -1)
    the_probability(the_step(s, coin.entries), 0, 0)
    assert calls == []


def test_step_caches_both_coin_verdicts():
    coin = coin_from_theta("x3", 0.2)
    step(initial_state(3, "R"), coin)
    assert {"degenerate", "unitary"} <= vars(coin).keys()


@pytest.mark.parametrize("N", [np.int64(5), np.uint8(5)])
def test_lattice_side_takes_numpy_integers(N):
    s = initial_state(N, "R")
    assert type(s.N) is int and s.N == 5
    assert np.array_equal(s.amps, initial_state(5, "R").amps)


@pytest.mark.parametrize("t", [True, 2.5, 2.0, float("nan"), "2"])
def test_evolve_rejects_non_integer_t(t):
    # True is no step count, and 2.5 used to raise TypeError
    with pytest.raises(ValueError, match="t must be an integer"):
        evolve(initial_state(5, "R"), grover_coin(), t)


@pytest.mark.parametrize("t", [np.int64(3), np.uint8(3)])
def test_evolve_takes_numpy_integer_t(t):
    s = initial_state(5, "R")
    assert np.array_equal(evolve(s, grover_coin(), t).amps, evolve(s, grover_coin(), 3).amps)


@pytest.mark.parametrize("T", [True, 2.5, 3.0])
def test_chirality_profile_rejects_non_integer_T(T):
    with pytest.raises(ValueError, match="T must be an integer"):
        time_averaged_chirality_profile(grover_coin(), 5, "R", T)


def _bits_equal(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal values and equal sign bits, so that -0.0 and +0.0 differ."""
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _blas_rounds_real_as_complex() -> bool:
    """Whether this BLAS rounds a real 4x4 @ (4, n) product as it rounds the
    same product held in complex128. OpenBLAS's x86-64 kernels for AVX and
    later (Sandybridge, Haswell, Zen, SkylakeX) do; its SSE kernels
    (Nehalem, Atom, Barcelona) sum the real product in another order."""
    rng = np.random.default_rng(0)
    C, A = rng.standard_normal((4, 4)), rng.standard_normal((4, 39))
    return np.array_equal(C @ A, (C.astype(complex) @ A.astype(complex)).real)


REAL_ROUNDS_AS_COMPLEX = _blas_rounds_real_as_complex()


def _assert_real_walk_agrees(real, cplx):
    """The real walk's values are the complex walk's bit for bit where the
    BLAS rounds the two products alike, else equal to roundoff (at most
    2.4e-15 over test_real_walk_equals_complex_walk's grid on OpenBLAS's
    Nehalem kernel). Equal values have equal signs, except that an exact
    zero's sign is the GEMM kernel's: OpenBLAS's AVX-512 (SkylakeX) complex
    kernel gives some all-zero sums a -0.0 real part, where its real kernel
    and its Haswell and Sandybridge kernels of both kinds give +0.0."""
    if REAL_ROUNDS_AS_COMPLEX:
        assert np.array_equal(real, cplx)
    else:
        np.testing.assert_allclose(real, cplx, rtol=0, atol=1e-13)


FAMILIES = ("p34x1", "p24y1", "p23z1", "x3")
REAL_THETAS = (-2.9, -math.pi / 2, 0.0, 0.7, 2.5)
# up to 300 steps; fewer where a step moves more data
REAL_STEPS = {3: 300, 5: 300, 51: 30, 53: 30, 201: 6}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("N", sorted(REAL_STEPS))
def test_real_walk_equals_complex_walk(family, N):
    # a real coin on a real start walks in float64; the complex128 slice
    # chain of the same coin and start must give the same values and
    # imaginary parts that are all +0.0
    for theta in REAL_THETAS:
        coin = coin_from_theta(family, theta)
        assert coin.compact_entries.dtype == np.float64
        assert not coin.compact_entries.flags.writeable
        for S in CHIRALITIES:
            s = initial_state(N, S)
            assert s.amps.dtype == np.float64
            want = s.amps.astype(complex)
            for _ in range(REAL_STEPS[N]):
                s = step(s, coin)
                want = _slice_step(want, coin.entries)
                assert s.amps.dtype == np.float64
                _assert_real_walk_agrees(s.amps, want.real)
                assert not want.imag.any() and not np.signbit(want.imag).any()
            assert _bits_equal(evolve(initial_state(N, S), coin, REAL_STEPS[N]).amps, s.amps)


def test_complex_coin_or_start_stays_complex():
    rng = np.random.default_rng(7)
    N = 5
    real_coin = coin_from_theta("p24y1", 0.7)
    e = real_coin.entries.copy()
    e.imag[2, 1] = -0.0
    minus_zero = Coin(e)
    assert np.signbit(minus_zero.entries.imag).sum() == 1
    for coin, start in [
        (Coin(_haar(rng, False)), initial_state(N, "R")),          # complex coin
        (real_coin, _random_state(rng, N)),                         # complex start
        (real_coin, WalkState.from_vector(initial_state(N, "U").to_vector(), N)),
        (minus_zero, initial_state(N, "R")),                        # a -0.0 imaginary part
    ]:
        assert evolve(start, coin, 3).amps.dtype == np.complex128
        assert step(start, coin.entries).amps.dtype == np.complex128
    assert minus_zero.compact_entries is minus_zero.entries
    # the complex start from a real vector still walks the same values
    s = WalkState.from_vector(initial_state(N, "U").to_vector(), N)
    _assert_real_walk_agrees(evolve(initial_state(N, "U"), real_coin, 9).amps,
                             evolve(s, real_coin, 9).amps)


@pytest.mark.parametrize("N", [5, 53])
def test_real_walk_keeps_profile_and_distribution_bits(N):
    coin = coin_from_theta("p23z1", -1.2)
    T, (x, y) = 40, (1, -2)
    s, c = initial_state(N, "L"), WalkState(N, initial_state(N, "L").amps.astype(complex))
    ix, iy = x + (N - 1) // 2, y + (N - 1) // 2
    acc = np.abs(c.amps[:, ix, iy]) ** 2
    for _ in range(T - 1):
        s, c = step(s, coin), WalkState(N, _slice_step(c.amps, coin.entries))
        acc += np.abs(c.amps[:, ix, iy]) ** 2
        # sums of squares: equal values are equal bits
        _assert_real_walk_agrees(position_distribution(s), position_distribution(c))
        _assert_real_walk_agrees(probability_at(s, x, y), probability_at(c, x, y))
    _assert_real_walk_agrees(time_averaged_chirality_profile(coin, N, "L", T, x, y), acc / T)
