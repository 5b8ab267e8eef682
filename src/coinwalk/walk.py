"""Direct simulation of the coined walk on the periodic odd lattice Z_N.

State amplitudes live on (chirality, x, y) with centered coordinates
-(N-1)/2..(N-1)/2 and periodic wraparound. One step applies the coin to the
chirality axis and then shifts: R pulls from x-1, L from x+1, U from y-1,
D from y+1. This is the amplitude-update form of the evolution; it serves as
the brute-force oracle for the spectral machinery.

simulate owns the walk in time: it checks N, S, the coin and T, then takes
T steps from the origin, reads P_t at one vertex with probability_at before
each step and after the last, and averages P_0..P_{T-1} by adding them in t
order. `walk simulate` prints what it returns, and time_averaged_probability
is its average. Every |amplitude|^2 of the module is _abs2, np.abs(a ** 2).

A step is one GEMM, the 4x4 coin times the (4, N^2) amplitudes, and one
periodic shift. Up to N = _GATHER_MAX_N the shift is one gather through a
cached flat index, above it eight slice copies (the bulk and the wrapped
edge of each chirality); both copy the same values, so the two paths agree
bit for bit. The coin's degenerate and unitary verdicts are cached on the
Coin, so checking a Coin on every step costs two attribute reads.

Amplitudes are float64 while the coin and the state are real, and complex128
otherwise. initial_state returns float64 amplitudes and step multiplies by
Coin.compact_entries, float64 for a coin whose imaginary parts are all +0.0,
so the four families walk in real arithmetic; a complex coin or a complex
start promotes the product to complex128 on the first step, through numpy's
type rules. The complex product of real factors adds only +0.0 * +0.0 terms
to each real part and leaves every imaginary part +0.0, so the real walk has
the complex walk's values bit for bit wherever the BLAS sums a real and a
complex product in the same order, as OpenBLAS's x86-64 kernels for AVX and
later do; its SSE kernels (Nehalem) round the two differently, to 2e-15. The
sign of an exact zero is the GEMM kernel's choice: OpenBLAS's AVX-512
complex kernel gives some all-zero sums a -0.0 real part, where its real
kernel, and its AVX and AVX2 kernels of both kinds, give +0.0.
WalkState.from_vector returns complex128 amplitudes, so a state written into
in place with complex values starts there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .coins import Coin, _check_count, _index

__all__ = [
    "CHIRALITIES", "chirality_index",
    "index_of", "coords_of", "WalkState", "initial_state",
    "step", "evolve", "probability_at", "position_distribution",
    "simulate", "time_averaged_probability", "time_averaged_chirality_profile",
]

CHIRALITIES = ("R", "L", "U", "D")


def chirality_index(S: str) -> int:
    """l(S): R=1, L=2, U=3, D=4."""
    try:
        return CHIRALITIES.index(S.upper()) + 1
    except ValueError:
        raise ValueError(f"chirality must be one of {CHIRALITIES}, got {S!r}") from None


def _check_lattice(N: int) -> int:
    n = _index(N)
    if n is None or n < 3 or n % 2 == 0:
        raise ValueError(f"lattice side must be odd and >= 3, got {N}")
    return n


def _check_coords(x: int, y: int, N: int) -> int:
    """(N - 1) // 2, after checking that (x, y) lies on the centered lattice."""
    half = (N - 1) // 2
    if not (-half <= x <= half and -half <= y <= half):
        raise ValueError(f"({x},{y}) outside the centered lattice of side {N}")
    return half


def index_of(S: str, x: int, y: int, N: int) -> int:
    """1-based canonical index 4Ny + 4x + l(S) + 2N^2 - 2."""
    _check_lattice(N)
    _check_coords(x, y, N)
    return 4 * N * y + 4 * x + chirality_index(S) + 2 * N * N - 2


def coords_of(w: int, N: int) -> tuple[str, int, int]:
    """Inverse of index_of."""
    _check_lattice(N)
    if not (1 <= w <= 4 * N * N):
        raise ValueError(f"index {w} outside 1..4N^2")
    q = w - 1
    s = q % 4
    q //= 4
    half = (N - 1) // 2
    x = q % N - half
    y = q // N - half
    return CHIRALITIES[s], x, y


@dataclass
class WalkState:
    """Walker state: amps[s, ix, iy] with ix = x + (N-1)/2, iy = y + (N-1)/2."""

    N: int
    amps: np.ndarray            # (4, N, N) float64 or complex128

    def norm(self) -> float:
        """The 2-norm of the amplitudes. For a real state it may differ by an
        ulp from the norm of the same state held as complex128: BLAS sums
        the squares of contiguous and of strided data in different orders."""
        return float(np.linalg.norm(self.amps))

    def amplitude(self, S: str, x: int, y: int) -> complex:
        half = _check_coords(x, y, self.N)
        return complex(self.amps[chirality_index(S) - 1, x + half, y + half])

    def to_vector(self) -> np.ndarray:
        """Flat amplitude vector in canonical index order (1..4N^2)."""
        # index order: y slowest, then x, then chirality
        return self.amps.transpose(2, 1, 0).reshape(-1)

    @classmethod
    def from_vector(cls, vec: np.ndarray, N: int) -> "WalkState":
        """The state of a flat vector in canonical index order, for a lattice
        side the walk takes (odd, >= 3)."""
        N = _check_lattice(N)
        amps = np.asarray(vec, dtype=complex).reshape(N, N, 4).transpose(2, 1, 0)
        return cls(N, amps.copy())


def initial_state(N: int, S: str) -> WalkState:
    """Walker at the origin with coin state |S>, in float64 amplitudes."""
    N = _check_lattice(N)
    amps = np.zeros((4, N, N))
    half = (N - 1) // 2
    amps[chirality_index(S) - 1, half, half] = 1.0
    return WalkState(N, amps)


def _walk_coin(C) -> Coin:
    """C as a Coin the walk accepts. Raises ValueError for the degenerate
    theta = +-pi coins and unless the coin is unitary (max |A^H A - I| <=
    1e-9). A Coin computes both verdicts once, so for a Coin this is an
    isinstance test and two cached reads, and a bare array wrapped here once
    is checked once, however many steps it drives."""
    if not isinstance(C, Coin):
        C = Coin(C)
    if C.degenerate:
        raise ValueError("walk evolution excludes the degenerate theta = +-pi coins")
    if not C.unitary:
        raise ValueError("coin is not unitary (max |A^H A - I| > 1e-9); "
                         "the walk would not preserve norm")
    return C


# The gather reads an 8-byte index per amplitude; the slices cost eight
# copies whatever N is. Whole float64 step, one BLAS thread, 2-core Xeon,
# numpy 2.4, best of 5 in each of three runs: N = 5 2.3-4.0 us gathered
# against 6.2-10.7 us sliced, N = 31 7.0-11.6 against 9.6-15.4 us; the two
# cross near N = 41, at N = 47-51 the slices are 10-20 % faster, and at
# N = 201 the gather is much slower (367-392 against 220-237 us). The bound
# was set on complex128 steps, which crossed between N = 51 and 59; no
# benchmark leg has an N between 41 and 51 to show a move.
_GATHER_MAX_N = 51


@lru_cache(maxsize=None)   # only odd N <= _GATHER_MAX_N: 25 keys, 0.75 MB in all
def _shift_index(N: int) -> np.ndarray:
    """(4, N, N) flat sources of the periodic shift: the shifted state is
    mixed.reshape(-1)[_shift_index(N)] for mixed of 4N^2 amplitudes in C
    order."""
    i = np.arange(4 * N * N).reshape(4, N, N)
    idx = np.stack((np.roll(i[0], 1, axis=0), np.roll(i[1], -1, axis=0),
                    np.roll(i[2], 1, axis=1), np.roll(i[3], -1, axis=1)))
    idx.setflags(write=False)
    return idx


def step(state: WalkState, C) -> WalkState:
    """One evolution step: coin on the chirality axis, then shift, into a
    freshly allocated state (the input is not modified). Raises ValueError
    for a coin that _walk_coin rejects; a bare array is checked on every
    call, a Coin once."""
    N = state.N
    mixed = _walk_coin(C).compact_entries @ state.amps.reshape(4, N * N)
    if N <= _GATHER_MAX_N:
        return WalkState(N, mixed.reshape(-1)[_shift_index(N)])
    mixed = mixed.reshape(4, N, N)
    out = np.empty_like(mixed)
    # each periodic shift is two slice copies: the bulk and the wrapped edge
    out[0, 1:] = mixed[0, :-1]              # R pulls from x-1
    out[0, 0] = mixed[0, -1]
    out[1, :-1] = mixed[1, 1:]              # L pulls from x+1
    out[1, -1] = mixed[1, 0]
    out[2, :, 1:] = mixed[2, :, :-1]        # U pulls from y-1
    out[2, :, 0] = mixed[2, :, -1]
    out[3, :, :-1] = mixed[3, :, 1:]        # D pulls from y+1
    out[3, :, -1] = mixed[3, :, 0]
    return WalkState(N, out)


def evolve(state: WalkState, C, t: int) -> WalkState:
    """The state after t steps. The coin is checked once, before any step,
    so a rejected coin raises even at t = 0. t must be an integer; numpy
    integers pass, bool and float raise ValueError."""
    t = _check_count(t, 0, "t")
    C = _walk_coin(C)
    for _ in range(t):
        state = step(state, C)
    return state


def _abs2(a: np.ndarray) -> np.ndarray:
    """|a|^2 entry by entry, the module's one such expression: a probability,
    a chirality profile and a distribution square the same way."""
    return np.abs(a ** 2)


def probability_at(state: WalkState, x: int, y: int) -> float:
    """P_t((x,y)) = sum over chirality of |amplitude|^2."""
    half = _check_coords(x, y, state.N)
    # np.add.reduce is the reduction .sum() runs, bit for bit, without the
    # method's Python-level dispatch
    return float(np.add.reduce(_abs2(state.amps[:, x + half, y + half])))


def position_distribution(state: WalkState) -> np.ndarray:
    """(N, N) array of vertex probabilities indexed by (ix, iy)."""
    return _abs2(state.amps).sum(axis=0)


def _start(C, N: int, S: str, T: int) -> tuple[WalkState, Coin, int]:
    """The walk's start at the origin in coin state |S>, its coin and T,
    checked in that order: N, S, the coin, then T."""
    state = initial_state(N, S)
    C = _walk_coin(C)
    n = _index(T)
    if n is None:
        raise ValueError(f"T must be an integer, got {T!r}")
    if n < 1:
        raise ValueError("T must be >= 1")     # an average over no steps
    return state, C, n


def _orbit(state: WalkState, C: Coin):
    """state, then the state after each further step, without end: a step
    is taken only when the next state is asked for."""
    while True:
        yield state
        state = step(state, C)


def _time_average(values, T: int):
    """(1/T) times the sum of the first T values, added in t order: a float
    for floats, an array for arrays. Not sum(), whose float rounding
    changed in Python 3.12."""
    acc = 0.0
    for v in islice(values, T):
        acc += v
    return acc / T


def simulate(C, N: int, S: str, T: int, x: int = 0, y: int = 0
             ) -> tuple[list[float], float, WalkState]:
    """The walk started at the origin in coin state |S>, read at (x,y) for
    t = 0..T: returns [P_0, ..., P_T], their time average (1/T) sum_{t<T} P_t
    and the state at t = T. Checks N, S, the coin, T and then (x,y) before
    the first step, and takes T steps, each followed by one probability_at."""
    state, C, T = _start(C, N, S, T)
    probs = []
    for state in islice(_orbit(state, C), T + 1):
        probs.append(probability_at(state, x, y))
    return probs, _time_average(probs, T), state


def time_averaged_probability(C, N: int, S: str, x: int, y: int, T: int) -> float:
    """(1/T) sum_{t=0}^{T-1} P_t((x,y)) for the walk started at the origin
    in coin state |S>: simulate's average, bit for bit."""
    return simulate(C, N, S, T, x, y)[1]


def time_averaged_chirality_profile(C, N: int, S: str, T: int,
                                    x: int = 0, y: int = 0) -> np.ndarray:
    """Per-chirality time-averaged probabilities at a vertex over t < T,
    (4,) array ordered R, L, U, D. Checks its arguments as simulate does."""
    state, C, T = _start(C, N, S, T)
    half = _check_coords(x, y, N)
    return _time_average((_abs2(s.amps[:, x + half, y + half]) for s in _orbit(state, C)), T)
