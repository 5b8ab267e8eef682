"""Direct simulation of the coined walk on the periodic odd lattice Z_N.

State amplitudes live on (chirality, x, y) with centered coordinates
-(N-1)/2..(N-1)/2 and periodic wraparound. One step applies the coin to the
chirality axis and then shifts: R pulls from x-1, L from x+1, U from y-1,
D from y+1. This is the amplitude-update form of the evolution; it serves as
the brute-force oracle for the spectral machinery.

A step is one GEMM, the 4x4 coin times the (4, N^2) amplitudes, and one
periodic shift. Up to N = _GATHER_MAX_N the shift is one gather through a
cached flat index, above it eight slice copies (the bulk and the wrapped
edge of each chirality); both copy the same values, so the two paths agree
bit for bit. The coin's degenerate and unitary verdicts are cached on the
Coin, so checking a Coin on every step costs two attribute reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coins import Coin, _check_count, _index

__all__ = [
    "CHIRALITIES", "chirality_index",
    "index_of", "coords_of", "WalkState", "initial_state",
    "step", "evolve", "probability_at", "position_distribution",
    "time_averaged_probability", "time_averaged_chirality_profile",
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
    amps: np.ndarray            # (4, N, N) complex

    def norm(self) -> float:
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
        amps = np.asarray(vec, dtype=complex).reshape(N, N, 4).transpose(2, 1, 0)
        return cls(N, amps.copy())


def initial_state(N: int, S: str) -> WalkState:
    """Walker at the origin with coin state |S>."""
    N = _check_lattice(N)
    amps = np.zeros((4, N, N), dtype=complex)
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
# copies whatever N is. Whole step, one BLAS thread, 2-core Xeon, numpy 2.4,
# three runs: N = 5 3.5-3.9 us gathered against 9.7-11.6 us sliced, N = 47
# 26-41 against 30-42 us; the two cross between N = 51 and 59, and at N = 201
# the gather is slower (659-818 against 599-754 us).
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
    mixed = _walk_coin(C).entries @ state.amps.reshape(4, N * N)
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


def probability_at(state: WalkState, x: int, y: int) -> float:
    """P_t((x,y)) = sum over chirality of |amplitude|^2."""
    half = _check_coords(x, y, state.N)
    return float(np.abs(state.amps[:, x + half, y + half] ** 2).sum().real)


def position_distribution(state: WalkState) -> np.ndarray:
    """(N, N) array of vertex probabilities indexed by (ix, iy)."""
    return (np.abs(state.amps) ** 2).sum(axis=0)


def time_averaged_probability(C, N: int, S: str, x: int, y: int, T: int) -> float:
    """(1/T) sum_{t=0}^{T-1} P_t((x,y)) for the walk started at the origin
    in coin state |S>."""
    return float(time_averaged_chirality_profile(C, N, S, T, x, y).sum())


def time_averaged_chirality_profile(C, N: int, S: str, T: int,
                                    x: int = 0, y: int = 0) -> np.ndarray:
    """Per-chirality time-averaged probabilities at a vertex, (4,) array
    ordered R, L, U, D. Raises ValueError for T < 1, a T that is not an
    integer and a rejected coin."""
    T = _check_count(T, 1, "T")
    C = _walk_coin(C)
    state = initial_state(N, S)
    half = _check_coords(x, y, N)
    ix, iy = x + half, y + half
    acc = np.abs(state.amps[:, ix, iy]) ** 2
    for _ in range(T - 1):
        state = step(state, C)
        acc += np.abs(state.amps[:, ix, iy]) ** 2
    return acc / T
