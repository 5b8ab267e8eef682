"""Construction and classification of 4x4 permutative orthogonal matrices.

Every permutative (complex) orthogonal 4x4 matrix is L * Conj * Block * Conj
for a row permutation L fixing index 1, a conjugator Conj in {I, P23, P24}
selecting the x/y/z pattern family, and a two-parameter block of kind M or N
carrying a sign. The block entries are an affine function of the two
parameters and the permutations act as index gathers, so the algebra is
written once in each direction:

- `_block` builds Conj * Block * Conj from the two parameters. Array
  parameters give a stack, Fraction parameters an exact block. Set members,
  rational coins, witness reconstructions and the family coins come from it.
- `_residuals` reads a (B, 4, 4) batch under (conjugator, left) transforms,
  all 18 by default, and returns how far each transformed matrix lies from
  each of the four (kind, sign) blocks built from its own entries.
  `classify`, `classify_batch_errors`, `in_pattern_set` and
  `group_closure_sample` all read through it. It works on blocks of
  `_ROWS` matrices in float arithmetic only, entry position first. The
  part the four blocks share is computed once per block: the distance at
  the eight positions outside both EC supports, and at the other kind's
  EC positions. Each (kind, sign) block adds only its own four signed
  positions.
- `_canonical_witness` finds the first of the 72 candidates, 18 transforms
  times 4 blocks, within tol. Left factors fix row 1 and the conjugators
  fix column 1, so the six transforms of a family all have A's row 1
  (gathered by the conjugator) as their row 1, and its distance from the
  block, the row-1 bound, is a term of every residual of the family.
  `_row1_bound` computes it for the three families and four blocks with
  the kernel's own arithmetic, so for finite entries it is the kernel's
  row-1 term bit for bit. `_residuals` then reads only the families whose
  bound is within tol for some block: for a generic matrix one family, 6
  of the 18 transforms. Skipped candidates could not have matched, so the
  witness and its residual are those of the full search, bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Real

import numpy as np

from .perms import ONE_PLUS_P3, P23, P24, P34, Permutation4, matrix_to_perm

__all__ = [
    "Coin", "FamilyWitness", "NotOrthogonalError", "NotPermutativeError",
    "COIN_FAMILIES", "SET_TAGS",
    "grover_coin", "coin_from_theta", "coin_rational", "build_permutative",
    "orthogonality_residual", "is_orthogonal", "is_unitary", "is_permutative",
    "classify",
    "set_member_from_theta", "in_pattern_set",
    "chain_ids", "chain_sets", "group_closure_sample",
    "coin_to_json", "coin_from_json",
]

COIN_FAMILIES = ("p34x1", "p24y1", "p23z1", "x3")
_GENERALIZED_GROVER = COIN_FAMILIES[:3]   # a set's left factor times its member; x3 is bare

# Bare pattern sets of the classification, tagged by family letter and index.
SET_TAGS = tuple(f"{f}{j}" for f in "xyz" for j in (1, 2, 3, 4))

# Blocks are slot1*E1 + slot2*E2 + sign*EC_<kind>. Kind M has parameters
# (A-block, B-block) = (slot1, slot2); kind N swaps them.
_E1 = np.array([[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, -1, 1], [0, 0, 1, -1]])
_E2 = np.array([[0, 0, 1, -1], [0, 0, -1, 1], [1, -1, 0, 0], [-1, 1, 0, 0]])
_EC = {"m": np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
       "n": np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])}

_CONJ = {"x": np.eye(4), "y": P23, "z": P24}
# the conjugators as index gathers: (Conj B Conj)[i, k] = B[c[i], c[k]]
_CONJ_IDX = {f: np.argmax(conj, axis=1) for f, conj in _CONJ.items()}
_LEFT = {"x": P34, "y": P24, "z": P23}  # multipliers of the generalized-Grover sets

# j -> (kind, sign); also the order of the last axis of _residuals
_J_KIND_SIGN = {1: ("m", 1), 2: ("m", -1), 3: ("n", 1), 4: ("n", -1)}
_KIND_SIGN_J = {ks: j for j, ks in _J_KIND_SIGN.items()}
_MATCH_TOL = 1e-9  # of classify_batch_errors and group_closure_sample

def _gather_index(fam: str, left: Permutation4) -> np.ndarray:
    """Flat indices reading Conj * left^T * A * Conj off A.reshape(16)."""
    c = _CONJ_IDX[fam]
    rows = np.argmax(left.matrix().T, axis=1)[c]
    return (4 * rows[:, None] + c).ravel()


# the 18 (conjugator, left) transforms, family-major: row t of _GATHER reads
# family "xyz"[t // 6] under left permutation ONE_PLUS_P3[t % 6]
_GATHER = np.array([_gather_index(f, left) for f in "xyz" for left in ONE_PLUS_P3])
# _residuals reads the 16 entries in this order: the 8 positions outside both
# EC supports (the slots (1, 1) and (1, 3) first), then EC_m's, then EC_n's
_ORDER = np.concatenate([np.flatnonzero(_EC["m"] + _EC["n"] == 0),
                         np.flatnonzero(_EC["m"]), np.flatnonzero(_EC["n"])])
_READ = _GATHER[:, _ORDER].T                               # (16, 18)
_E12 = np.stack([_E1.ravel(), _E2.ravel()], axis=1)[_ORDER].astype(float)  # (16, 2)
_SIGN = np.array([1.0, -1.0])[:, None, None]               # the sign axis of a kind
# matrices per block of _residuals: its (2, 16, nt * 128) float64
# temporaries, for the nt transforms a caller reads (6 in _canonical_witness,
# 1 or 2 in the others), are at most 197 KB each and stay in L2
_ROWS = 128
# Row 1 of every transform of family f is A[0, _CONJ_IDX[f]], as left
# factors fix row 1. _ROW1 holds its columns at the slots (1, 1), (1, 3)
# and at the positions (1, 2), (1, 4): (slot / entry, position, 1, family).
_ROW1 = np.stack([_CONJ_IDX[f].reshape(2, 2).T for f in "xyz"], axis=-1)[:, :, None]
# what the blocks j = 1..4 subtract at (1, 2) and (1, 4) besides base: sign
# at the block's own EC position, (1, 4) for kind m and (1, 2) for kind n
_ROW1_SIGN = np.array([[0, 0, 1, -1], [1, -1, 0, 0]], dtype=complex)[:, :, None, None]
# (family, left-multiplied) -> the transform that reads that bare set
# (ONE_PLUS_P3[0] is the identity)
_SET_TRANSFORM = {(f, lm): 6 * i + (ONE_PLUS_P3.index(matrix_to_perm(_LEFT[f])) if lm else 0)
                  for i, f in enumerate("xyz") for lm in (False, True)}


# the package's integer-argument rule; it lives here because every other
# module imports coins
def _index(value) -> int | None:
    """value as an int if it is an integer: Python's and numpy's integer
    types pass; bool, float (even 5.0 or NaN) and the rest give None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _check_count(value, least: int, what: str) -> int:
    """value as an int of at least `least`; ValueError unless _index takes it."""
    n = _index(value)
    if n is None:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if n < least:
        raise ValueError(f"{what} must be >= {least}, got {n}")
    return n


class NotOrthogonalError(ValueError):
    pass


class NotPermutativeError(ValueError):
    pass


@dataclass(frozen=True)
class Coin:
    """A 4x4 coin matrix with provenance metadata.

    entries is a read-only complex128 copy (compact_entries is its float64
    twin when the coin is exactly real); exact, when present, carries the
    same matrix as Fractions (rational coins are exactly orthogonal in that
    representation). degenerate and unitary are derived from the fields, so
    no constructor call can contradict them. A named family with a theta must
    match that family's coin within 1e-12, and theta must lie in [-pi, pi]:
    the walk reads the entries, the spectral closed forms read family and
    theta.
    """

    entries: np.ndarray
    family: str = "raw"
    theta: float | None = None
    r: Fraction | None = None
    exact: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        e = np.array(self.entries, dtype=complex)
        if e.shape != (4, 4):
            raise ValueError("coin must be 4x4")
        if named := _named_family(self):   # theta first: sin cannot take an infinite one
            if not np.abs(e - _family_matrix(named[0], _check_theta(named[1]))).max() <= 1e-12:
                raise ValueError(f"entries differ from {self.family}(theta={self.theta})")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @cached_property
    def degenerate(self) -> bool:
        """True at the theta = +-pi endpoints of the named families; computed once."""
        named = _named_family(self)
        return bool(named) and math.isclose(abs(named[1]), math.pi, rel_tol=0, abs_tol=1e-12)

    @cached_property
    def unitary(self) -> bool:
        """is_unitary(entries) at tol 1e-9, computed once per coin."""
        return is_unitary(self.entries)

    @cached_property
    def compact_entries(self) -> np.ndarray:
        """entries in the narrowest dtype that holds them exactly, computed
        once per coin: a read-only float64 copy when every imaginary part is
        +0.0, else entries itself. A -0.0 imaginary part keeps the coin
        complex: (a - 0.0i)(c + 0.0i) has the real part a c + 0.0, which is
        +0.0 where the real product a c is -0.0."""
        im = self.entries.imag
        if im.any() or np.signbit(im).any():
            return self.entries
        e = self.entries.real.copy()
        e.setflags(write=False)
        return e


def _named_family(coin) -> tuple[str, float] | None:
    """(family, theta) of a named family Coin with a theta; None for any other coin."""
    named = isinstance(coin, Coin) and coin.family in COIN_FAMILIES and coin.theta is not None
    return (coin.family, float(coin.theta)) if named else None


def grover_coin() -> Coin:
    """The Grover diffusion coin (off-diagonal 1/2, diagonal -1/2): p24y1 at theta = -pi/2."""
    return coin_from_theta("p24y1", -math.pi / 2)


def _block(fam: str, kind: str, sign: int, x, z) -> np.ndarray:
    """Conj * Block * Conj with Block = M^sign_{x,z} (kind "m") or N^sign_{z,x}
    (kind "n"). Array parameters give a (..., 4, 4) stack; Fraction
    parameters give an object array of exact Fractions."""
    slot1, slot2 = (x, z) if kind == "m" else (z, x)
    b = (np.asarray(slot1)[..., None, None] * _E1 + np.asarray(slot2)[..., None, None] * _E2
         + sign * _EC[kind])
    c = _CONJ_IDX[fam]
    return b[..., c[:, None], c]


def set_member_from_theta(tag: str, theta) -> np.ndarray:
    """Member of a bare pattern set (x1..z4) at parameter theta:
    x = sin(theta)/2 and z = sign (1 + cos(theta))/2 lie on the defining
    variety. theta may be complex, or an array giving a (..., 4, 4) stack."""
    kind, sign = _J_KIND_SIGN[int(tag[1])]
    return _block(tag[0], kind, sign, np.sin(theta) / 2, sign * (1 + np.cos(theta)) / 2)


def _check_theta(theta) -> float:
    """theta as a float in [-pi, pi], the range of the named families."""
    theta = float(theta)
    if not (-math.pi <= theta <= math.pi):
        raise ValueError(f"theta={theta} out of range [-pi, pi]")
    return theta


def _family_name(family) -> str:
    """family lowercased; ValueError unless it names one of COIN_FAMILIES."""
    if (name := str(family).lower()) not in COIN_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {COIN_FAMILIES}")
    return name


def _family_matrix(family: str, theta: float) -> np.ndarray:
    """The matrix of a named walk family at theta (see coin_from_theta)."""
    tag = family[-2:]
    kind, sign = _J_KIND_SIGN[int(tag[1])]   # sign is +1 for all four
    s, c = math.sin(theta), math.cos(theta)
    # z of z1(pi - theta) is (1 + cos(pi - theta))/2 = (1 - c)/2; taking the
    # right-hand side avoids rounding pi - theta
    m = _block(tag[0], kind, sign, s / 2, (1 - c if family == "p23z1" else 1 + c) / 2)
    return _LEFT[tag[0]] @ m if family in _GENERALIZED_GROVER else m


def coin_from_theta(family: str, theta: float) -> Coin:
    """One-parameter coin from the four named walk families.

    Each is a bare set's member, times the set's generalized-Grover factor
    except for x3: p34x1 = P34 x1(theta), p24y1 = P24 y1(theta),
    p23z1 = P23 z1(pi - theta), x3 = x3(theta).

    theta must lie in [-pi, pi]; the endpoints give sign-degenerate
    permutation-like coins and are flagged (the walk modules reject them).
    """
    family = _family_name(family)
    theta = _check_theta(theta)
    return Coin(_family_matrix(family, theta), family=family, theta=theta)


def coin_rational(tag: str, r: Fraction | int | str, z_branch: int = 1) -> Coin:
    """Exact rational member of a bare pattern set.

    Parameters follow the rational parametrization of the defining variety:
    the A-block value is (r^2-1)/(2(r^2+1)) and the B-block value is
    sign*1/2 + z_branch*r/(r^2+1). All entries are Fractions; the result is
    exactly orthogonal in Fraction arithmetic. r is a Fraction, an integer
    (numpy integers pass) or a string such as "2/3"; a bool raises
    ValueError. z_branch is the integer 1 or -1 (numpy integers pass, bool
    does not).
    """
    if tag not in SET_TAGS:
        raise ValueError(f"unknown set tag {tag!r}")
    if isinstance(r, bool):
        raise ValueError(f"r must be a Fraction, an integer or a string, got {r!r}")
    n = _index(r)     # a numpy integer as a Python int, so the entries hold ints
    r = Fraction(r if n is None else n)
    if r == 0:
        raise ValueError("r must be nonzero")
    z_branch = _index(z_branch)
    if z_branch not in (1, -1):
        raise ValueError("z_branch must be +1 or -1")
    kind, sign = _J_KIND_SIGN[int(tag[1])]
    x = (r**2 - 1) / (2 * (r**2 + 1))
    z = Fraction(sign, 2) + z_branch * r / (r**2 + 1)
    exact = _block(tag[0], kind, sign, x, z)
    return Coin(exact.astype(float), family=tag, r=r, exact=tuple(map(tuple, exact)))


def build_permutative(x_row, P, Q, R) -> Coin:
    """Matrix with rows (x, xP, xQ, xR); permutative by construction."""
    x = np.asarray(x_row, dtype=complex).reshape(4)
    rows = [x] + [x @ np.asarray(M, dtype=float) for M in (P, Q, R)]
    return Coin(np.stack(rows), family="raw")


def orthogonality_residual(A, conjugate: bool = False) -> float:
    """max |A^T A - I|, or max |A^H A - I| with conjugate. A real A is
    multiplied in real arithmetic, anything else as complex."""
    A = np.asarray(A)
    if A.dtype.kind not in "fc":
        A = A.astype(complex)
    G = (A.conj().T if conjugate else A.T) @ A
    return float(np.abs(G - np.eye(len(A))).max())


def is_orthogonal(A, tol: float = 1e-9) -> bool:
    """max |A^T A - I| <= tol (transpose, not conjugate: complex orthogonal)."""
    return orthogonality_residual(A) <= tol


def is_unitary(A, tol: float = 1e-9) -> bool:
    """max |A^H A - I| <= tol (conjugate transpose: the walk preserves norm)."""
    return orthogonality_residual(A, conjugate=True) <= tol


def is_permutative(A, tol: float = 1e-9) -> bool:
    """Every row's entry multiset equals row 1's, matched after sorting."""
    A = np.asarray(A, dtype=complex)
    s = np.sort_complex(A)
    return bool(np.abs(s - s[0]).max() <= tol)


@dataclass(frozen=True)
class FamilyWitness:
    """Classification witness: A = left * Conj * Block(x, z) * Conj.

    Block is M^sign_{x,z} for kind "m" and N^sign_{z,x} for kind "n"; in both
    cases (x, z) satisfies x^2 + z^2 - sign*z = 0.
    """

    family: str                # "x", "y" or "z"
    left: Permutation4         # element of 1 (+) P3
    kind: str                  # "m" or "n"
    sign: int                  # +1 or -1
    x: complex
    z: complex

    @property
    def j(self) -> int:
        return _KIND_SIGN_J[self.kind, self.sign]

    @property
    def set_tag(self) -> str:
        return f"{self.family}{self.j}"

    def variety_residual(self) -> float:
        return abs(self.x**2 + self.z**2 - self.sign * self.z)

    @property
    def is_real(self) -> bool:
        return abs(complex(self.x).imag) < 1e-12 and abs(complex(self.z).imag) < 1e-12

    def is_rational(self) -> bool:
        """Both parameters lie within 1e-12 of rationals with denominator <= 10**6."""
        if not self.is_real:
            return False
        for v in (complex(self.x).real, complex(self.z).real):
            if abs(v - Fraction(v).limit_denominator(10**6)) > 1e-12:
                return False
        return True

    def reconstruct(self) -> np.ndarray:
        return self.left.matrix() @ _block(self.family, self.kind, self.sign, self.x, self.z)


def _residuals(mats: np.ndarray, transforms=slice(None)):
    """Read a (B, 4, 4) batch under the given transforms (rows of _GATHER,
    all 18 by default).

    Returns the residuals (B, T, 4): the largest |entry| of each transformed
    matrix minus the block j = 1..4 (see _J_KIND_SIGN) built from its own
    slots, the entries (1, 1) and (1, 3). Residuals come from squared
    moduli, so those below about 1e-154 underflow to 0; a row with a NaN or
    infinite entry gets a NaN or infinite residual.

    The batch is read in blocks of _ROWS matrices, entry position first and
    real and imaginary parts apart, so each step is one float operation on
    contiguous rows. Every block shares base = slot1*E1 + slot2*E2 and the
    squared distance T - base outside its own kind's four EC positions; at
    those it takes T - (base + sign) in that order, which rounds as the
    complex |T - (base + sign*EC)| does, so the two agree to the last bit.
    """
    flat = mats.reshape(len(mats), 16)
    read = _READ[:, transforms]
    B, nt = len(flat), read.shape[1]
    res = np.empty((B, nt, 4))
    for b0 in range(0, B, _ROWS):
        blk = flat[b0:b0 + _ROWS]
        n = len(blk)
        T = np.stack((blk.real.T, blk.imag.T))[:, read]   # (re/im, position, transform, matrix)
        T = T.reshape(2, 16, nt * n)
        base = _E12 @ T[:, :2]  # exact: E1 and E2 are 0/+-1 with disjoint supports
        # (kind, sign, EC position, item); an item is a (transform, matrix) pair
        e = T[0, 8:].reshape(2, 1, 4, -1) - (base[0, 8:].reshape(2, 1, 4, -1) + _SIGN)
        T -= base
        T *= T
        e *= e
        e += T[1, 8:].reshape(2, 1, 4, -1)
        d2 = T[0]
        d2 += T[1]
        # a kind's unsigned part: outside both EC supports, and the other kind's EC
        shared = np.maximum(d2[:8].max(axis=0), d2[8:].reshape(2, 4, -1).max(axis=1)[::-1])
        sq = np.maximum(e.max(axis=2), shared[:, None])
        res[b0:b0 + n] = sq.reshape(4, nt, n).T
    np.sqrt(res, out=res)
    return res


def _row1_bound(mats: np.ndarray) -> np.ndarray:
    """The row-1 term of _residuals for every block and family: (4, 3, B),
    j = 1..4 by family x, y, z.

    The six transforms of family f share row 1, [X00, X01, X02, X03] =
    A[0, _CONJ_IDX[f]], with the slots X00 and X02, so base there is
    [X00, -X00, X02, -X02]. The slots match exactly; the distance is that
    at (1, 2) and (1, 4), less sign on the real plane at the block's own EC
    position. The arithmetic is the kernel's, X - (base + o) with o = 0 or
    sign, written X - (o - slot): -slot + o rounds as o - slot, and base + 0
    as base but for the sign of a zero, which squaring drops; a complex
    difference takes each plane apart; then re^2 + im^2 and the square
    root. For finite entries the bound is the kernel's row-1 term bit for
    bit, so it never exceeds a residual of its family and block. A row with
    a NaN or infinite entry has NaN or infinite residuals, which match
    nothing, whatever the bound.
    """
    X = mats[:, 0].T[_ROW1]                          # (slot / entry, position, 1, family, B)
    sq = (X[1] - (_ROW1_SIGN - X[0])).view(float)    # (position, j, family, B re/im)
    sq *= sq
    d2 = sq[..., ::2] + sq[..., 1::2]
    return np.sqrt(np.maximum(d2[0], d2[1]))


def _canonical_witness(mats: np.ndarray, tol: float):
    """The first candidate within tol of each matrix of a batch, in the
    canonical order family x < y < z, kind m < n, sign + < -, left
    permutation lexicographic. A tight pass runs first, so near-corner coins
    land on their true pattern rather than on an earlier corner within the
    loose tolerance. Returns (candidate (B,), its residual (B,)); a matrix
    has a witness where the residual is <= tol, and elsewhere neither value
    means anything. Candidate i is family i // 24, j = i // 6 % 4 + 1, left
    ONE_PLUS_P3[i % 6].

    Only the families that can still match are read. Every residual of a
    family is at least its row-1 bound (_row1_bound), so a family whose
    bound exceeds tol, the larger pass tolerance, for all four blocks has no
    hit; its 24 candidates count as +inf. For a generic matrix two of the
    three families drop out, and _residuals reads 6 of the 18 transforms.
    The witness and its residual are those of the full 72-candidate search,
    bit for bit, for any input and any tol but NaN, which matches nothing.
    """
    B = len(mats)
    tight = min(1e-12, tol)
    live = _row1_bound(mats).min(axis=0) <= tol   # (family, B)
    errs = np.empty((B, 3, 4, 6))
    errs.fill(np.inf)
    for f in range(3):
        rows = live[f].nonzero()[0]
        if len(rows):
            res = _residuals(mats.take(rows, 0), slice(6 * f, 6 * f + 6))
            errs[rows, f] = res.transpose(0, 2, 1)
    errs = errs.reshape(B, 72)
    # 2 for a tight hit, 1 for a loose one: the first maximum is the witness
    rank = (errs <= tight).view(np.int8) + (errs <= tol).view(np.int8)
    best = rank.argmax(axis=1)
    return best, errs[np.arange(B), best]


def classify(A, tol: float = 1e-9) -> FamilyWitness:
    """Witness for a permutative orthogonal matrix (complex allowed).

    The first valid witness in the fixed order family x < y < z, kind m < n,
    sign + < -, left permutation lexicographic is returned, so repeated calls
    are deterministic even when several families contain A (e.g. the Grover
    coin).
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (4, 4):
        raise ValueError("classify expects a 4x4 matrix")
    if not is_orthogonal(A, tol):
        raise NotOrthogonalError(f"matrix is not orthogonal within tol={tol}")
    if not is_permutative(A, tol):
        raise NotPermutativeError(f"matrix is orthogonal but not permutative within tol={tol}")
    best, err = _canonical_witness(A[None], tol)
    i = int(best[0])
    if not err[0] <= tol:  # unreachable for genuinely permutative orthogonal input
        raise NotPermutativeError("no pattern family matched; input outside the classification")
    fam, left = i // 24, i % 6
    kind, sign = _J_KIND_SIGN[i // 6 % 4 + 1]
    # the slots (1, 1) and (1, 3) lie in row 1, which the left factor keeps
    c = _CONJ_IDX["xyz"[fam]]
    slot1, slot2 = A[0, c[0]], A[0, c[2]]
    x, z = (slot1, slot2) if kind == "m" else (slot2, slot1)
    return FamilyWitness("xyz"[fam], ONE_PLUS_P3[left], kind, sign, complex(x), complex(z))


def classify_batch_errors(mats: np.ndarray) -> np.ndarray:
    """Reconstruction error of the canonical witness for a batch (B, 4, 4).

    Vectorized classify -> reconstruct round trip at tol 1e-9, with the same
    candidate order and tight pass. Items matching no pattern get +inf.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[1:] != (4, 4):
        raise ValueError(f"classify_batch_errors expects a (B, 4, 4) batch, got shape {mats.shape}")
    err = _canonical_witness(mats, _MATCH_TOL)[1]
    return np.where(err <= _MATCH_TOL, err, np.inf)


# ---------------------------------------------------------------------------
# group chains


def _chain_table() -> dict[str, tuple[tuple[str, int, bool], ...]]:
    """Chain id -> the sets (family, j, left_multiplied) forming its group,
    in the chain theorem's order. Every chain of family f contains the base
    group, the left-multiplied f3 set; a set repeated at j = 3 is kept once."""
    table = {}
    for f in "xyz":
        base = (f, 3, True)
        table[f"{f}-base"] = (base,)
        for j in (1, 2, 3, 4):
            a, b = (f, j, True), (f, j, False)
            for variant, sets in (("a", (a,)), ("b", (b,)), ("full", (a, (f, 3, False), b))):
                table[f"{f}{j}-{variant}"] = tuple(dict.fromkeys((base,) + sets))
    return table


_CHAINS = _chain_table()


def chain_ids() -> list[str]:
    """All group identifiers from the classification's chain theorem."""
    return list(_CHAINS)


def chain_sets(chain_id: str) -> list[tuple[str, int, bool]]:
    """Sets forming the group: tuples (family, j, left_multiplied)."""
    try:
        return list(_CHAINS[chain_id])
    except (KeyError, TypeError):                   # TypeError: unhashable id
        raise ValueError(f"unknown chain {chain_id!r}") from None


def in_pattern_set(A, tag: str, left: bool = False, tol: float = 1e-9) -> bool:
    """Membership of A in the bare pattern set `tag` (x1..z4); with left=True
    the set is premultiplied by its family's generalized-Grover factor."""
    if tag not in SET_TAGS:
        raise ValueError(f"unknown set tag {tag!r}")
    A = np.asarray(A, dtype=complex)
    if A.shape != (4, 4):
        raise ValueError("in_pattern_set expects a 4x4 matrix")
    res = _residuals(A[None], [_SET_TRANSFORM[tag[0], bool(left)]])
    return bool(res[0, 0, int(tag[1]) - 1] <= tol)


def group_closure_sample(chain_id: str, count: int, seed: int) -> dict:
    """Sample pairs from a chain group, form products and transposes, and
    report the fraction within 1e-9 of the group (1.0 when closed). Half of
    each draw has a complex theta. count is an integer >= 1 (numpy integers
    pass)."""
    sets = chain_sets(chain_id)
    count = _check_count(count, 1, "count")
    rng = np.random.default_rng(seed)

    def draw(n):
        which = rng.integers(0, len(sets), n)
        th = rng.uniform(-np.pi, np.pi, n).astype(complex)
        ncx = n // 2
        th[:ncx] += 1j * rng.normal(0, 0.7, ncx)
        out = np.empty((n, 4, 4), dtype=complex)
        for i, (fam, j, left) in enumerate(sets):
            mask = which == i
            if mask.any():
                m = set_member_from_theta(f"{fam}{j}", th[mask])
                out[mask] = _LEFT[fam] @ m if left else m
        return out

    # read each matrix once per distinct transform, then pick each set's block
    transforms, set_t = np.unique([_SET_TRANSFORM[fam, left] for fam, _, left in sets],
                                  return_inverse=True)
    set_j = [j - 1 for _, j, _ in sets]

    def in_chain(mats):
        res = _residuals(mats, transforms)
        return (res[:, set_t, set_j] <= _MATCH_TOL).any(axis=1)

    A, B = draw(count), draw(count)
    in_chain_prod = in_chain(np.einsum("bij,bjk->bik", A, B))
    in_chain_t = in_chain(np.swapaxes(A, 1, 2))
    n_ok = int(in_chain_prod.sum() + in_chain_t.sum())
    return {
        "chain": chain_id,
        "count": count,
        "checked": 2 * count,
        "in_chain": n_ok,
        "fraction": n_ok / (2 * count),
        "product_failures": int(count - in_chain_prod.sum()),
        "transpose_failures": int(count - in_chain_t.sum()),
    }


# ---------------------------------------------------------------------------
# serialization


def coin_to_json(coin: Coin) -> dict:
    """JSON-ready dict; exact rational coins carry [num, den] entry pairs."""
    if coin.exact is not None:
        re = [[[v.numerator, v.denominator] for v in row] for row in coin.exact]
        im = [[[0, 1]] * 4 for _ in range(4)]
    else:
        re = coin.entries.real.tolist()
        im = coin.entries.imag.tolist()
    return {
        "family": coin.family,
        "theta": coin.theta,
        "r": [coin.r.numerator, coin.r.denominator] if coin.r is not None else None,
        "entries_re": re,
        "entries_im": im,
    }


def coin_from_json(obj: dict) -> Coin:
    """The coin of a coin_to_json dict; ValueError for a missing or mistyped
    field."""
    def cell(v):
        return Fraction(v[0], v[1]) if isinstance(v, (list, tuple)) else None

    try:
        re_raw = obj["entries_re"]
        exact = None
        if re_raw and isinstance(re_raw[0][0], (list, tuple)):
            exact = tuple(tuple(cell(v) for v in row) for row in re_raw)
            re = np.array([[float(v) for v in row] for row in exact])
            im = np.zeros((4, 4))
        else:
            re = np.array(re_raw, dtype=float)
            im = np.array(obj.get("entries_im") or np.zeros((4, 4)), dtype=float)
        r = obj.get("r")
        r = Fraction(r[0], r[1]) if r else None
    except (KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed coin JSON ({type(exc).__name__}: {exc})") from None
    family, theta = obj.get("family", "raw"), obj.get("theta")
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise ValueError(f"coin JSON entries must be 4x4, got {re.shape} and {im.shape}")
    if not isinstance(family, str) or not (
            theta is None or isinstance(theta, Real) and not isinstance(theta, bool)):
        raise ValueError(f"malformed coin JSON: family {family!r}, theta {theta!r}")
    return Coin(re + 1j * im, family=family, theta=theta, r=r, exact=exact)
