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
  `group_closure_sample` all read through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .perms import ONE_PLUS_P3, P23, P24, P34, Permutation4, matrix_to_perm

__all__ = [
    "Coin", "FamilyWitness", "NotOrthogonalError", "NotPermutativeError",
    "COIN_FAMILIES", "SET_TAGS",
    "grover_coin", "coin_from_theta", "coin_rational", "build_permutative",
    "is_orthogonal", "is_unitary", "is_permutative", "classify",
    "set_member_from_theta", "in_pattern_set",
    "chain_ids", "chain_sets", "group_closure_sample",
    "coin_to_json", "coin_from_json",
]

COIN_FAMILIES = ("p34x1", "p24y1", "p23z1", "x3")

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

def _gather_index(fam: str, left: Permutation4) -> np.ndarray:
    """Flat indices reading Conj * left^T * A * Conj off A.reshape(16)."""
    c = _CONJ_IDX[fam]
    rows = np.argmax(left.matrix().T, axis=1)[c]
    return (4 * rows[:, None] + c).ravel()


# the 18 (conjugator, left) transforms, family-major: row t of _GATHER reads
# family "xyz"[t // 6] under left permutation ONE_PLUS_P3[t % 6]
_GATHER = np.array([_gather_index(f, left) for f in "xyz" for left in ONE_PLUS_P3])
# (family, left-multiplied) -> the transform that reads that bare set
# (ONE_PLUS_P3[0] is the identity)
_SET_TRANSFORM = {(f, lm): 6 * i + (ONE_PLUS_P3.index(matrix_to_perm(_LEFT[f])) if lm else 0)
                  for i, f in enumerate("xyz") for lm in (False, True)}


class NotOrthogonalError(ValueError):
    pass


class NotPermutativeError(ValueError):
    pass


@dataclass(frozen=True)
class Coin:
    """A 4x4 coin matrix with provenance metadata.

    entries is a read-only complex128 copy; exact, when present, carries the
    same matrix as Fractions (rational coins are exactly orthogonal in that
    representation). degenerate and unitary are derived from the fields, so
    no constructor call can contradict them. A named family with a theta must
    match that family's coin within 1e-12: the walk reads the entries, the
    spectral closed forms read family and theta.
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
        if self.family in COIN_FAMILIES and self.theta is not None:
            if not np.abs(e - _family_matrix(self.family, float(self.theta))).max() <= 1e-12:
                raise ValueError(f"entries differ from {self.family}(theta={self.theta})")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def is_real(self) -> bool:
        return bool(np.abs(self.entries.imag).max() < 1e-12)

    @property
    def degenerate(self) -> bool:
        """True at the theta = +-pi endpoints of the named families."""
        return (self.family in COIN_FAMILIES and self.theta is not None
                and math.isclose(abs(self.theta), math.pi, rel_tol=0, abs_tol=1e-12))

    @cached_property
    def unitary(self) -> bool:
        """is_unitary(entries) at tol 1e-9, computed once per coin."""
        return is_unitary(self.entries)


def grover_coin() -> Coin:
    """The 4x4 Grover diffusion coin (off-diagonal 1/2, diagonal -1/2)."""
    g = np.full((4, 4), 0.5) - np.eye(4)
    return Coin(g, family="p24y1", theta=-math.pi / 2)


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


def _family_matrix(family: str, theta: float) -> np.ndarray:
    """The matrix of a named walk family at theta (see coin_from_theta)."""
    tag = family[-2:]
    kind, sign = _J_KIND_SIGN[int(tag[1])]   # sign is +1 for all four
    s, c = math.sin(theta), math.cos(theta)
    # z of z1(pi - theta) is (1 + cos(pi - theta))/2 = (1 - c)/2; taking the
    # right-hand side avoids rounding pi - theta
    m = _block(tag[0], kind, sign, s / 2, (1 - c if family == "p23z1" else 1 + c) / 2)
    return m if family == "x3" else _LEFT[tag[0]] @ m


def coin_from_theta(family: str, theta: float) -> Coin:
    """One-parameter coin from the four named walk families.

    Each is a bare set's member, times the set's generalized-Grover factor
    except for x3: p34x1 = P34 x1(theta), p24y1 = P24 y1(theta),
    p23z1 = P23 z1(pi - theta), x3 = x3(theta).

    theta must lie in [-pi, pi]; the endpoints give sign-degenerate
    permutation-like coins and are flagged (the walk modules reject them).
    """
    family = family.lower()
    if family not in COIN_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {COIN_FAMILIES}")
    theta = float(theta)
    if not (-math.pi <= theta <= math.pi):
        raise ValueError(f"theta={theta} out of range [-pi, pi]")
    return Coin(_family_matrix(family, theta), family=family, theta=theta)


def coin_rational(tag: str, r: Fraction | int | str, z_branch: int = 1) -> Coin:
    """Exact rational member of a bare pattern set.

    Parameters follow the rational parametrization of the defining variety:
    the A-block value is (r^2-1)/(2(r^2+1)) and the B-block value is
    sign*1/2 + z_branch*r/(r^2+1). All entries are Fractions; the result is
    exactly orthogonal in Fraction arithmetic.
    """
    if tag not in SET_TAGS:
        raise ValueError(f"unknown set tag {tag!r}")
    r = Fraction(r)
    if r == 0:
        raise ValueError("r must be nonzero")
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


def is_orthogonal(A, tol: float = 1e-9) -> bool:
    """max |A^T A - I| <= tol (transpose, not conjugate: complex orthogonal)."""
    A = np.asarray(A, dtype=complex)
    return bool(np.abs(A.T @ A - np.eye(len(A))).max() <= tol)


def is_unitary(A, tol: float = 1e-9) -> bool:
    """max |A^H A - I| <= tol (conjugate transpose: the walk preserves norm)."""
    A = np.asarray(A, dtype=complex)
    return bool(np.abs(A.conj().T @ A - np.eye(4)).max() <= tol)


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
    def conjugator(self) -> np.ndarray:
        return _CONJ[self.family]

    @property
    def j(self) -> int:
        return {("m", 1): 1, ("m", -1): 2, ("n", 1): 3, ("n", -1): 4}[(self.kind, self.sign)]

    @property
    def set_tag(self) -> str:
        return f"{self.family}{self.j}"

    def variety_residual(self) -> float:
        return abs(self.x**2 + self.z**2 - self.sign * self.z)

    @property
    def is_real(self) -> bool:
        return abs(complex(self.x).imag) < 1e-12 and abs(complex(self.z).imag) < 1e-12

    def is_rational(self, max_denominator: int = 10**6, tol: float = 1e-12) -> bool:
        """Both parameters are rationals with small denominator within tol."""
        if not self.is_real:
            return False
        for v in (complex(self.x).real, complex(self.z).real):
            if abs(v - Fraction(v).limit_denominator(max_denominator)) > tol:
                return False
        return True

    def reconstruct(self) -> np.ndarray:
        return self.left.matrix() @ _block(self.family, self.kind, self.sign, self.x, self.z)


def _residuals(mats: np.ndarray, transforms=slice(None)):
    """Read a (B, 4, 4) batch under the given transforms (rows of _GATHER,
    all 18 by default).

    Returns the residuals (B, T, 4): the largest |entry| of each transformed
    matrix minus the block j = 1..4 (see _J_KIND_SIGN) built from its own
    slots; and those slots (B, T, 2), the entries (1, 1) and (1, 3).
    Residuals come from squared moduli, so those below about 1e-154
    underflow to 0.
    """
    T = mats.reshape(len(mats), 16)[:, _GATHER[transforms]]
    slots = T[..., [0, 2]]
    base = slots[..., :1] * _E1.ravel()
    base += slots[..., 1:] * _E2.ravel()
    # squared modulus of T - (base + sign*EC), maximised before the square
    # root; EC is real, so the imaginary part is shared by all four blocks
    im2 = T.imag - base.imag
    im2 *= im2
    sq = np.empty(T.shape[:2] + (4,))
    for j, (kind, sign) in _J_KIND_SIGN.items():
        d = T.real - (base.real + sign * _EC[kind].ravel())
        d *= d
        d += im2
        sq[..., j - 1] = d.max(axis=-1)
    return np.sqrt(sq), slots


def _canonical_witness(mats: np.ndarray, tol: float):
    """The first candidate within tol of each matrix of a batch, in the
    canonical order family x < y < z, kind m < n, sign + < -, left
    permutation lexicographic. A tight pass runs first, so near-corner coins
    land on their true pattern rather than on an earlier corner within the
    loose tolerance. Returns (candidate (B,), its residual (B,), slots); the
    candidate is -1 and the residual +inf where nothing matches. Candidate i
    is family i // 24, j = i // 6 % 4 + 1, left ONE_PLUS_P3[i % 6]."""
    res, slots = _residuals(mats)
    B = len(mats)
    errs = res.reshape(B, 3, 6, 4).transpose(0, 1, 3, 2).reshape(B, 72)
    best = np.full(B, -1)
    for pass_tol in sorted({min(1e-12, tol), tol}):
        hit = errs <= pass_tol
        new = hit.any(axis=1) & (best < 0)
        best[new] = hit.argmax(axis=1)[new]
    err = np.where(best >= 0, errs[np.arange(B), best], np.inf)
    return best, err, slots


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
    best, _, slots = _canonical_witness(A[None], tol)
    i = int(best[0])
    if i < 0:  # unreachable for genuinely permutative orthogonal input
        raise NotPermutativeError("no pattern family matched; input outside the classification")
    fam, left = i // 24, i % 6
    kind, sign = _J_KIND_SIGN[i // 6 % 4 + 1]
    slot1, slot2 = slots[0, 6 * fam + left]
    x, z = (slot1, slot2) if kind == "m" else (slot2, slot1)
    return FamilyWitness("xyz"[fam], ONE_PLUS_P3[left], kind, sign, complex(x), complex(z))


def classify_batch_errors(mats: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Reconstruction error of the canonical witness for a batch (B, 4, 4).

    Vectorized version of the classify -> reconstruct round trip, with the
    same candidate order and tight pass. Items matching no pattern get +inf.
    """
    return _canonical_witness(np.asarray(mats, dtype=complex), tol)[1]


# ---------------------------------------------------------------------------
# group chains


def chain_ids() -> list[str]:
    """All group identifiers from the classification's chain theorem."""
    ids = []
    for f in "xyz":
        ids.append(f"{f}-base")
        for j in (1, 2, 3, 4):
            ids.extend([f"{f}{j}-a", f"{f}{j}-b", f"{f}{j}-full"])
    return ids


def chain_sets(chain_id: str) -> list[tuple[str, int, bool]]:
    """Sets forming the group: tuples (family, j, left_multiplied)."""
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
    # drop duplicates when j == 3
    seen, out = set(), []
    for s in sets:
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def in_pattern_set(A, tag: str, left: bool = False, tol: float = 1e-9) -> bool:
    """Membership of A in the bare pattern set `tag` (x1..z4); with left=True
    the set is premultiplied by its family's generalized-Grover factor."""
    if tag not in SET_TAGS:
        raise ValueError(f"unknown set tag {tag!r}")
    A = np.asarray(A, dtype=complex).reshape(1, 4, 4)
    res, _ = _residuals(A, [_SET_TRANSFORM[tag[0], bool(left)]])
    return bool(res[0, 0, int(tag[1]) - 1] <= tol)


def group_closure_sample(chain_id: str, count: int, seed: int,
                         tol: float = 1e-9, complex_fraction: float = 0.5) -> dict:
    """Sample pairs from a chain group, form products and transposes, and
    report the fraction that lands back in the group (1.0 when closed)."""
    sets = chain_sets(chain_id)
    rng = np.random.default_rng(seed)

    def draw(n):
        which = rng.integers(0, len(sets), n)
        th = rng.uniform(-np.pi, np.pi, n).astype(complex)
        ncx = int(n * complex_fraction)
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
        res = _residuals(mats, transforms)[0]
        return (res[:, set_t, set_j] <= tol).any(axis=1)

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
    def cell(v):
        return Fraction(v[0], v[1]) if isinstance(v, (list, tuple)) else None

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
    return Coin(
        re + 1j * im,
        family=obj.get("family", "raw"),
        theta=obj.get("theta"),
        r=Fraction(r[0], r[1]) if r else None,
        exact=exact,
    )
