"""Permutations of {1,2,3,4} and their 4x4 permutation matrices.

Everything downstream (coin families, the 10-permutation basis, Fourier
blocks) is built from these. Permutations are stored 1-based, as the image
tuple (pi(1), pi(2), pi(3), pi(4)); the matrix convention is p_ij = 1 iff
pi(i) = j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Permutation4",
    "perm_matrix",
    "matrix_to_perm",
    "from_cycles",
    "ALL_PERMS",
    "ONE_PLUS_P3",
    "P12", "P13", "P14", "P23", "P24", "P34",
]


@dataclass(frozen=True)
class Permutation4:
    """Element of S4 as the image tuple (pi(1), ..., pi(4))."""

    mapping: tuple[int, int, int, int]

    def __post_init__(self):
        if sorted(self.mapping) != [1, 2, 3, 4]:
            raise ValueError(f"not a bijection on {{1,2,3,4}}: {self.mapping}")

    def matrix(self) -> np.ndarray:
        """0/1 matrix with p_ij = 1 iff pi(i) = j."""
        m = np.zeros((4, 4))
        for i, j in enumerate(self.mapping):
            m[i, j - 1] = 1.0
        return m

    def inverse(self) -> "Permutation4":
        inv = [0] * 4
        for i, j in enumerate(self.mapping):
            inv[j - 1] = i + 1
        return Permutation4(tuple(inv))

    def __call__(self, i: int) -> int:
        return self.mapping[i - 1]

    def compose(self, other: "Permutation4") -> "Permutation4":
        """self after other: (self*other)(i) = self(other(i))."""
        return Permutation4(tuple(self(other(i)) for i in (1, 2, 3, 4)))

    def cycles(self) -> str:
        """Cycle notation, e.g. "(12)(34)"; identity is "id"."""
        seen, parts = set(), []
        for start in (1, 2, 3, 4):
            if start in seen:
                continue
            cyc, i = [start], self(start)
            seen.add(start)
            while i != start:
                cyc.append(i)
                seen.add(i)
                i = self(i)
            if len(cyc) > 1:
                parts.append("(" + "".join(str(c) for c in cyc) + ")")
        return "".join(parts) if parts else "id"


def from_cycles(s: str) -> Permutation4:
    """Parse cycle notation like "(12)(34)", "(1324)" or "id"."""
    if s in ("id", "", "()"):
        return Permutation4((1, 2, 3, 4))
    mapping = [1, 2, 3, 4]
    body = s.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"bad cycle notation: {s!r}")
    for cyc in body[1:-1].split(")("):
        pts = [int(ch) for ch in cyc]
        if len(set(pts)) != len(pts) or any(p not in (1, 2, 3, 4) for p in pts):
            raise ValueError(f"bad cycle: ({cyc})")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            mapping[a - 1] = b
    return Permutation4(tuple(mapping))


def perm_matrix(pi: Permutation4 | tuple | list | str) -> np.ndarray:
    """Permutation matrix of pi (accepts Permutation4, image tuple or cycles)."""
    if isinstance(pi, str):
        pi = from_cycles(pi)
    elif not isinstance(pi, Permutation4):
        pi = Permutation4(tuple(int(v) for v in pi))
    return pi.matrix()


def matrix_to_perm(m: np.ndarray) -> Permutation4:
    """Invert perm_matrix; raises ValueError unless m is within 1e-9 of a permutation matrix."""
    m = np.asarray(m)
    if m.shape != (4, 4) or np.abs(m - np.round(m.real)).max() > 1e-9:
        raise ValueError("not a 0/1 permutation matrix")
    b = np.round(m.real).astype(int)
    if not (b.sum(axis=0) == 1).all() or not (b.sum(axis=1) == 1).all():
        raise ValueError("rows/columns must each contain exactly one 1")
    return Permutation4(tuple(int(np.argmax(b[i]) + 1) for i in range(4)))


ALL_PERMS: tuple[Permutation4, ...] = tuple(
    Permutation4(p) for p in itertools.permutations((1, 2, 3, 4))
)

# 1 (+) P3: permutations fixing 1, in lexicographic order of the image tuple.
ONE_PLUS_P3: tuple[Permutation4, ...] = tuple(
    p for p in ALL_PERMS if p.mapping[0] == 1
)

P12 = perm_matrix("(12)")
P13 = perm_matrix("(13)")
P14 = perm_matrix("(14)")
P23 = perm_matrix("(23)")
P24 = perm_matrix("(24)")
P34 = perm_matrix("(34)")
