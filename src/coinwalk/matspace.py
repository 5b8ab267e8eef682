"""Orthogonal matrices as linear sums of 4x4 permutation matrices.

The span of all 24 permutation matrices has dimension 10; we fix the
10-permutation basis and work with least-squares coordinates in it. The
subspaces L1..L5 are generated by pairwise Hadamard-orthogonal permutation
sets and partition the basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coins import is_orthogonal, is_permutative
from .perms import ALL_PERMS, Permutation4, from_cycles, perm_matrix

__all__ = [
    "BASIS_NAMES", "basis_matrices", "LinearSumDecomposition", "decompose_linear_sum",
    "NotInLError", "subspace_membership", "L_SPACES",
    "h_orthogonal", "six_class_partition",
    "quadrangular", "strongly_quadrangular",
    "hadamard_matrix", "hadamard_row_sum_check",
    "theorem217_family", "theorem217_block",
    "two_permutation_check", "sample_orthogonal_in_span",
    "direct_sum_components", "is_perm_equivalent_direct_sum",
    "satisfies_span_dichotomy",
]

BASIS_NAMES = (
    "(12)", "(23)", "(24)", "(34)", "(123)", "(124)", "(234)",
    "(12)(34)", "(13)(24)", "(14)(23)",
)

# H-orthogonal generating sets of the subspaces L1..L5.
L_SPACES = {
    1: ("(12)", "(34)", "(13)(24)", "(14)(23)"),
    2: ("(24)", "(12)(34)"),
    3: ("(124)", "(234)"),
    4: ("(123)",),
    5: ("(23)",),
}


def basis_matrices() -> np.ndarray:
    """The ten basis permutation matrices, stacked (10, 4, 4)."""
    return np.stack([perm_matrix(name) for name in BASIS_NAMES])


_BASIS = basis_matrices()
_BASIS_FLAT = _BASIS.reshape(10, 16).T          # 16 x 10
_L_INDEX = {i: tuple(BASIS_NAMES.index(n) for n in names) for i, names in L_SPACES.items()}


def _cross_terms(gens: np.ndarray) -> np.ndarray:
    """X[l, m] = P_l^T P_m + P_m^T P_l for a (d, 4, 4) stack, shape
    (d, d, 4, 4). With A = sum c_l P_l, A^T A = 1/2 sum_lm c_l c_m X[l, m]
    and d(A^T A)/dc_l = sum_m c_m X[l, m]."""
    PtQ = np.einsum("lji,mjk->lmik", gens, gens)
    return PtQ + PtQ.swapaxes(0, 1)


class NotInLError(ValueError):
    pass


@dataclass(frozen=True)
class LinearSumDecomposition:
    """Coordinates of a matrix in the 10-permutation basis."""

    coeffs: np.ndarray          # (10,), aligned with BASIS_NAMES
    residual: float             # max-norm of A - sum(coeffs * basis)

    def reconstruct(self) -> np.ndarray:
        return np.tensordot(self.coeffs, _BASIS, axes=1)

    def coefficient_sum(self) -> float:
        return float(self.coeffs.sum())

    def to_json(self, row_sum_sign: int | None = None) -> dict:
        return {
            "basis_order": list(BASIS_NAMES),
            "coeffs": [float(c) for c in self.coeffs],
            "residual": float(self.residual),
            "row_sum_sign": row_sum_sign,
        }


def _as_real(A) -> np.ndarray:
    A = np.asarray(A)
    if np.iscomplexobj(A):
        if np.abs(A.imag).max() > 1e-12:
            raise ValueError("expected a real matrix")
        A = A.real
    return A.astype(float)


def decompose_linear_sum(A) -> LinearSumDecomposition:
    """Least-squares coordinates of A in the basis; the residual certifies
    membership of A in the permutation span (residual <= 1e-10)."""
    A = _as_real(A)
    coeffs, *_ = np.linalg.lstsq(_BASIS_FLAT, A.reshape(16), rcond=None)
    resid = np.abs(A - np.tensordot(coeffs, _BASIS, axes=1)).max()
    return LinearSumDecomposition(coeffs, float(resid))


def subspace_membership(A, tol: float = 1e-10) -> set[int]:
    """Indices i with a nonzero L_i component of A; raises NotInLError when
    A is not in the span."""
    dec = decompose_linear_sum(A)
    if dec.residual > tol:
        raise NotInLError(f"residual {dec.residual:.3e} exceeds {tol:.1e}")
    return {
        i for i, idx in _L_INDEX.items()
        if np.abs(dec.coeffs[list(idx)]).max() > tol
    }


def h_orthogonal(P, Q) -> bool:
    """Hadamard product of P and Q vanishes (disjoint supports)."""
    return bool((np.asarray(P) * np.asarray(Q) == 0).all())


def six_class_partition() -> list[list[Permutation4]]:
    """Partition of S4 into six pairwise H-orthogonal quadruples; the four
    supports in each class tile all 16 matrix positions."""
    classes = [
        ("id", "(12)(34)", "(13)(24)", "(14)(23)"),
        ("(23)", "(124)", "(1342)", "(143)"),
        ("(24)", "(123)", "(134)", "(1432)"),
        ("(34)", "(12)", "(1324)", "(1423)"),
        ("(14)", "(1243)", "(132)", "(234)"),
        ("(13)", "(1234)", "(142)", "(243)"),
    ]
    return [[from_cycles(name) for name in cls] for cls in classes]


def quadrangular(M) -> bool:
    """No two distinct rows (or columns) have inner product exactly 1."""
    B = np.asarray(M, dtype=int)
    for X in (B, B.T):
        g = X @ X.T
        off = g[~np.eye(len(g), dtype=bool)]
        if (off == 1).any():
            return False
    return True


def _row_strongly_quadrangular(B: np.ndarray) -> bool:
    n = B.shape[0]
    for mask in range(1, 1 << n):
        rows = [i for i in range(n) if mask >> i & 1]
        if len(rows) < 2:
            continue
        sub = B[rows]
        # every member of S must overlap some other member of S
        ok = all(((sub[i] * np.delete(sub, i, axis=0)).sum(axis=1) > 0).any()
                 for i in range(len(rows)))
        if not ok:
            continue
        if int((sub.sum(axis=0) >= 2).sum()) < len(rows):
            return False
    return True


def strongly_quadrangular(M) -> bool:
    """Row and column strongly quadrangular (supports a unitary iff so,
    for orders up to 4)."""
    B = (np.asarray(M) != 0).astype(int)
    return _row_strongly_quadrangular(B) and _row_strongly_quadrangular(B.T)


def hadamard_matrix() -> np.ndarray:
    return 0.5 * np.array([
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ])


_H = hadamard_matrix()


def _h_split(A) -> tuple[float, float]:
    """The (1,1) entry of H^T A H and the largest |entry| in the rest of its
    first row and column: +-1 and 0 for orthogonal members of the span."""
    B = _H.T @ _as_real(A) @ _H
    return B[0, 0], float(max(np.abs(B[0, 1:]).max(), np.abs(B[1:, 0]).max()))


def hadamard_row_sum_check(A, tol: float = 1e-9) -> int:
    """Sign of the constant row/column sum of an orthogonal member of the
    permutation span, read off the (1,1) entry of H^T A H."""
    corner, offblock = _h_split(A)
    if abs(abs(corner) - 1) > tol or offblock > tol:
        raise ValueError("matrix is not an orthogonal member of the permutation span")
    return 1 if corner > 0 else -1


# Theorem 2.17 border sign s: each family member has first row s/2 (1, -1, -1, -1)
_T217_SIGN = {"c1": -1, "c2": 1}


def _theorem217_a4(variant: str, c2: float, branch: int) -> tuple[int, float]:
    """The border sign s and the free entry a4."""
    if variant not in _T217_SIGN:
        raise ValueError("variant must be 'c1' or 'c2'")
    s = _T217_SIGN[variant]
    disc = (1 + 3 * s * c2) * (1 - s * c2)
    if disc < -1e-12:
        raise ValueError(f"c2={c2} outside the parameter interval (negative discriminant)")
    return s, -0.5 * c2 + branch * 0.5 * np.sqrt(max(disc, 0.0))


def theorem217_block(variant: str, c2: float, branch: int = 1) -> np.ndarray:
    """The 3x3 circulant block the variant's members H-conjugate to."""
    s, a4 = _theorem217_a4(variant, c2, branch)
    d = [s / 2 + a4, s / 2 - a4 - c2, c2]
    return np.array([[d[0], d[1], d[2]], [d[1], d[2], d[0]], [d[2], d[0], d[1]]])


def theorem217_family(variant: str, c2: float, branch: int = 1) -> np.ndarray:
    """Orthogonal non-permutative members of the L1+L3+L4 space.

    variant "c1" has first row (-1/2, 1/2, 1/2, 1/2) and c2 in [-1, 1/3];
    variant "c2" negates it and takes c2 in [-1/3, 1]. branch selects the
    square-root sign for the free entry.
    """
    s, a4 = _theorem217_a4(variant.lower(), c2, branch)
    b = s / 2
    d, e = c2 - b, -a4 - c2
    return np.array([
        [b, -b, -b, -b],
        [-b, d, e, a4],
        [-b, e, a4, d],
        [-b, a4, d, e],
    ])


def two_permutation_check() -> dict:
    """Exhaustive exact check that no orthogonal matrix is a nontrivial
    linear sum of two distinct permutation matrices.

    For A = a*P + b*Q, A^T A = (a^2+b^2) I + a*b (P^T Q + Q^T P); the cross
    matrix is integer and never zero for P != Q, so orthogonality forces
    a*b = 0 and a^2 + b^2 = 1.
    """
    X = _cross_terms(np.stack([p.matrix().astype(int) for p in ALL_PERMS]))
    off = (X * (1 - np.eye(4, dtype=int))).any(axis=(2, 3))
    distinct = ~np.eye(len(ALL_PERMS), dtype=bool)
    pairs, nonzero = int(distinct.sum()), int(off[distinct].sum())
    return {"pairs": pairs, "cross_term_nonzero": nonzero,
            "nontrivial_solutions": pairs - nonzero}


def sample_orthogonal_in_span(names: tuple[str, ...], trials: int, seed: int,
                              newton_steps: int = 60, tol: float = 1e-12) -> np.ndarray:
    """Random orthogonal matrices inside span of the named permutations.

    Batched Gauss-Newton on the orthogonality equations from random starts;
    non-converged starts are dropped. Returns an array (k, 4, 4).
    """
    gens = np.stack([perm_matrix(n) for n in names])
    d = len(gens)
    rng = np.random.default_rng(seed)
    c = rng.normal(0, 1, (trials, d))
    iu = np.triu_indices(4)
    # J[b, l] = d(A^T A)[triu]/dc_l = c[b] . X[:, l][triu], and A^T A = J c / 2
    X = _cross_terms(gens)[:, :, iu[0], iu[1]].reshape(d, d * 10)
    eye = np.eye(4)[iu]
    for _ in range(newton_steps):
        J = (c @ X).reshape(-1, d, 10)
        f = 0.5 * (c[:, None, :] @ J)[:, 0] - eye
        # Levenberg-Marquardt damping keeps rank-deficient starts solvable
        mu = 1e-12 + 1e-2 * (f**2).sum(axis=1)
        JtJ = J @ J.swapaxes(1, 2) + mu[:, None, None] * np.eye(d)
        c = c - np.linalg.solve(JtJ, J @ f[..., None])[..., 0]
    A = np.tensordot(c, gens, axes=1)
    G = A.swapaxes(1, 2) @ A - np.eye(4)
    return A[np.abs(G[:, iu[0], iu[1]]).max(axis=1) <= tol]


def direct_sum_components(A, tol: float = 1e-12) -> list[tuple[list[int], list[int]]]:
    """Connected components of the bipartite row/column graph of the nonzero
    pattern; more than one component means A is a direct sum of blocks up to
    row/column permutations."""
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


def is_perm_equivalent_direct_sum(A, tol: float = 1e-9, pattern_tol: float | None = None) -> bool:
    """A equals (up to row/column permutations) a direct sum of permutative
    orthogonal blocks."""
    comps = direct_sum_components(A, tol=tol if pattern_tol is None else pattern_tol)
    if len(comps) < 2:
        return False
    for rows, cols in comps:
        if len(rows) != len(cols):
            return False
        block = np.asarray(A)[np.ix_(rows, cols)]
        if not (is_permutative(block, tol) and is_orthogonal(block, tol)):
            return False
    return True


def satisfies_span_dichotomy(A, tol: float = 1e-6) -> bool:
    """Permutative, or a permutation-equivalent direct sum of permutative
    orthogonal blocks. Samples produced by Gauss-Newton sit at square-root
    precision near variety corners (e.g. signed permutations), hence the
    default tolerance."""
    return is_permutative(A, tol) or is_perm_equivalent_direct_sum(A, tol)
