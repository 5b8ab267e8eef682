"""Orthogonal matrices as linear sums of 4x4 permutation matrices.

The span of all 24 permutation matrices has dimension 10; we fix the
10-permutation basis and work with least-squares coordinates in it. The
subspaces L1..L5 are generated by pairwise Hadamard-orthogonal permutation
sets and partition the basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coins import _check_count, _index, is_orthogonal, is_permutative
from .perms import ALL_PERMS, Permutation4, from_cycles, perm_matrix

__all__ = [
    "BASIS_NAMES", "basis_matrices", "LinearSumDecomposition", "decompose_linear_sum",
    "NotInLError", "subspace_membership", "L_SPACES",
    "h_orthogonal", "six_class_partition",
    "quadrangular", "strongly_quadrangular",
    "hadamard_matrix", "hadamard_split", "hadamard_row_sum_check",
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


def subspace_membership(A) -> set[int]:
    """Indices i with an L_i component of A above 1e-10; raises NotInLError
    when A is not in the span (residual above 1e-10)."""
    dec = decompose_linear_sum(A)
    if dec.residual > 1e-10:
        raise NotInLError(f"residual {dec.residual:.3e} exceeds 1.0e-10")
    return {
        i for i, idx in _L_INDEX.items()
        if np.abs(dec.coeffs[list(idx)]).max() > 1e-10
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


def hadamard_split(A) -> tuple[float, float]:
    """The (1,1) entry of H^T A H and the largest |entry| in the rest of its
    first row and column: +-1 and 0 for orthogonal members of the span."""
    B = _H.T @ _as_real(A) @ _H
    return B[0, 0], float(max(np.abs(B[0, 1:]).max(), np.abs(B[1:, 0]).max()))


def hadamard_row_sum_check(A, tol: float = 1e-9) -> int:
    """Sign of the constant row/column sum of an orthogonal member of the
    permutation span, read off the (1,1) entry of H^T A H."""
    corner, offblock = hadamard_split(A)
    if abs(abs(corner) - 1) > tol or offblock > tol:
        raise ValueError("matrix is not an orthogonal member of the permutation span")
    return 1 if corner > 0 else -1


# Theorem 2.17 border sign s: each family member has first row s/2 (1, -1, -1, -1)
_T217_SIGN = {"c1": -1, "c2": 1}


def _theorem217_a4(variant: str, c2: float, branch: int) -> tuple[int, float]:
    """The border sign s and the free entry a4; variant is case-blind and
    branch the integer 1 or -1."""
    variant = variant.lower()
    if variant not in _T217_SIGN:
        raise ValueError("variant must be 'c1' or 'c2'")
    branch = _index(branch)
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    if not np.isfinite(c2):
        raise ValueError(f"c2={c2} is not finite")
    s = _T217_SIGN[variant]
    disc = (1 + 3 * s * c2) * (1 - s * c2)
    if not disc >= -1e-12:
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
    variant "c2" negates it and takes c2 in [-1/3, 1]. branch, the integer 1
    or -1, selects the square-root sign for the free entry.
    """
    s, a4 = _theorem217_a4(variant, c2, branch)
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


def sample_orthogonal_in_span(names: tuple[str, ...], trials: int, seed: int) -> np.ndarray:
    """Random orthogonal matrices inside span of the named permutations.

    Up to 60 batched Gauss-Newton steps from random starts, each step on
    the starts whose max |triu(A^T A - I)| is still above 1e-14 and, once at
    or below 1e-12, still falling; a start is kept when the last such
    residual of its A is at most 1e-12. trials is an integer >= 0 (numpy
    integers pass). Returns an array (k, 4, 4). Near a corner of the variety
    A converges at square-root precision, and slowly (35 steps or more from
    1e-12 to 1e-14), so stopping at 1e-12 would leave entries about 1e-6 off
    the corner; 1e-14 leaves about 1e-7.
    """
    trials = _check_count(trials, 0, "trials")
    gens = np.stack([perm_matrix(n) for n in names])
    d = len(gens)
    rng = np.random.default_rng(seed)
    c = rng.normal(0, 1, (trials, d))
    iu = np.triu_indices(4)
    # J[b, l] = d(A^T A)[triu]/dc_l = c[b] . X[:, l][triu]
    X = _cross_terms(gens)[:, :, iu[0], iu[1]].reshape(d, d * 10)
    eye = np.eye(4)[iu]
    resid = np.empty(trials)
    live, last = np.arange(trials), np.inf
    # pass 61 only records the residual that the 60th step left
    for i in range(61):
        A = np.tensordot(c[live], gens, axes=1)
        f = (A.swapaxes(1, 2) @ A)[:, iu[0], iu[1]] - eye
        resid[live] = r = np.abs(f).max(axis=1)
        # a start accepted already (<= 1e-12) whose residual did not fall
        # has reached rounding; above 1e-12 a damped step may rise for a while
        going = (r > 1e-14) & ((r < last) | (r > 1e-12))
        live, f, last = live[going], f[going], r[going]
        if i == 60 or not len(live):
            break
        J = (c[live] @ X).reshape(-1, d, 10)
        # Levenberg-Marquardt damping keeps rank-deficient starts solvable
        mu = 1e-12 + 1e-2 * (f**2).sum(axis=1)
        JtJ = J @ J.swapaxes(1, 2) + mu[:, None, None] * np.eye(d)
        c[live] -= np.linalg.solve(JtJ, J @ f[..., None])[..., 0]
    return np.tensordot(c, gens, axes=1)[resid <= 1e-12]


def direct_sum_components(A, tol: float = 1e-12) -> list[tuple[list[int], list[int]]]:
    """Connected components of the bipartite row/column graph of the nonzero
    pattern, as (rows, columns) in order of first row: the rows are the
    transitive closure of "shares a column with", the columns those of its
    rows. More than one component means A is a direct sum of blocks up to
    row/column permutations."""
    B = np.abs(np.asarray(A)) > tol
    R = np.eye(len(B), dtype=bool) | (B @ B.T)
    # after k squarings, R joins the rows linked by up to 2^k shared columns
    for _ in range((len(B) - 1).bit_length()):
        R = R @ R
    C = R @ B
    return [(np.flatnonzero(R[i]).tolist(), np.flatnonzero(C[i]).tolist())
            for i, row in enumerate(R.tolist()) if row.index(True) == i]


def is_perm_equivalent_direct_sum(A, tol: float = 1e-9) -> bool:
    """A equals (up to row/column permutations) a direct sum of permutative
    orthogonal blocks; entries within tol of 0 are outside the pattern."""
    comps = direct_sum_components(A, tol)
    if len(comps) < 2:
        return False
    for rows, cols in comps:
        if len(rows) != len(cols):
            return False
        block = np.asarray(A)[np.ix_(rows, cols)]
        if not (is_permutative(block, tol) and is_orthogonal(block, tol)):
            return False
    return True


def satisfies_span_dichotomy(A) -> bool:
    """Permutative, or a permutation-equivalent direct sum of permutative
    orthogonal blocks, within 1e-6. Samples produced by Gauss-Newton sit at
    square-root precision near variety corners (e.g. signed permutations),
    hence the loose tolerance."""
    return is_permutative(A, 1e-6) or is_perm_equivalent_direct_sum(A, 1e-6)
