"""Fourier-block spectral analysis of the walk evolution operator.

The evolution operator block at quantum numbers (n, m) is D_{n,m} C with
D_{n,m} = diag(w^-n, w^n, w^-m, w^m), w = exp(2 pi i / N). For the four named
coin families the eigenpairs have closed forms, ordered k = 1..4 as
(-1, +1, e^{-i a}, e^{+i a}) with a in [0, pi]. Each closed-form eigenvector
is a product px * qy, with px a function of w^n alone and qy of w^m alone:
at every eigenvalue for p34x1, p24y1 and p23z1, and at lambda = +-1 for x3,
whose dispersive pair k = 3, 4 does not separate. _FACTORS holds the one
formula per family; localization integrates the same lambda = -1 x factor,
with _FLAT_Y_ENDS giving the y factor's ends in closed form, and the k = 1, 2
vectors here are outer products of factors computed on the N momenta. One
batched dense eigensolve, _dense_eig, serves every other block: a family
block whose formula denominator degenerates or whose eigenvalues collide is
matched onto its closed-form eigenvalues, and every block of a raw coin is
sorted by eigenvalue angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coins import Coin, COIN_FAMILIES, coin_from_theta
from .walk import CHIRALITIES, WalkState, _check_lattice, _walk_coin, chirality_index

__all__ = [
    "SpectralBlock", "DegeneracyClass",
    "build_block", "closed_form_eigs", "coin_eigensystem",
    "omega_class", "c_coefficient", "c_table_p24y1",
    "finite_N_pbar", "finite_N_pbar_matrix",
    "eta_matrix", "reconstruct_state", "spectrum_rows", "coefficient_rows",
]

_RESID_TOL = 1e-11
_DEGEN_TOL = 1e-9


def _family_theta(coin) -> tuple[str, float] | None:
    if isinstance(coin, Coin) and coin.family in COIN_FAMILIES and coin.theta is not None:
        return coin.family, float(coin.theta)
    return None


def closed_form_eigenvalues(family: str, theta: float, zn, zm) -> np.ndarray:
    """Eigenvalues (..., 4) of the block at momentum angles zn, zm."""
    zn, zm = np.broadcast_arrays(np.asarray(zn, dtype=float), np.asarray(zm, dtype=float))
    if family == "x3":
        ca = ((1 + np.cos(theta)) * np.cos(zn) + (1 - np.cos(theta)) * np.cos(zm)) / 2
        ang = np.arccos(np.clip(ca, -1.0, 1.0))
    else:
        s = np.sin(theta) * (np.cos(zn) + np.cos(zm))
        ang = np.arccos(np.clip(s / 2, -1.0, 1.0))
    lam3 = np.exp(-1j * ang)
    return np.stack([-np.ones_like(lam3), np.ones_like(lam3), lam3, np.conj(lam3)], axis=-1)


def _factors_y1(theta: float, lam, wn, wm):
    """(px, qy), each (4, ...), with eigenvector px * qy at every unimodular
    lam. Written in half-angle variables so no denominator vanishes at
    interior momenta for any theta in (-pi, pi). The ratios in px[0] and
    qy[3] equal lam / wn * rx and lam * wm * ry with rx = ry = 1 at real lam.
    They are evaluated whole: near theta = +-pi/2 the dispersive k = 3, 4
    vectors are ill-conditioned, and splitting off rx and ry moves them by
    about 1e-12."""
    t, u = np.sin(theta / 2), np.cos(theta / 2)
    A = u * lam / wn - t
    B = u - lam * t * wm
    one_x, one_y = np.ones_like(A), np.ones_like(B)
    px = np.stack([(t * lam / wn - u) / (t - u * lam * wn) / A, 1 / A, one_x, one_x])
    qy = np.stack([B, B, one_y, (u * lam * wm - t) / (u - t * lam / wm)])
    return px, qy


def _factors_x1(theta: float, lam, wn, wm):
    t, u = np.sin(theta / 2), np.cos(theta / 2)
    nx1 = u - t * lam / wn
    dx2 = t - u * lam * wn
    nx3 = t - u * lam / wn
    dy1 = t - u * lam * wm
    ny2 = u - lam * t * wm
    dy3 = u - lam * t / wm
    one_x, one_y = np.ones_like(nx1), np.ones_like(dy1)
    px = np.stack([nx1 / dx2, one_x, -nx1, -nx3])
    qy = np.stack([ny2 / dy1, one_y, 1 / dy1, 1 / dy3])
    return px, qy


def _factors_z1(theta: float, lam, wn, wm):
    # the z1 coin is the y1 coin conjugated by the (34) swap, which sends the
    # block at (n, m) to the y1 block at (n, N - m)
    px, qy = _factors_y1(theta, lam, wn, np.conj(wm))
    return px[[0, 1, 3, 2]], qy[[0, 1, 3, 2]]


def _factors_x3(theta: float, lam, wn, wm):
    """lam = +-1 only: the dispersive pair k = 3, 4 does not separate.
    tan(theta / 2) is sin / (1 + cos), but 1 + cos rounds to 0 within about
    1e-8 of theta = +-pi."""
    qy1 = -np.tan(theta / 2) * (wm - lam)
    one_x, one_y = np.ones_like(wn - lam), np.ones_like(qy1)
    px = np.stack([1 / (wn - lam), lam * wn / (wn - lam), one_x, one_x])
    qy = np.stack([qy1, qy1, one_y, lam * wm])
    return px, qy


# (theta, lam, wn, wm) -> (px, qy); the eigenvector is px * qy
_FACTORS = {"p24y1": _factors_y1, "p34x1": _factors_x1,
            "p23z1": _factors_z1, "x3": _factors_x3}


def _u_plus_minus_t(theta: float) -> np.ndarray:
    """cos(theta/2) +- sin(theta/2), written as sines so that neither
    cancels near theta = -+pi/2."""
    return np.sqrt(2) * np.sin(np.pi / 4 + np.array([theta, -theta]) / 2)


def _ends_y1(theta: float) -> np.ndarray:
    p, d = _u_plus_minus_t(theta)
    return np.array([[p, p, 1.0, -1.0], [d, d, 1.0, 1.0]])


def _ends_x1(theta: float) -> np.ndarray:
    p, d = _u_plus_minus_t(theta)
    return np.array([[p, p, 1.0, 1.0], [d, -d, 1.0, -1.0]])


def _ends_x3(theta: float) -> np.ndarray:
    g = -2 * np.tan(theta / 2)
    return np.array([[g, g, 1.0, -1.0], [0.0, 0.0, 1.0, 1.0]])


# theta -> [P+, P-], (2, 4). At lam = -1 each family's qy(y) is
# c(y) (Q0 + Q1 e^{iy}) with one complex scalar c(y) and real 4-vectors Q0,
# Q1; P+- = Q0 +- Q1 are its ends at y = 0 and y = pi, up to c
_FLAT_Y_ENDS = {"p24y1": _ends_y1, "p34x1": _ends_x1,
                "p23z1": lambda theta: _ends_y1(theta)[:, [0, 1, 3, 2]],
                "x3": _ends_x3}


def _vec_x3(theta: float, lam, a, b):
    """x3 eigenvector, (4, ...), for the dispersive pair k = 3, 4."""
    s, c = np.sin(theta), np.cos(theta)
    den = (c + 1) * lam**2 * (a**2 + 1) + a * b * (1 - c) * (lam**2 - 1) \
        - 2 * a * lam * (lam**2 + c)
    v1 = -(a - lam) * (b - lam) * s
    v2 = -a * (b - lam) * (a * lam - 1) * s
    v4 = b * (a - lam) * (a * lam - 1) * (c + 1)
    return np.stack(np.broadcast_arrays(v1, v2, den, v4))


def _dense_eig(U: np.ndarray, targets: np.ndarray | None = None):
    """Dense eigensolve of a (B, 4, 4) stack of blocks: eigenvalues (B, 4)
    and unit eigenvectors (B, 4, 4) indexed [b, k, :].

    Without targets the numeric eigenvalues, sorted by rounded (angle, imag),
    are their own targets. A group is every target within _DEGEN_TOL of its
    first member; group by group, each target takes the nearest unused
    numeric eigenpair and keeps its own value. The vectors of a group are
    orthonormalized by Gram-Schmidt in that order, and each vector's first
    entry above 1e-8 in modulus is made real positive.
    """
    lam, V = np.linalg.eig(U)
    V = V.transpose(0, 2, 1)                                       # V[b, j, :]
    rows = np.arange(len(U))
    if targets is None:
        targets = lam[rows[:, None], np.lexsort((np.round(lam.imag, 9),
                                                  np.round(np.angle(lam), 9)))]
    near = np.abs(targets[:, :, None] - targets[:, None, :]) < _DEGEN_TOL
    lead = np.tile(np.arange(4), (len(U), 1))
    for k in range(1, 4):
        hit = near[:, k, :k] & (lead[:, :k] == np.arange(k))
        lead[:, k] = np.where(hit.any(axis=1), hit.argmax(axis=1), k)
    order = np.argsort(lead, axis=1, kind="stable")
    used = np.zeros((len(U), 4), dtype=bool)
    Q = np.empty_like(V)
    for p in range(4):
        k = order[:, p]
        j = np.where(used, np.inf, np.abs(lam - targets[rows, k][:, None])).argmin(axis=1)
        used[rows, j] = True
        v = V[rows, j]
        for kq in order[:, :p].T:
            u = Q[rows, kq]
            same = (lead[rows, k] == lead[rows, kq])[:, None]
            v = v - same * (u.conj() * v).sum(axis=1, keepdims=True) * u
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
        first = v[rows, np.argmax(np.abs(v) > 1e-8, axis=1)][:, None]
        Q[rows, k] = v / (first / np.abs(first))
    return targets, Q


def _blocks_tensor(C: np.ndarray, N: int) -> np.ndarray:
    q = np.arange(N)
    w = np.exp(2j * np.pi * q / N)
    WN, WM = np.meshgrid(w, w, indexing="ij")
    d = np.stack([1 / WN, WN, 1 / WM, WM], axis=-1)
    return d[..., :, None] * C


def _closed_form_vecs(family: str, theta: float, lams: np.ndarray, wn, wm) -> np.ndarray:
    """Unnormalized eigenvectors (..., 4, 4) indexed [..., k, :] at momenta
    wn, wm that broadcast to lams[..., 0]. lam = -1, +1 are scalars, so on
    the (N, 1) x (1, N) grid their vectors are outer products of O(N) factor
    values. The factor temporaries die on return, before the caller's
    residual check, where the eigensystem's memory peaks."""
    vecs = np.empty(lams.shape + (4,), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(4):
            lam = (-1.0, 1.0)[k] if k < 2 else lams[..., k]
            if k >= 2 and family == "x3":
                v = _vec_x3(theta, lam, wn, wm)
            else:
                px, qy = _FACTORS[family](theta, lam, wn, wm)
                v = px * qy
            vecs[..., k, :] = np.moveaxis(v, 0, -1)
    return vecs


@lru_cache(maxsize=32)
def _family_eigensystem_cached(family: str, theta: float, N: int):
    zn = 2 * np.pi * np.arange(N) / N
    w = np.exp(1j * zn)
    wn, wm = w[:, None], w[None, :]
    lams = closed_form_eigenvalues(family, theta, zn[:, None], zn[None, :])   # (N,N,4)
    vecs = _closed_form_vecs(family, theta, lams, wn, wm)          # [n,m,k,:]
    C = coin_from_theta(family, theta).entries
    U = _blocks_tensor(C, N)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        norms = np.sqrt((vecs.real**2 + vecs.imag**2).sum(axis=-1))
        vecs = vecs / norms[..., None]
        Uv = np.einsum("nmij,nmkj->nmki", U, vecs)
        err = np.abs(Uv - lams[..., None] * vecs)
        resid = np.sqrt((err * err).sum(axis=-1))
    ok = np.isfinite(resid) & (resid <= _RESID_TOL) & np.isfinite(norms) & (norms > 1e-12)
    bad = ~ok.all(axis=-1)
    for a in range(4):
        for b in range(a + 1, 4):
            bad |= np.abs(lams[..., a] - lams[..., b]) < _DEGEN_TOL
    lams[bad], vecs[bad] = _dense_eig(U[bad], lams[bad])
    for arr in (lams, vecs, bad):
        arr.setflags(write=False)
    return lams, vecs, bad, U


def coin_eigensystem(coin, N: int):
    """Eigensystem of all N^2 blocks: eigenvalues (N,N,4), unit eigenvectors
    (N,N,4,4) indexed [n,m,k,:], fallback mask (N,N), blocks (N,N,4,4).
    Takes the lattice sides (odd, >= 3) and coins (walk._walk_coin) the walk takes."""
    N = _check_lattice(N)
    coin = _walk_coin(coin)
    fam = _family_theta(coin)
    if fam is not None:
        return _family_eigensystem_cached(fam[0], fam[1], N)
    U = _blocks_tensor(coin.entries, N)
    lams, vecs = _dense_eig(U.reshape(-1, 4, 4))
    return lams.reshape(N, N, 4), vecs.reshape(N, N, 4, 4), np.ones((N, N), dtype=bool), U


@dataclass(frozen=True)
class SpectralBlock:
    """One Fourier block with its ordered eigenpairs."""

    n: int
    m: int
    N: int
    matrix: np.ndarray          # (4, 4)
    eigenvalues: np.ndarray     # (4,)
    eigenvectors: np.ndarray    # (4, 4), row k is the unit eigenvector for k
    fallback: bool

    def residual(self) -> float:
        r = np.einsum("ij,kj->ki", self.matrix, self.eigenvectors) \
            - self.eigenvalues[:, None] * self.eigenvectors
        return float(np.linalg.norm(r, axis=1).max())


def build_block(coin, n: int, m: int, N: int) -> SpectralBlock:
    """Fourier block D_{n,m} C with eigenpairs attached."""
    if not (0 <= n < N and 0 <= m < N):
        raise ValueError("quantum numbers must lie in 0..N-1")
    lams, vecs, fb, U = coin_eigensystem(coin, N)
    return SpectralBlock(n, m, N, U[n, m], lams[n, m], vecs[n, m], bool(fb[n, m]))


def closed_form_eigs(family: str, theta: float, n: int, m: int, N: int):
    """Eigenpairs [(lam, v), ...] of a family block; vectors have unit norm
    and come from the closed forms except where those degenerate."""
    blk = build_block(coin_from_theta(family, theta), n, m, N)
    return list(zip(blk.eigenvalues, blk.eigenvectors))


@dataclass(frozen=True)
class DegeneracyClass:
    """Quantum numbers sharing a block spectrum."""

    representative: tuple[int, int]
    members: tuple[tuple[int, int], ...]


def omega_class(n: int, m: int, N: int, symmetric: bool = True) -> DegeneracyClass:
    """Degeneracy class of a representative (n, m), 0 <= n, m <= (N-1)/2.

    Block spectra depend on the momentum cosines only, so each index folds as
    q -> N - q; symmetric=True also folds n <-> m (the generalized Grover
    families, whose spectra are symmetric in the two momenta), while
    symmetric=False keeps the axes separate (the x3 family)."""
    half = (N - 1) // 2
    if not (0 <= n <= half and 0 <= m <= half):
        raise ValueError("representative must satisfy 0 <= n, m <= (N-1)/2")
    if (n, m) == (0, 0):
        return DegeneracyClass((0, 0), ((0, 0),))

    def orbit(a, b):
        return {(aa % N, bb % N) for aa in (a, N - a) for bb in (b, N - b)}

    members = orbit(n, m)
    if symmetric:
        members |= orbit(m, n)
    return DegeneracyClass((n, m), tuple(sorted(members)))


def c_coefficient(coin, S_prime: str, S: str, n: int, m: int, k: int, N: int) -> complex:
    """Degeneracy-class sum c for the origin-localized canonical initial
    state |S> observed in coin state |S'>:

        sum over (n', m') in the class of v_{l(S')} conj(v_{l(S)})

    with unit eigenvectors, so the norm factors are already absorbed."""
    if k not in (1, 2, 3, 4):
        raise ValueError("k must be in 1..4")
    lams, vecs, _, _ = coin_eigensystem(coin, N)
    cls = omega_class(n, m, N, symmetric=_symmetric(coin, lams))
    ns, ms = zip(*cls.members)
    sums = _group_sums(vecs[ns, ms, k - 1], np.zeros(len(ns), dtype=int), 1)
    return complex(sums[0, chirality_index(S_prime) - 1, chirality_index(S) - 1])


def _symmetric(coin, lams: np.ndarray) -> bool:
    """Whether the degeneracy classes of coin fold n <-> m. A family coin
    folds unless it is x3. A raw coin folds when its block spectra lams
    (N, N, 4) are symmetric: every block (n, m) has the eigenvalues of
    (m, n), in any order, within _DEGEN_TOL."""
    fam = _family_theta(coin)
    if fam is not None:
        return fam[0] != "x3"
    d = np.abs(lams[..., :, None] - lams.transpose(1, 0, 2)[..., None, :])
    return bool((d.min(axis=-1) <= _DEGEN_TOL).all() and (d.min(axis=-2) <= _DEGEN_TOL).all())


def _group_sums(vecs: np.ndarray, labels: np.ndarray, G: int) -> np.ndarray:
    """Sums of v_a conj(v_c), (G, ..., 4, 4), over the vectors vecs[b]
    (shape (B, ..., 4)) of each group labels[b] in 0..G-1. The products and
    the adds, in b order, round as the scalar member-by-member sum does."""
    w = np.einsum("b...a,b...c->b...ac", vecs, np.conj(vecs))
    sums = np.zeros((G,) + w.shape[1:], dtype=complex)
    np.add.at(sums, labels, w)
    return sums


def c_table_p24y1(l_sp: int, l_s: int, k: int, theta: float, zn: float, zm: float):
    """Closed-form class sums for the p24y1 family, k in {1, 2}.

    Arguments are the chirality indices l(S'), l(S), the branch k and the
    momentum angles. Vectorizes over zn/zm arrays.
    """
    if k not in (1, 2):
        raise ValueError("the closed-form table covers k in {1, 2}")
    s, c = np.sin(theta), np.cos(theta)
    cx, cy = np.cos(zn), np.cos(zm)
    if l_sp == l_s:
        return 2.0 * np.ones_like(np.asarray(cx, dtype=float))
    pair = frozenset((l_sp, l_s))
    if k == 1:
        den = 2 + s * (cx + cy)
        if pair in (frozenset((1, 2)), frozenset((3, 4))):
            num = -2 * (cx + cy + 2 * s * cx * cy)
        elif pair == frozenset((1, 3)):
            num = 2 * (1 + c + (1 - c) * cx * cy + s * (cx + cy))
        elif pair in (frozenset((1, 4)), frozenset((2, 3))):
            num = -2 * (cx + cy + s + s * cx * cy)
        else:  # {2, 4}
            num = 2 * ((1 + c) * cx * cy + (1 - c) + s * (cx + cy))
    else:
        den = 2 - s * (cx + cy)
        if pair in (frozenset((1, 2)), frozenset((3, 4))):
            num = 2 * (cx + cy - 2 * s * cx * cy)
        elif pair == frozenset((1, 3)):
            num = 2 * (1 + c + (1 - c) * cx * cy - s * (cx + cy))
        elif pair in (frozenset((1, 4)), frozenset((2, 3))):
            num = 2 * (cx + cy - s - s * cx * cy)
        else:  # {2, 4}
            num = 2 * ((1 + c) * cx * cy + (1 - c) - s * (cx + cy))
    return num / den


def _cluster_circle(lams: np.ndarray) -> np.ndarray:
    """Group labels for unimodular eigenvalues equal within _DEGEN_TOL
    (circular): neighbours in angle order farther apart start a new label;
    a last group that touches the first across angle +-pi takes its label."""
    order = np.argsort(np.angle(lams), kind="stable")
    s = lams[order]
    sorted_labels = np.concatenate(([0], np.cumsum(np.abs(np.diff(s)) > _DEGEN_TOL)))
    if sorted_labels[-1] > 0 and abs(s[0] - s[-1]) <= _DEGEN_TOL:
        sorted_labels[sorted_labels == sorted_labels[-1]] = 0
    labels = np.empty(len(lams), dtype=int)
    labels[order] = sorted_labels
    return labels


def finite_N_pbar(coin, S_prime: str, S: str, N: int) -> float:
    """Exact T -> infinity time average of the probability of observing the
    walker at the origin in |S'>, started at the origin in |S>, on Z_N.

    Cross terms of distinct eigenvalues average out, so the value is the sum
    over distinct eigenvalues of |sum of spectral weights|^2 / N^4. Weights
    are grouped by actual eigenvalue equality, which handles every degenerate
    parameter combination uniformly.
    """
    return float(finite_N_pbar_matrix(coin, N)[chirality_index(S_prime) - 1,
                                               chirality_index(S) - 1])


def finite_N_pbar_matrix(coin, N: int) -> np.ndarray:
    """All 16 origin time averages at once: entry [l(S')-1, l(S)-1]."""
    lams, vecs, _, _ = coin_eigensystem(coin, N)
    labels = _cluster_circle(lams.reshape(-1))
    sums = _group_sums(vecs.reshape(-1, 4), labels, labels.max() + 1)
    return (np.abs(sums) ** 2).sum(axis=0) / N**4


def _plane_waves(N: int) -> np.ndarray:
    """ph[n, ix] = w^(n x) with w = exp(2 pi i / N), x = ix - (N-1)/2."""
    half = (N - 1) // 2
    xs = np.arange(-half, half + 1)
    w = np.exp(2j * np.pi / N)
    return w ** np.outer(np.arange(N), xs)


def eta_matrix(coin, N: int) -> np.ndarray:
    """All 4N^2 evolution-operator eigenvectors as columns, in canonical
    index order, columns ordered by (n, m, k)."""
    lams, vecs, _, _ = coin_eigensystem(coin, N)
    ph = _plane_waves(N)
    # eta[s, ix, iy] = v_s * w^{n x + m y} / N
    eta = np.einsum("nmks,nx,my->nmksxy", vecs, ph, ph) / N
    cols = eta.reshape(N * N * 4, 4, N, N)
    # canonical flat order: iy slowest, ix, then chirality
    cols = cols.transpose(0, 3, 2, 1).reshape(N * N * 4, -1)
    return cols.T


def reconstruct_state(coin, N: int, S: str, t: int) -> WalkState:
    """Spectral reconstruction of the state after t steps from the canonical
    initial state |S> at the origin."""
    lams, vecs, _, _ = coin_eigensystem(coin, N)
    b = chirality_index(S) - 1
    # sum over k of lam^t v conj(v_b); phases reattach the plane waves
    M = np.einsum("nmk,nmks,nmk->nms", lams**t, vecs, np.conj(vecs[:, :, :, b]))
    ph = _plane_waves(N)
    amps = np.einsum("nms,nx,my->sxy", M, ph, ph, optimize=True) / N**2
    return WalkState(N, amps)


def spectrum_rows(coin, N: int):
    """Iterate (n, m, k, Re lam, Im lam) over all blocks."""
    lams, _, _, _ = coin_eigensystem(coin, N)
    for n in range(N):
        for m in range(N):
            for k in range(4):
                lam = lams[n, m, k]
                yield n, m, k + 1, float(lam.real), float(lam.imag)


def coefficient_rows(coin, N: int):
    """Iterate (S, S', n, m, k, Re c, Im c) over degeneracy-class
    representatives for the origin-localized initial states."""
    lams, vecs, _, _ = coin_eigensystem(coin, N)
    symmetric = _symmetric(coin, lams)
    half = (N - 1) // 2
    classes = [omega_class(n, m, N, symmetric=symmetric)
               for n in range(half + 1) for m in range(half + 1)
               if symmetric is False or n <= m]
    ns, ms = zip(*(nm for cls in classes for nm in cls.members))
    labels = np.repeat(np.arange(len(classes)), [len(cls.members) for cls in classes])
    sums = _group_sums(vecs[ns, ms], labels, len(classes))     # [class, k, a, b]
    for b, S in enumerate(CHIRALITIES):
        for a, Sp in enumerate(CHIRALITIES):
            for cls, c_k in zip(classes, sums[:, :, a, b].tolist()):
                n, m = cls.representative
                for k, c in enumerate(c_k, 1):
                    yield S, Sp, n, m, k, c.real, c.imag
