"""Fourier-block spectral analysis of the walk evolution operator.

The evolution operator block at quantum numbers (n, m) is U = D_{n,m} C with
D_{n,m} = diag(w^-n, w^n, w^-m, w^m), w = exp(2 pi i / N). For the four named
coin families the eigenvalues have closed forms, ordered k = 1..4 as
(-1, +1, e^{-i a}, e^{+i a}) with a in [0, pi]. The flat pair k = 1, 2 has
closed eigenvectors px * qy, px a function of w^n alone and qy of w^m
alone. _FACTORS holds the one formula per family, at lambda = +-1 only: each
entry is a polynomial in w^n, w^m and functions of theta, with no division,
so a flat vector is finite at every momentum and theta. Localization
evaluates the same lambda = -1 factors, px on its x nodes and qy at the y
ends 0 and pi, and here they are outer products of factors on the N
momenta. Every family's dispersive pair k = 3, 4 is deflated from the unit
flat pair. One batched dense eigensolve, _dense_eig, serves every other
block: a family block whose vectors fail the residual check or whose
eigenvalues collide is matched onto its closed-form eigenvalues, and every
block of a raw coin is sorted by eigenvalue angle in (-pi, pi].

Every family coin is real, so conj D_{n,m} = D_{N-n,N-m} gives
U(N-n, N-m) = conj U(n, m): conjugation takes an eigenpair (lam, v) to
(conj lam, conj v), so k = 1, 2 keep their places and k = 3, 4 swap, and it
leaves |U v - lam v| as it is. The vectors and their residual checks are
evaluated on rows n <= (N-1)/2 only, _ROWS rows at a time; row N - n is
row n with m taken to N - m, conjugated, k = 3, 4 swapped, and a mirrored
block takes its source block's residual verdict. The eigenvalues, the
collision test, the blocks and the _dense_eig fallback stay on the full
grid, so the eigenvalues are the ones the closed form gives at every
(n, m).

coin_eigensystem is one route for every coin: a raw coin is the case where
every block falls back, so one _dense_eig call serves both. It keeps one
eigensystem, the last, keyed by (family, theta, N) for a family coin and by
(entries, N) for a raw one: each caller asks for one coin's eigensystem
several times in a row, and memory stays bounded by one eigensystem. The
cached arrays are shared with every caller, so they are read-only.

The degeneracy classes and their sums come from one routine, _class_sums:
it decides the n <-> m fold, builds each class through omega_class and
rejects a class whose members' spectra differ from its representative's.
c_coefficient reads one class from it and coefficient_rows all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coins import _GENERALIZED_GROVER, _check_count, _index, _named_family, coin_from_theta
from .walk import CHIRALITIES, WalkState, _check_lattice, _walk_coin, chirality_index

__all__ = [
    "SpectralBlock", "DegeneracyClass",
    "build_block", "coin_eigensystem",
    "omega_class", "c_coefficient",
    "finite_N_pbar", "finite_N_pbar_matrix",
    "reconstruct_state", "spectrum_rows", "coefficient_rows",
]

_RESID_TOL = 1e-11
_DEGEN_TOL = 1e-9
# rows n per chunk of the closed-form build: at N = 201 its (16, N, 4, 4)
# complex temporaries are 0.8 MB each
_ROWS = 16


def closed_form_eigenvalues(family: str, theta: float, zn, zm) -> np.ndarray:
    """Eigenvalues (..., 4) of the block at momentum angles zn, zm, with
    a = 2 atan2(sqrt(1 - cos a), sqrt(1 + cos a)): each term is a sum of
    non-negative pieces on zn and zm, so nothing cancels at any theta."""
    hn, hm = np.asarray(zn, dtype=float) / 2, np.asarray(zm, dtype=float) / 2
    sn, sm, cn, cm = np.sin(hn) ** 2, np.sin(hm) ** 2, np.cos(hn) ** 2, np.cos(hm) ** 2
    if family in _GENERALIZED_GROVER:
        # cos a = sin(theta) (cos zn + cos zm) / 2; r = 1 - |sin theta|
        s, r = abs(np.sin(theta)), 2 * np.sin((abs(theta) - np.pi / 2) / 2) ** 2
        lo, hi = r + s * (sn + sm), r + s * (cn + cm)
        if np.sin(theta) < 0:
            lo, hi = hi, lo
    else:
        # x3: cos a = cos^2(theta/2) cos zn + sin^2(theta/2) cos zm
        u, t = np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2
        lo, hi = u * sn + t * sm, u * cn + t * cm
    lam3 = np.exp(-2j * np.arctan2(np.sqrt(lo), np.sqrt(hi)))
    return np.stack([-np.ones_like(lam3), np.ones_like(lam3), lam3, np.conj(lam3)], axis=-1)


def _factors_y1(theta: float, lam, wn, wm):
    """(px, qy), each (4, ...), with eigenvector px * qy at lam = +-1, in
    the half-angle sin t and cos u of theta."""
    t, u = np.sin(theta / 2), np.cos(theta / 2)
    a = u * lam - t * wn
    b = u - lam * t * wm
    px = np.stack([np.full_like(a, lam), wn, a, a])
    qy = np.stack([b, b, np.ones_like(b), lam * wm])
    return px, qy


def _factors_x1(theta: float, lam, wn, wm):
    t, u = np.sin(theta / 2), np.cos(theta / 2)
    px = np.stack([np.full_like(wn, -lam), wn, t * lam - u * wn, u * lam - t * wn])
    qy = np.stack([u - lam * t * wm, t - u * lam * wm, np.ones_like(wm), -lam * wm])
    return px, qy


def _factors_z1(theta: float, lam, wn, wm):
    # the z1 coin is the y1 coin conjugated by the (34) swap, which sends the
    # block at (n, m) to the y1 block at (n, N - m)
    px, qy = _factors_y1(theta, lam, wn, np.conj(wm))
    return px[[0, 1, 3, 2]], qy[[0, 1, 3, 2]]


def _factors_x3(theta: float, lam, wn, wm):
    """lam = +-1 only: the dispersive pair k = 3, 4 does not separate. px * qy has no
    division and is 0 only where the flat pair meets the dispersive one. tan(theta / 2)
    is sin / (1 + cos), but 1 + cos rounds to 0 within 1e-8 of theta = +-pi."""
    gap = wn - lam
    qy1 = -np.tan(theta / 2) * (wm - lam)
    px = np.stack([np.ones_like(gap), lam * wn, gap, gap])
    qy = np.stack([qy1, qy1, np.ones_like(qy1), lam * wm])
    return px, qy


# (theta, lam, wn, wm) -> (px, qy); the eigenvector at lam = +-1 is px * qy
_FACTORS = {"p24y1": _factors_y1, "p34x1": _factors_x1,
            "p23z1": _factors_z1, "x3": _factors_x3}


def _dense_eig(U: np.ndarray, targets: np.ndarray | None = None):
    """Dense eigensolve of a (B, 4, 4) stack of blocks: eigenvalues (B, 4)
    and unit eigenvectors (B, 4, 4) indexed [b, k, :].

    Without targets the numeric eigenvalues, sorted by rounded (angle, imag)
    with the angle in (-pi, pi], are their own targets: an angle within 1e-9
    of -pi counts as +pi, so lambda = -1 sorts last whatever the sign of its
    zero imaginary part. A group is every target within _DEGEN_TOL of its
    first member; group by group, each target takes the nearest unused
    numeric eigenpair and keeps its own value. The vectors of a group are
    orthonormalized by Gram-Schmidt in that order, and each vector's first
    entry above 1e-8 in modulus is made real positive.
    """
    lam, V = np.linalg.eig(U)
    V = V.transpose(0, 2, 1)                                       # V[b, j, :]
    rows = np.arange(len(U))
    if targets is None:
        ang = np.angle(lam)
        ang[ang <= -np.pi + 1e-9] = np.pi
        targets = lam[rows[:, None], np.lexsort((np.round(lam.imag, 9), np.round(ang, 9)))]
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


def _phases(N: int) -> np.ndarray:
    """The diagonal of D_{n,m}, (N, N, 4); the blocks are d[..., :, None] * C."""
    q = np.arange(N)
    w = np.exp(2j * np.pi * q / N)
    WN, WM = np.meshgrid(w, w, indexing="ij")
    return np.stack([1 / WN, WN, 1 / WM, WM], axis=-1)


def _deflate(C: np.ndarray, d: np.ndarray, lam_other: np.ndarray, v1, v2) -> np.ndarray:
    """Unit eigenvectors (..., j, 4) of the blocks U = d[..., :, None] * C for
    the eigenvalue lam = conj lam', lam' = lam_other[..., j], from the unit
    flat pair v1 (lam = -1) and v2 (lam = +1), each (..., 4). With
    Pc = I - v1 v1^H - v2 v2^H, (U - lam') Pc = (lam - lam') v v^H
    = U - lam' + (1 + lam') v1 v1^H - (1 - lam') v2 v2^H. Its column c is
    taken where its diagonal over lam - lam' = -2i Im lam', which is
    |v_c|^2 = (1 - |v1_c|^2 - |v2_c|^2 - Im U_cc / Im lam') / 2, is largest."""
    h = 1 - (v1.real**2 + v1.imag**2) - (v2.real**2 + v2.imag**2)
    c = (h[..., None, :] - (d * np.diagonal(C)).imag[..., None, :]
         / lam_other.imag[..., None]).argmax(axis=-1)
    col = d[..., None, :] * np.take(C.T, c, axis=0)
    col.reshape(-1, 4)[np.arange(c.size), c.reshape(-1)] -= lam_other.reshape(-1)
    col += ((1 + lam_other) * np.take_along_axis(v1.conj(), c, -1))[..., None] * v1[..., None, :]
    col -= ((1 - lam_other) * np.take_along_axis(v2.conj(), c, -1))[..., None] * v2[..., None, :]
    x = col.view(float)
    return col / np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]


def _closed_form_half(family: str, theta: float, C: np.ndarray, lams: np.ndarray,
                      d: np.ndarray):
    """Unit eigenvectors (N, N, 4, 4) and the blocks whose vectors fail the
    residual check, (N, N) bool, for the phases d = _phases(N). Rows
    n <= (N-1)/2 are solved, _ROWS at a time, the flat pair from _FACTORS
    and the dispersive pair deflated from it; row N - n is row n mirrored."""
    N = len(d)
    w = d[:, 0, 1]
    half = (N - 1) // 2
    vecs = np.empty((N, N, 4, 4), dtype=complex)
    failed = np.empty((N, N), dtype=bool)
    for n0 in range(0, half + 1, _ROWS):
        rows = slice(n0, min(n0 + _ROWS, half + 1))
        v = vecs[rows]
        flat = np.empty((2,) + v.shape[:2] + (4,), dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, lam in enumerate((-1.0, 1.0)):
                px, qy = _FACTORS[family](theta, lam, w[rows, None], w[None, :])
                np.multiply(np.moveaxis(px, 0, -1), np.moveaxis(qy, 0, -1), out=flat[k])
            # a flat vector is 0 only where the flat and dispersive pairs
            # meet: 0 / 0 gives NaN, and NaN residuals fail the check
            flat /= np.sqrt((flat.real**2 + flat.imag**2).sum(axis=-1, keepdims=True))
            v[..., :2, :] = np.moveaxis(flat, 0, 2)
            v[..., 2:, :] = _deflate(C, d[rows], lams[rows, :, :1:-1], *flat)
            # U v = d * (C v): one GEMM over the chunk's vectors
            err = (v.reshape(-1, 4) @ C.T).reshape(v.shape) * d[rows, :, None, :]
            err -= lams[rows, :, :, None] * v
            resid = np.sqrt((err.real**2 + err.imag**2).sum(axis=-1))
        failed[rows] = ~(resid <= _RESID_TOL).all(axis=-1)
    # row N - n is row n at m -> N - m, conjugated, with k = 3, 4 swapped
    m = -np.arange(N) % N
    mirrored = vecs[half + 1:]
    np.conjugate(vecs[half:0:-1, m], out=mirrored)
    mirrored[:, :, 2:] = mirrored[:, :, :1:-1]
    failed[half + 1:] = failed[half:0:-1, m]
    return vecs, failed


@lru_cache(maxsize=1)
def _eigensystem(family: str | None, theta, N: int):
    """coin_eigensystem; a raw coin has family None and its entries' bytes as theta."""
    d = _phases(N)
    if family is None:
        C = np.frombuffer(theta, dtype=complex).reshape(4, 4)
        bad = np.ones((N, N), dtype=bool)
        lams, vecs = np.empty((N, N, 4), dtype=complex), np.empty((N, N, 4, 4), dtype=complex)
    else:
        C = coin_from_theta(family, theta).entries
        zn = 2 * np.pi * np.arange(N) / N
        lams = closed_form_eigenvalues(family, theta, zn[:, None], zn[None, :])  # (N,N,4)
        vecs, bad = _closed_form_half(family, theta, C, lams, d)
        for a, b in zip(*np.triu_indices(4, 1)):
            bad |= np.abs(lams[..., a] - lams[..., b]) < _DEGEN_TOL
    U = d[..., :, None] * C
    lams[bad], vecs[bad] = _dense_eig(U[bad], None if family is None else lams[bad])
    for arr in (lams, vecs, bad, U):
        arr.setflags(write=False)
    return lams, vecs, bad, U


def coin_eigensystem(coin, N: int):
    """Eigensystem of all N^2 blocks: eigenvalues (N,N,4), unit eigenvectors
    (N,N,4,4) indexed [n,m,k,:], fallback mask (N,N), blocks (N,N,4,4).
    Takes the lattice sides (odd, >= 3) and coins (walk._walk_coin) the walk
    takes. One route serves every coin, a raw coin being the case where every
    block falls back; only the last result is cached, and it is read-only."""
    N = _check_lattice(N)
    coin = _walk_coin(coin)
    return _eigensystem(*(_named_family(coin) or (None, coin.entries.tobytes())), N)


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
    n, m = _index(n), _index(m)
    if n is None or m is None or not (0 <= n < N and 0 <= m < N):
        raise ValueError("quantum numbers must be integers in 0..N-1")
    lams, vecs, fb, U = coin_eigensystem(coin, N)
    return SpectralBlock(n, m, N, U[n, m], lams[n, m], vecs[n, m], bool(fb[n, m]))


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
    symmetric=False keeps the axes separate (the x3 family). N is a lattice
    side the walk takes. _class_sums decides the fold for a coin and checks
    each class against the block spectra."""
    N = _check_lattice(N)
    half = (N - 1) // 2
    n, m = _index(n), _index(m)
    if n is None or m is None or not (0 <= n <= half and 0 <= m <= half):
        raise ValueError("representative must be integers 0 <= n, m <= (N-1)/2")

    def orbit(a, b):
        return {(aa % N, bb % N) for aa in (a, N - a) for bb in (b, N - b)}

    members = orbit(n, m)
    if symmetric:
        members |= orbit(m, n)
    return DegeneracyClass((n, m), tuple(sorted(members)))


def _class_sums(coin, N: int, reps=None):
    """The degeneracy classes of coin and their sums: (representatives,
    sums (G, 4, 4, 4) indexed [class, k, a, b]) of v_a conj(v_b) over the
    k-th unit eigenvectors of each class's members, for the representatives
    reps, by default every one (n <= m when the classes fold).

    This is the one place where the classes meet the block spectra. A
    family coin folds n <-> m unless it is x3. A raw coin folds when every
    block (n, m) lists the eigenvalues of block (m, n), k by k, within
    _DEGEN_TOL. A class sum adds the k-th vectors of its members, so
    ValueError unless every member lists its representative's eigenvalues k
    by k within _DEGEN_TOL; a raw coin whose momentum orbits do not keep
    the block spectrum fails this."""
    lams, vecs, _, _ = coin_eigensystem(coin, N)
    named = _named_family(coin)
    symmetric = (named[0] in _GENERALIZED_GROVER if named else
                 bool((np.abs(lams - lams.transpose(1, 0, 2)) <= _DEGEN_TOL).all()))
    if reps is None:
        half = (N - 1) // 2
        reps = [(n, m) for n in range(half + 1) for m in range(half + 1)
                if not symmetric or n <= m]
    classes = [omega_class(n, m, N, symmetric=symmetric) for n, m in reps]
    ns, ms = zip(*(nm for cls in classes for nm in cls.members))
    labels = np.repeat(np.arange(len(classes)), [len(cls.members) for cls in classes])
    rn, rm = np.array([cls.representative for cls in classes])[labels].T
    if (np.abs(lams[ns, ms] - lams[rn, rm]) > _DEGEN_TOL).any():
        raise ValueError("a degeneracy class mixes blocks of different spectra")
    return [cls.representative for cls in classes], _group_sums(vecs[ns, ms], labels, len(classes))


def c_coefficient(coin, S_prime: str, S: str, n: int, m: int, k: int, N: int) -> complex:
    """Degeneracy-class sum c for the origin-localized canonical initial
    state |S> observed in coin state |S'>:

        sum over (n', m') in the class of v_{l(S')} conj(v_{l(S)})

    with unit eigenvectors, so the norm factors are already absorbed. The
    class of (n, m) and its sum come from _class_sums, which folds n <-> m
    and checks the class as coefficient_rows does: ValueError if a member's
    block spectrum is not the representative's."""
    k = _index(k)
    if k not in (1, 2, 3, 4):
        raise ValueError("k must be an integer in 1..4")
    sums = _class_sums(coin, N, [(n, m)])[1]
    return complex(sums[0, k - 1, chirality_index(S_prime) - 1, chirality_index(S) - 1])


def _group_sums(vecs: np.ndarray, labels: np.ndarray, G: int) -> np.ndarray:
    """Sums of v_a conj(v_c), (G, ..., 4, 4), over the vectors vecs[b]
    (shape (B, ..., 4)) of each group labels[b] in 0..G-1. One bincount per
    entry a <= c adds, in b order, products formed on the real planes as
    numpy forms a complex product, so the sums round as the scalar
    member-by-member sum does. (c, a) is the conjugate of (a, c); its
    imaginary part is 0 - im, which keeps the +0.0 that its own sum gives.
    On the diagonal that part is exactly 0 for finite vectors, so it is not
    summed."""
    K = int(np.prod(vecs.shape[1:-1], dtype=int))
    bins = (labels[:, None] * K + np.arange(K)).reshape(-1)
    vr = np.ascontiguousarray(vecs.real.reshape(-1, 4).T)
    vi = np.ascontiguousarray(vecs.imag.reshape(-1, 4).T)
    sums = np.zeros((G * K, 4, 4), dtype=complex)
    for a in range(4):
        for c in range(a, 4):
            re = np.bincount(bins, vr[a] * vr[c] + vi[a] * vi[c], G * K)
            sums.real[:, a, c] = sums.real[:, c, a] = re
            if c > a:
                im = np.bincount(bins, vi[a] * vr[c] - vr[a] * vi[c], G * K)
                sums.imag[:, a, c] = im
                sums.imag[:, c, a] = 0.0 - im
    return sums.reshape((G,) + vecs.shape[1:-1] + (4, 4))


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


def reconstruct_state(coin, N: int, S: str, t: int) -> WalkState:
    """Spectral reconstruction of the state after t steps from the canonical
    initial state |S> at the origin. t is checked as walk.evolve checks it:
    an integer >= 0; numpy integers pass, bool and float raise ValueError."""
    t = _check_count(t, 0, "t")
    lams, vecs, _, _ = coin_eigensystem(coin, N)
    b = chirality_index(S) - 1
    # sum over k of lam^t v conj(v_b), then the inverse transform over (n, m):
    # amps[s, x, y] = sum of M[s, n, m] w^(n x + m y) / N^2, w = exp(2 pi i / N),
    # and fftshift moves x = y = 0 to the centre of the lattice
    M = np.einsum("nmk,nmks,nmk->snm", lams**t, vecs, np.conj(vecs[:, :, :, b]))
    return WalkState(N, np.fft.fftshift(np.fft.ifft2(M), axes=(1, 2)))


def spectrum_rows(coin, N: int):
    """Iterate (n, m, k, Re lam, Im lam) over all blocks."""
    lams, _, _, _ = coin_eigensystem(coin, N)
    nmk = np.indices(lams.shape).reshape(3, -1)
    nmk[2] += 1
    yield from zip(*nmk.tolist(), lams.real.ravel().tolist(), lams.imag.ravel().tolist())


def coefficient_rows(coin, N: int):
    """Iterate (S, S', n, m, k, Re c, Im c) over degeneracy-class
    representatives for the origin-localized initial states. The classes,
    their n <-> m fold and their check come from _class_sums: ValueError if
    a member's block spectrum is not its representative's."""
    reps, sums = _class_sums(coin, N)                    # [class, k, a, b]
    for b, S in enumerate(CHIRALITIES):
        for a, Sp in enumerate(CHIRALITIES):
            for (n, m), c_k in zip(reps, sums[:, :, a, b].tolist()):
                for k, c in enumerate(c_k, 1):
                    yield S, Sp, n, m, k, c.real, c.imag
