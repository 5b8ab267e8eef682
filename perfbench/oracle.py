"""Reference computations made apart from coinwalk.

Nothing here calls into coinwalk: each function takes a plain 4x4 coin
matrix (or witness fields) and recomputes a result by a different route
than the program.

- Localization probabilities: a dense eigensolve of D(zeta) C at every
  midpoint node of the momentum torus, projectors onto lambda = -1 and +1
  averaged over the nodes, squared moduli summed. No closed-form
  eigenvector factors are used.
- Walk states: FFT over the lattice, a 4x4 matrix power per Fourier block,
  inverse FFT; vertex probabilities by stepping the Fourier coefficients.
- Finite-N time averages: a dense eigensolve per Fourier block, orthogonal
  projectors per eigenvalue, and a grouping of equal eigenvalues across
  blocks.
- Classification witnesses: the pattern blocks written out entry by entry.
"""

from __future__ import annotations

import numpy as np

GROUP_TOL = 1e-9


def _phases(zn, zm):
    """diag(e^{-i zn}, e^{i zn}, e^{-i zm}, e^{i zm}) as (..., 4): the shift
    R <- x-1, L <- x+1, U <- y-1, D <- y+1 seen in Fourier space."""
    zn, zm = np.broadcast_arrays(zn, zm)
    return np.stack([np.exp(-1j * zn), np.exp(1j * zn),
                     np.exp(-1j * zm), np.exp(1j * zm)], axis=-1)


def torus_projectors(C: np.ndarray, M: int):
    """Average over the (2M)^2 midpoint nodes of the torus of the orthogonal
    projectors onto the lambda = -1 and lambda = +1 eigenvectors of
    D(zeta) C. Returns (P_minus, P_plus), each (4, 4) complex.

    The nodes are zeta_j = -pi + (j + 1/2) pi / M: the midpoint rule with M
    points per axis on [0, pi], taken with all four momentum signs. Rows of
    nodes go to the eigensolver 64 at a time to bound memory."""
    C = np.asarray(C, dtype=complex)
    z = -np.pi + (np.arange(2 * M) + 0.5) * np.pi / M
    acc = np.zeros((2, 4, 4), dtype=complex)
    for start in range(0, 2 * M, 64):
        zn, zm = np.meshgrid(z[start:start + 64], z, indexing="ij")
        U = _phases(zn, zm)[..., :, None] * C
        lam, V = np.linalg.eig(U.reshape(-1, 4, 4))
        for i, target in enumerate((-1.0, 1.0)):
            k = np.argmin(np.abs(lam - target), axis=1)
            v = np.take_along_axis(V, k[:, None, None], axis=2)[..., 0]
            v = v / np.linalg.norm(v, axis=1, keepdims=True)
            acc[i] += np.einsum("ba,bc->ac", v, v.conj())
    acc /= (2 * M) ** 2
    return acc[0], acc[1]


def localization_matrix(C: np.ndarray, M: int) -> np.ndarray:
    """Entry [S', S]: sum over lambda = +-1 of |<S'| P_lambda |S>|^2 with the
    projectors averaged over the torus nodes of torus_projectors."""
    pm, pp = torus_projectors(C, M)
    return np.abs(pm) ** 2 + np.abs(pp) ** 2


def fourier_blocks(C: np.ndarray, N: int) -> np.ndarray:
    """(N, N, 4, 4) one-step operators on the numpy-FFT coefficients of the
    state, indexed [kx, ky]."""
    z = 2 * np.pi * np.arange(N) / N
    zn, zm = np.meshgrid(z, z, indexing="ij")
    return _phases(zn, zm)[..., :, None] * np.asarray(C, dtype=complex)


def _start(N: int, S_index: int) -> np.ndarray:
    h = (N - 1) // 2
    amps = np.zeros((4, N, N), dtype=complex)
    amps[S_index, h, h] = 1.0
    return amps


def walk_state(C: np.ndarray, N: int, S_index: int, T: int) -> np.ndarray:
    """Amplitudes (4, N, N), indexed [chirality, x + h, y + h] with
    h = (N - 1) / 2, after T steps from chirality S_index at the origin."""
    hat = np.fft.fft2(_start(N, S_index), axes=(1, 2))            # [s, kx, ky]
    UT = np.linalg.matrix_power(fourier_blocks(C, N), T)          # [kx, ky, s, s']
    return np.fft.ifft2(np.einsum("xyij,jxy->ixy", UT, hat), axes=(1, 2))


def vertex_probabilities(C: np.ndarray, N: int, S_index: int, T: int,
                         x: int, y: int) -> np.ndarray:
    """P_t at vertex (x, y) for t = 0..T, stepping the Fourier coefficients
    one block product per step."""
    h = (N - 1) // 2
    blocks = fourier_blocks(C, N).reshape(-1, 4, 4)
    hat = np.fft.fft2(_start(N, S_index), axes=(1, 2)).reshape(4, -1).T
    k = np.arange(N)
    phase = np.outer(np.exp(2j * np.pi * k * (x + h) / N),
                     np.exp(2j * np.pi * k * (y + h) / N)).reshape(-1) / N**2
    out = np.empty(T + 1)
    for t in range(T + 1):
        out[t] = float((np.abs(phase @ hat) ** 2).sum())
        hat = np.einsum("bij,bj->bi", blocks, hat)
    return out


def _block_projectors(U: np.ndarray):
    """Per block eigenvalues (B, 4) and orthogonal projectors (B, 4, 4, 4)
    onto the eigenspace of each eigenvalue, indexed [b, k, :, :]. Equal
    eigenvalues of one block share one projector."""
    lam, V = np.linalg.eig(U)
    V = V / np.linalg.norm(V, axis=1, keepdims=True)
    P = np.einsum("bik,bjk->bkij", V, V.conj())
    same = np.abs(lam[:, :, None] - lam[:, None, :]) < GROUP_TOL
    for b in np.nonzero(same.sum(axis=(1, 2)) > 4)[0]:
        for k in range(4):
            Vg = V[b][:, same[b, k]]
            P[b, k] = Vg @ np.linalg.pinv(Vg)
    return lam, P, same


def group_labels(lams: np.ndarray) -> np.ndarray:
    """Cluster labels for points on the unit circle: sorted by angle, a new
    cluster starts after every gap larger than GROUP_TOL, and the last
    cluster joins the first when they touch across angle pi."""
    order = np.argsort(np.angle(lams), kind="stable")
    srt = lams[order]
    ids = np.cumsum(np.concatenate([[True], np.abs(np.diff(srt)) > GROUP_TOL])) - 1
    if ids[-1] > 0 and abs(srt[-1] - srt[0]) <= GROUP_TOL:
        ids[ids == ids[-1]] = 0
    labels = np.empty(len(lams), dtype=int)
    labels[order] = ids
    return labels


def finite_n_time_average(C: np.ndarray, N: int) -> np.ndarray:
    """Entry [S', S] of the T -> infinity average of |<S', 0| U^t |S, 0>|^2
    on Z_N: sum over distinct eigenvalues of |origin projector entry|^2."""
    lam, P, same = _block_projectors(fourier_blocks(C, N).reshape(-1, 4, 4))
    # each eigenspace of a block enters once, at its first eigenvalue index
    first = ~np.tril(same, k=-1).any(axis=2)
    lam, P = lam[first], P[first]
    labels = group_labels(lam)
    sums = np.zeros((labels.max() + 1, 4, 4), dtype=complex)
    np.add.at(sums, labels, P)
    return (np.abs(sums / N**2) ** 2).sum(axis=0)


def orthogonality_residual(A: np.ndarray) -> np.ndarray:
    """max |A^T A - I| per matrix of a (..., 4, 4) stack (complex
    orthogonality: transpose, not conjugate transpose)."""
    A = np.asarray(A, dtype=complex)
    return np.abs(np.swapaxes(A, -1, -2) @ A - np.eye(4)).max(axis=(-1, -2))


_CONJUGATOR = {"x": [0, 1, 2, 3], "y": [0, 2, 1, 3], "z": [0, 3, 2, 1]}


def pattern_block(kind: str, sign: int, x, z) -> np.ndarray:
    """M^sign_{x,z} (kind "m") or N^sign_{z,x} (kind "n"); x and z may be
    arrays, giving a (..., 4, 4) stack."""
    x, z = np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(z, dtype=complex))
    w = sign - z
    if kind == "m":
        rows = [[x, -x, z, w], [-x, x, w, z], [z, w, -x, x], [w, z, x, -x]]
    else:
        rows = [[z, w, x, -x], [w, z, -x, x], [x, -x, w, z], [-x, x, z, w]]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def witness_matrix(family: str, left, kind: str, sign: int, x, z) -> np.ndarray:
    """Left * Conj * Block * Conj for a classification witness. left is the
    1-based image tuple of the left permutation (its row i has the 1 in
    column left[i] - 1); Conj is I, P23 or P24 for family x, y or z."""
    c = _CONJUGATOR[family]
    B = pattern_block(kind, sign, x, z)[..., c, :][..., :, c]
    return B[..., [j - 1 for j in left], :]
