"""Self-tests of the benchmark's checks: each check must accept a correct
output and reject the same output perturbed, so that a check that passes
everything is caught.

    python3 perfbench/selftest.py

Exits 1 and names the check if one does not behave.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np   # noqa: E402

import oracle        # noqa: E402
import workloads as W  # noqa: E402


def localization_matrix_cases():
    refs = W.load_references()
    for fam, theta in [("x3", W.sweep_thetas()[1]), ("p24y1", W.P24Y1_LARGE_THETAS[2])]:
        ref = refs[(fam, theta)]
        bad = ref.copy()
        bad[1, 2] += 1e-3
        yield f"localization {fam} off by 1e-3", lambda p, pm=bad, f=fam, t=theta, r=ref: \
            W.check_localization_matrix(f, t, pm, r, p, "selftest"), \
            lambda p, f=fam, t=theta, r=ref: \
            W.check_localization_matrix(f, t, r + 1e-9, r, p, "selftest")
    # the oracle itself: p24y1 converges geometrically, so M = 64 already
    # reproduces the stored reference, and a coin at another theta does not
    theta = W.P24Y1_LARGE_THETAS[2]
    ref = refs[("p24y1", theta)]
    yield "oracle at another theta", lambda p: W.check_localization_matrix(
        "p24y1", theta, oracle.localization_matrix(W.coin_entries("p24y1", theta + 0.01), 64),
        ref, p, "selftest"), lambda p: W.check_localization_matrix(
        "p24y1", theta, oracle.localization_matrix(W.coin_entries("p24y1", theta), 64),
        ref, p, "selftest")
    # a Grover diagonal off 1/8, checked without a reference
    ref = refs[("p34x1", W.sweep_thetas()[0])]
    bad = ref.copy()
    bad[3, 3] += 1e-5
    yield "Grover diagonal off 1/8", \
        lambda p: W.check_localization_matrix("p34x1", 0.0, bad, None, p, "selftest"), \
        lambda p: W.check_localization_matrix("p34x1", 0.0, ref, None, p, "selftest")


def walk_obj(C, N, T, S, x, y):
    """A walk simulate JSON object built from the oracle."""
    p = oracle.vertex_probabilities(C, N, W.CHIRALITIES.index(S), T, x, y)
    state = oracle.walk_state(C, N, W.CHIRALITIES.index(S), T)
    vec = state.transpose(2, 1, 0).reshape(-1)
    return {"rows": [[t, x, y, float(v)] for t, v in enumerate(p)],
            "time_averaged": float(p[:T].mean()),
            "amplitudes": [[v.real, v.imag] for v in vec]}


def walk_cases():
    leg = ("p24y1", 0.7, 7, 9, "U", 1, -1)
    good = walk_obj(W.coin_entries(*leg[:2]), *leg[2:])
    bad = walk_obj(W.coin_entries(*leg[:2]), *leg[2:])
    k = int(np.argmax([abs(complex(*a)) for a in bad["amplitudes"]]))
    bad["amplitudes"][k] = [-v for v in bad["amplitudes"][k]]
    yield "walk state with one amplitude sign flipped", \
        lambda p: W.check_walk(bad, *leg, p, "selftest"), \
        lambda p: W.check_walk(good, *leg, p, "selftest")
    bad_p = walk_obj(W.coin_entries(*leg[:2]), *leg[2:])
    bad_p["rows"][4][3] += 1e-6
    yield "walk P_t off by 1e-6", lambda p: W.check_walk(bad_p, *leg, p, "selftest"), None


def spectral_cases():
    from coinwalk import spectral
    from coinwalk.coins import coin_from_theta
    C = W.coin_entries("x3", 0.9)
    want = oracle.finite_n_time_average(C, 11)
    got = spectral.finite_N_pbar_matrix(coin_from_theta("x3", 0.9), 11)
    yield "finite-N matrix off by 1e-9", \
        lambda p: W.check_finite_n(got + 1e-9, want, p, "selftest"), \
        lambda p: W.check_finite_n(got, want, p, "selftest")
    lams, vecs, fb, U = spectral.coin_eigensystem(coin_from_theta("p23z1", -1.2), 11)
    bad = vecs.copy()
    bad[3, 4, 1] = bad[3, 4, 2]
    yield "eigenvector swapped into another eigenvalue's slot", \
        lambda p: W.check_eigensystem((lams, bad, fb, U), p, "selftest"), \
        lambda p: W.check_eigensystem((lams, vecs, fb, U), p, "selftest")


def classify_cases():
    rng = np.random.default_rng(0)
    n = 24
    tags = np.arange(n) % len(W.SET_TAGS)
    thetas = rng.uniform(-3, 3, n) + 1j * rng.normal(0, 0.3, n)
    left = np.zeros(n, dtype=bool)
    inputs = W.set_members(tags, thetas, left)
    kinds = ["m" if int(W.SET_TAGS[t][1]) <= 2 else "n" for t in tags]
    signs = [1 if int(W.SET_TAGS[t][1]) in (1, 3) else -1 for t in tags]
    single = {"inputs": inputs, "family": np.array([W.SET_TAGS[t][0] for t in tags]),
              "left": np.tile([1, 2, 3, 4], (n, 1)), "kind": np.array(kinds),
              "sign": np.array(signs), "x": np.sin(thetas) / 2,
              "z": np.array(signs) * (1 + np.cos(thetas)) / 2}
    batch = {"errors": np.zeros(W.N_BATCH)}
    closure = {"fraction": np.ones(39), "checked": np.full(39, 2 * W.CLOSURE_COUNT)}
    wrong = dict(single, x=single["x"].copy())
    wrong["x"][5] += 1e-6
    yield "witness that reconstructs a different matrix", \
        lambda p: W.check_classify(wrong, batch, closure, inputs, p), \
        lambda p: W.check_classify(single, batch, closure, inputs, p)
    short = dict(closure, fraction=np.r_[np.ones(38), 0.999])
    yield "closure fraction below 1", \
        lambda p: W.check_classify(single, batch, short, inputs, p), None
    nonorth = dict(single, inputs=inputs * 1.001)
    yield "non-orthogonal input", \
        lambda p: W.check_classify(nonorth, batch, closure, nonorth["inputs"], p), None


def main() -> int:
    bad = 0
    for group in (localization_matrix_cases, walk_cases, spectral_cases, classify_cases):
        for name, perturbed, intact in group():
            problems = []
            perturbed(problems)
            rejects = bool(problems)
            accepts = True
            if intact is not None:
                clean = []
                intact(clean)
                accepts = not clean
            ok = rejects and accepts
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {name}: perturbed rejected={rejects}, "
                  f"intact accepted={accepts}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
