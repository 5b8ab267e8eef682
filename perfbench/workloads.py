"""The four workloads: inputs drawn from a seed, the steps that run them,
their work units, and the checks of their outputs.

A step is one process a user would start: a coinwalk CLI command, or a
script in this directory that calls the public API (see steps.py). The
parent draws every input here, so the program receives only the generated
inputs. Checks compare outputs with oracle.py and with the stored
references, or test properties the mathematics requires; they run outside
every timed interval.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
FAMILIES = ("p34x1", "p24y1", "p23z1", "x3")
GROVER = FAMILIES[:3]
CHIRALITIES = "RLUD"
SET_TAGS = tuple(f"{f}{j}" for f in "xyz" for j in (1, 2, 3, 4))
# left factors of the generalized Grover sets, as 1-based image tuples
LEFT_FACTOR = {"x": (1, 2, 4, 3), "y": (1, 4, 3, 2), "z": (1, 3, 2, 4)}

# localize: the sweep grid and the large-M points are fixed so that the
# stored references cover every value the job prints
SWEEP_POINTS = 6
SWEEP_M = 512
LARGE_M = 2048
X3_LARGE_THETAS = (3.08, 3.09, 3.1)
P24Y1_LARGE_THETAS = (-2.6, -1.1, 0.35, 1.9)
# largest allowed |value - converged reference| of a localization
# probability. Today's worst is 9.4e-7 (x3 at theta +-0.449, M 512; at
# M 2048 x3 reaches 5.0e-7 to 7.4e-7 at theta 3.08 to 3.1), and halving M
# for x3 anywhere breaks it; the Grover families sit at roundoff
LOC_TOL = 1.5e-6
DIAGONAL_TOL = 1e-6          # Theorem 3.6: diagonal = 1/8 for Grover families

# walk
WALK_LEGS = ((201, 300), (5, 20000))                 # (N, T)
# roundoff grows with T: at T = 20000 the observed values are 2e-13 (state),
# 6e-13 (P_t) and 9e-13 (norm)
STATE_TOL = 1e-10            # final state against the Fourier evolution
PROB_TOL = 1e-10             # every P_t against the Fourier evolution
NORM_TOL = 1e-10

# spectral
SPECTRAL_N, RAW_N, RECON_N, SPECTRUM_N = 201, 51, 101, 101
RESIDUAL_TOL = 1e-11         # |U v - lambda v| with |v| = 1, every block
FINITE_N_TOL = 1e-10         # finite_N_pbar_matrix against the dense eigensolve
RECON_TOL = 1e-10            # reconstruct_state against the Fourier evolution

# classify
N_SINGLE, N_BATCH, BATCH_CHUNK, CLOSURE_COUNT = 2000, 100_000, 10_000, 1000
CLASSIFY_TOL = 1e-9          # coinwalk's default classification tolerance


@dataclass
class Step:
    """One process: `kind` is "cli" (args of `python -m coinwalk.cli`,
    without --out) or "api" (args = [job name, params file])."""

    name: str
    kind: str
    args: list
    out: str


@dataclass
class Job:
    workload: str
    steps: list
    units: float
    unit_name: str
    check: object = field(repr=False)   # check(outdir) -> (problems, info)


def sweep_thetas() -> np.ndarray:
    return np.linspace(-np.pi, np.pi, SWEEP_POINTS + 2)[1:-1]


def reference_points() -> list[tuple[str, float]]:
    pts = [(f, float(t)) for f in FAMILIES for t in sweep_thetas()]
    pts += [("x3", t) for t in X3_LARGE_THETAS]
    pts += [("p24y1", t) for t in P24Y1_LARGE_THETAS]
    return pts


def load_references() -> dict:
    data = json.loads((HERE / "references.json").read_text())
    return {(p["family"], p["theta"]): np.array(p["matrix"]) for p in data["points"]}


def coin_entries(family: str, theta: float) -> np.ndarray:
    """The family coin, built with coinwalk's public constructor (the coin
    is an input; every oracle takes it as a plain matrix)."""
    from coinwalk.coins import coin_from_theta
    return np.array(coin_from_theta(family, theta).entries)


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _cli(name, *args, fmt="json"):
    return Step(name, "cli", [str(a) for a in args] + ["--format", fmt],
                f"{name}.{fmt}")


# ---------------------------------------------------------------------------
# localize


def build_localize(seed: int, rundir: Path) -> Job:
    rng = np.random.default_rng([seed, 1])
    steps = [_cli(f"sweep.{f}", "localize", "sweep", "--family", f, "--S", "all",
                  "--points", SWEEP_POINTS, fmt="csv") for f in FAMILIES]
    steps.append(_cli("theorem36", "localize", "theorem36"))
    tx, S, Sp = _pick(rng, X3_LARGE_THETAS), _pick(rng, CHIRALITIES), _pick(rng, CHIRALITIES)
    steps.append(_cli("pair.x3", "localize", "pair", "--family", "x3", f"--theta={tx!r}",
                      "--S", S, "--Sprime", Sp, "--quad-M", LARGE_M))
    ty, S2 = _pick(rng, P24Y1_LARGE_THETAS), _pick(rng, CHIRALITIES)
    steps.append(_cli("total.p24y1", "localize", "total", "--family", "p24y1",
                      f"--theta={ty!r}", "--S", S2, "--quad-M", LARGE_M,
                      "--check-convergence"))
    # nodes a job needs: the sweep and theorem 3.6 grids at M = 512, one
    # matrix at M = 2048, and the M/2 and M matrices of the convergence check
    units = (len(FAMILIES) * SWEEP_POINTS + 3 * 25) * SWEEP_M**2 \
        + LARGE_M**2 + (LARGE_M // 2) ** 2 + LARGE_M**2

    def check(outdir):
        return check_localize(outdir, steps, load_references())

    return Job("localize", steps, units, "nodes", check)


def read_sweep(path: Path):
    """{theta: (4, 4) matrix [S', S]} and the p_total rows of a sweep CSV."""
    mats, totals = {}, []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            th = float(row["theta"])
            pm = np.array([[float(row[f"p_{si}{sj}"]) for si in CHIRALITIES]
                           for sj in CHIRALITIES])
            mats[th] = pm
            totals.append((th, row["S"], float(row["p_total"]), int(row["quad_M"])))
    return mats, totals


def check_localization_matrix(family, theta, pm, ref, problems, where):
    """Range, column totals and, for the Grover families, the 1/8 diagonal;
    returns |pm - ref| (ref may be None)."""
    if not (np.all(pm >= 0) and np.all(pm <= 1)):
        problems.append(f"{where}: entries outside [0, 1]")
    if pm.sum(axis=0).max() > 1 + 1e-12:
        problems.append(f"{where}: a column total exceeds 1")
    if family in GROVER and np.abs(np.diag(pm) - 0.125).max() > DIAGONAL_TOL:
        problems.append(f"{where}: diagonal differs from 1/8 by more than {DIAGONAL_TOL}")
    if ref is None:
        return 0.0
    dev = float(np.abs(pm - ref).max())
    if dev > LOC_TOL:
        problems.append(f"{where}: differs from the oracle by {dev:.3e} > {LOC_TOL}")
    return dev


def check_localize(outdir: Path, steps, refs):
    problems, devs = [], []
    for f in FAMILIES:
        where = f"sweep {f}"
        mats, totals = read_sweep(outdir / f"sweep.{f}.csv")
        want = sweep_thetas()
        got = np.array(sorted(mats))
        if len(got) != len(want) or np.abs(got - want).max() > 1e-15:
            problems.append(f"{where}: theta grid differs")
            continue
        if sorted(S for _, S, _, _ in totals) != sorted(CHIRALITIES * len(want)):
            problems.append(f"{where}: rows are not one per (theta, S)")
        for th, S, tot, M in totals:
            col = CHIRALITIES.index(S)
            if M != SWEEP_M or abs(tot - mats[th][:, col].sum()) > 1e-12:
                problems.append(f"{where}: p_total or quad_M wrong at theta {th}")
        for th, pm in mats.items():
            devs.append(check_localization_matrix(f, th, pm, refs.get((f, th)),
                                                  problems, f"{where} theta {th}"))
    rep = json.loads((outdir / "theorem36.json").read_text())
    if not (rep["passed"] and rep["max_abs_deviation"] < DIAGONAL_TOL
            and rep["grid"] == 25 and rep["quad_M"] == SWEEP_M
            and tuple(rep["families"]) == GROVER):
        problems.append(f"theorem36: report {rep}")
    for step in steps[-2:]:
        obj = json.loads((outdir / step.out).read_text())
        fam, th = obj["family"], obj["theta"]
        ref = refs.get((fam, th))
        if ref is None or obj["quad_M"] != LARGE_M or not obj["converged"]:
            problems.append(f"{step.name}: {obj}")
            continue
        col = CHIRALITIES.index(obj["S"])
        want = ref[CHIRALITIES.index(obj["Sprime"]), col] if "Sprime" in obj \
            else ref[:, col].sum()
        dev = abs(obj["value"] - want)
        devs.append(dev)
        if not 0 <= obj["value"] <= 1 or dev > LOC_TOL:
            problems.append(f"{step.name}: value {obj['value']} vs oracle {want}")
    return problems, {"quad_err": max(devs)}


# ---------------------------------------------------------------------------
# walk


def build_walk(seed: int, rundir: Path) -> Job:
    rng = np.random.default_rng([seed, 2])
    steps, legs = [], []
    for N, T in WALK_LEGS:
        fam = _pick(rng, FAMILIES)
        theta = float(rng.uniform(-3.0, 3.0))
        S = _pick(rng, CHIRALITIES)
        r = min(3, (N - 1) // 2)
        x, y = (int(v) for v in rng.integers(-r, r + 1, 2))
        steps.append(_cli(f"simulate.N{N}", "walk", "simulate", "--family", fam,
                          f"--theta={theta!r}", "--N", N, "--T", T, "--S", S,
                          f"--at={x},{y}", "--dump-state"))
        legs.append((fam, theta, N, T, S, x, y))
    units = sum(N * N * T for N, T in WALK_LEGS)

    def check(outdir):
        problems = []
        for step, leg in zip(steps, legs):
            obj = json.loads((outdir / step.out).read_text())
            check_walk(obj, *leg, problems, step.name)
        return problems, {}

    return Job("walk", steps, units, "site-steps", check)


def check_walk(obj, family, theta, N, T, S, x, y, problems, where):
    C = coin_entries(family, theta)
    p = np.array([r[3] for r in obj["rows"]])
    if [r[:3] for r in obj["rows"]] != [[t, x, y] for t in range(T + 1)]:
        problems.append(f"{where}: rows are not t = 0..T at ({x},{y})")
        return
    if not (np.all(p >= 0) and np.all(p <= 1)):
        problems.append(f"{where}: a P_t lies outside [0, 1]")
    dev = np.abs(p - oracle.vertex_probabilities(C, N, CHIRALITIES.index(S), T, x, y)).max()
    if dev > PROB_TOL:
        problems.append(f"{where}: P_t differs from the Fourier evolution by {dev:.3e}")
    if abs(obj["time_averaged"] - p[:T].mean()) > 1e-12:
        problems.append(f"{where}: time_averaged is not the mean of P_0..P_(T-1)")
    amps = np.array(obj["amplitudes"])
    vec = amps[:, 0] + 1j * amps[:, 1]
    # canonical order: y slowest, then x, then chirality
    state = vec.reshape(N, N, 4).transpose(2, 1, 0)
    check_state(state, oracle.walk_state(C, N, CHIRALITIES.index(S), T), STATE_TOL,
                problems, where)


def check_state(state, ref, tol, problems, where):
    if abs(np.linalg.norm(state) - 1) > NORM_TOL:
        problems.append(f"{where}: final-state norm {np.linalg.norm(state)!r}")
    dev = np.abs(state - ref).max()
    if dev > tol:
        problems.append(f"{where}: final state differs from the Fourier evolution by {dev:.3e}")


# ---------------------------------------------------------------------------
# spectral


def build_spectral(seed: int, rundir: Path) -> Job:
    rng = np.random.default_rng([seed, 3])
    thetas = rng.uniform(-3.0, 3.0, 7)
    params = {
        "closed": [[f, float(t)] for f, t in zip(FAMILIES, thetas[:4])],
        "closed_N": SPECTRAL_N,
        "raw": [_pick(rng, FAMILIES), float(thetas[4])],
        "raw_N": RAW_N,
        "recon": [_pick(rng, FAMILIES), float(thetas[5]), _pick(rng, CHIRALITIES),
                  int(rng.integers(30, 61))],
        "recon_N": RECON_N,
    }
    path = rundir / "spectral.params.json"
    path.write_text(json.dumps(params))
    fam, theta = _pick(rng, FAMILIES), float(thetas[6])
    steps = [Step("api.spectral", "api", ["spectral", str(path)], "api.spectral.npz"),
             _cli("spectrum", "walk", "spectrum", "--family", fam, f"--theta={theta!r}",
                  "--N", SPECTRUM_N, fmt="csv")]
    # Fourier blocks: N^2 per call of the job
    units = 4 * SPECTRAL_N**2 + RAW_N**2 + 2 * RECON_N**2

    def check(outdir):
        return check_spectral(outdir, params, (fam, theta), steps)

    return Job("spectral", steps, units, "blocks", check)


def block_residuals(lams, vecs, U):
    """|U v - lambda v| per eigenpair, and |(|v| - 1)|."""
    Uv = np.einsum("nmij,nmkj->nmki", U, vecs)
    return (np.linalg.norm(Uv - lams[..., None] * vecs, axis=-1),
            np.abs(np.linalg.norm(vecs, axis=-1) - 1))


def check_eigensystem(eig, problems, where):
    """Eigen-residual check of a coin_eigensystem result; returns the worst
    residual."""
    lams, vecs, _, U = eig
    res, unit = block_residuals(lams, vecs, U)
    if res.max() > RESIDUAL_TOL or unit.max() > 1e-12:
        problems.append(f"{where}: eigen-residual {res.max():.3e} or norm defect "
                        f"{unit.max():.3e}")
    return float(res.max())


def check_spectral(outdir: Path, params, spectrum_coin, steps):
    from coinwalk import spectral
    from coinwalk.coins import coin_from_theta
    problems, worst = [], 0.0
    out = np.load(outdir / steps[0].out)
    N = params["closed_N"]
    fallback = 0
    for i, (fam, theta) in enumerate(params["closed"]):
        where = f"finite_N_pbar_matrix {fam} N={N}"
        C = coin_entries(fam, theta)
        check_finite_n(out["closed"][i], oracle.finite_n_time_average(C, N), problems, where)
        # recomputed here: the step keeps its eigensystem in memory only
        eig = spectral.coin_eigensystem(coin_from_theta(fam, theta), N)
        worst = max(worst, check_eigensystem(eig, problems, where))
        fallback += int(eig[2].sum())
    if int(out["fallback_blocks"]) != fallback:
        problems.append("fallback block count differs from the recomputed mask")
    fam, theta = params["raw"]
    C = coin_entries(fam, theta)
    check_finite_n(out["raw"], oracle.finite_n_time_average(C, params["raw_N"]), problems,
                   f"raw-coin finite_N_pbar_matrix N={params['raw_N']}")
    worst = max(worst, check_eigensystem(spectral.coin_eigensystem(C, params["raw_N"]),
                                         problems, "raw-coin eigensystem"))
    fam, theta, S, t = params["recon"]
    C = coin_entries(fam, theta)
    ref = oracle.walk_state(C, params["recon_N"], CHIRALITIES.index(S), t)
    check_state(out["recon"], ref, RECON_TOL, problems, "reconstruct_state")
    check_spectrum(outdir / steps[1].out, coin_entries(*spectrum_coin), problems)
    return problems, {"eig_residual_max": worst, "fallback_blocks": fallback}


def check_finite_n(got, want, problems, where):
    dev = np.abs(got - want).max()
    if dev > FINITE_N_TOL:
        problems.append(f"{where}: differs from the dense eigensolve by {dev:.3e}")


def check_spectrum(path: Path, C, problems):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    N = SPECTRUM_N
    index = np.stack(np.meshgrid(np.arange(N), np.arange(N), np.arange(1, 5),
                                 indexing="ij"), axis=-1).reshape(-1, 3)
    if rows.shape != (4 * N * N, 5) or not np.array_equal(rows[:, :3], index):
        problems.append("spectrum: rows are not one per (n, m, k) in order")
        return
    lam = (rows[:, 3] + 1j * rows[:, 4]).reshape(N, N, 4)
    want = np.linalg.eigvals(oracle.fourier_blocks(C, N))
    # each printed eigenvalue near one of its block's, and the other way round
    dist = np.abs(lam[..., :, None] - want[..., None, :])
    dev = max(dist.min(axis=-1).max(), dist.min(axis=-2).max())
    if np.abs(np.abs(lam) - 1).max() > 1e-12 or dev > 1e-8:
        problems.append(f"spectrum: eigenvalues differ from the dense eigensolve by {dev:.3e}")


# ---------------------------------------------------------------------------
# classify


def set_members(tags, thetas, left) -> np.ndarray:
    """Members of the bare pattern sets at parameter theta (possibly
    complex): x = sin(theta) / 2 and z = sign (1 + cos(theta)) / 2 lie on
    the defining variety x^2 + z^2 - sign z = 0; left-multiplied members
    carry their family's generalized Grover factor."""
    out = np.empty((len(tags), 4, 4), dtype=complex)
    for t, tag in enumerate(SET_TAGS):
        f, j = tag[0], int(tag[1])
        kind, sign = ("m" if j <= 2 else "n"), (1 if j in (1, 3) else -1)
        for lf in (False, True):
            mask = (tags == t) & (left == lf)
            th = thetas[mask]
            out[mask] = oracle.witness_matrix(
                f, LEFT_FACTOR[f] if lf else (1, 2, 3, 4), kind, sign,
                np.sin(th) / 2, sign * (1 + np.cos(th)) / 2)
    return out


def _draw_coins(rng, n):
    tags = rng.integers(0, len(SET_TAGS), n)
    thetas = rng.uniform(-np.pi, np.pi, n).astype(complex)
    cx = rng.random(n) < 0.5
    thetas[cx] += 1j * rng.normal(0, 0.5, int(cx.sum()))
    return tags, thetas, rng.random(n) < 0.5


def build_classify(seed: int, rundir: Path) -> Job:
    rng = np.random.default_rng([seed, 4])
    tags, thetas, left = _draw_coins(rng, N_SINGLE)
    btags, bthetas, bleft = _draw_coins(rng, N_BATCH)
    chain_seeds = rng.integers(0, 2**31, 39)
    path = rundir / "classify.params.npz"
    np.savez(path, tags=tags, thetas=thetas, left=left,
             batch=set_members(btags, bthetas, bleft), chain_seeds=chain_seeds,
             closure_count=CLOSURE_COUNT, batch_chunk=BATCH_CHUNK)
    steps = [Step(name, "api", [name, str(path)], f"{name}.npz")
             for name in ("classify.single", "classify.batch", "classify.closure")]
    units = N_SINGLE + N_BATCH + 39 * 2 * CLOSURE_COUNT
    single_inputs = set_members(tags, thetas, left)

    def check(outdir):
        problems = []
        outs = [np.load(outdir / st.out) for st in steps]
        check_classify(*outs, single_inputs, problems)
        return problems, {}

    return Job("classify", steps, units, "matrices", check)


def check_classify(out, batch, closure, inputs, problems):
    A = out["inputs"]
    if A.shape != inputs.shape or np.abs(A - inputs).max() > 1e-12:
        problems.append("set_member_from_theta differs from the pattern-set formula")
    orth = oracle.orthogonality_residual(A)
    if orth.max() > CLASSIFY_TOL:
        problems.append(f"an input fails the orthogonality check ({orth.max():.3e})")
    worst = 0.0
    for i in range(len(A)):
        R = oracle.witness_matrix(str(out["family"][i]), tuple(out["left"][i]),
                                  str(out["kind"][i]), int(out["sign"][i]),
                                  out["x"][i], out["z"][i])
        worst = max(worst, float(np.abs(R - A[i]).max()))
    if worst > CLASSIFY_TOL:
        problems.append(f"a witness reconstructs a different matrix ({worst:.3e})")
    errs = batch["errors"]
    if len(errs) != N_BATCH or not np.all(errs <= CLASSIFY_TOL):
        problems.append("classify_batch_errors: an error above tolerance")
    if len(closure["fraction"]) != 39 or not np.all(closure["fraction"] == 1.0) \
            or not np.all(closure["checked"] == 2 * CLOSURE_COUNT):
        problems.append(f"group_closure_sample: fractions {closure['fraction']}")


JOB_MAKERS = {"localize": build_localize, "walk": build_walk,
            "spectral": build_spectral, "classify": build_classify}
