"""One benchmark step in a fresh process, and the API jobs it can run.

    python3 perfbench/steps.py READY_FILE OUT_FILE cli ARGS...
    python3 perfbench/steps.py READY_FILE OUT_FILE api JOB PARAMS_FILE
    python3 perfbench/steps.py READY_FILE - warm

`cli` runs `coinwalk.cli.main(ARGS + ["--out", OUT_FILE])`, which is what
`python -m coinwalk.cli` does. `api` runs a job below. `warm` only imports
coinwalk, so that later processes find compiled bytecode. In every case the
monotonic clock reading at the moment coinwalk is imported and ready to
compute is written to READY_FILE when the step ends; the parent subtracts
its own reading taken just before it started the process.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


def spectral_job(params: dict) -> dict:
    """Closed-form finite_N_pbar_matrix for the four families, each at a
    theta the process has not seen (a cache miss); raw-coin
    finite_N_pbar_matrix on a bare 4x4 array; coin_eigensystem and then
    reconstruct_state on the same coin (a cache hit)."""
    from coinwalk import spectral
    from coinwalk.coins import coin_from_theta

    N = params["closed_N"]
    closed, fallback = [], 0
    for fam, theta in params["closed"]:
        coin = coin_from_theta(fam, theta)
        closed.append(spectral.finite_N_pbar_matrix(coin, N))
        fallback += int(spectral.coin_eigensystem(coin, N)[2].sum())
    fam, theta = params["raw"]
    raw = spectral.finite_N_pbar_matrix(np.array(coin_from_theta(fam, theta).entries),
                                        params["raw_N"])
    fam, theta, S, t = params["recon"]
    coin = coin_from_theta(fam, theta)
    spectral.coin_eigensystem(coin, params["recon_N"])
    recon = spectral.reconstruct_state(coin, params["recon_N"], S, t)
    return {"closed": np.array(closed), "raw": raw, "recon": recon.amps,
            "fallback_blocks": fallback}


def classify_single_job(params) -> dict:
    """Build each input with set_member_from_theta (times a left factor for
    the left-multiplied sets) and classify it, one matrix at a time."""
    from coinwalk import coins
    from coinwalk.perms import P23, P24, P34

    left_factor = {"x": P34, "y": P24, "z": P23}
    inputs, fields = [], []
    for tag, theta, left in zip(params["tags"], params["thetas"], params["left"]):
        tag = coins.SET_TAGS[tag]
        A = coins.set_member_from_theta(tag, complex(theta))
        if left:
            A = left_factor[tag[0]] @ A
        w = coins.classify(A)
        inputs.append(A)
        fields.append((w.family, w.left.mapping, w.kind, w.sign, w.x, w.z))
    fam, lft, kind, sign, x, z = zip(*fields)
    return {"inputs": np.array(inputs), "family": np.array(fam), "left": np.array(lft),
            "kind": np.array(kind), "sign": np.array(sign), "x": np.array(x),
            "z": np.array(z)}


def classify_batch_job(params) -> dict:
    """classify_batch_errors over the batch, in chunks."""
    from coinwalk import coins

    batch, chunk = params["batch"], int(params["batch_chunk"])
    return {"errors": np.concatenate([coins.classify_batch_errors(batch[i:i + chunk])
                                      for i in range(0, len(batch), chunk)])}


def classify_closure_job(params) -> dict:
    """group_closure_sample on every chain id."""
    from coinwalk import coins

    reps = [coins.group_closure_sample(cid, int(params["closure_count"]), int(seed))
            for cid, seed in zip(coins.chain_ids(), params["chain_seeds"])]
    return {"fraction": np.array([r["fraction"] for r in reps]),
            "checked": np.array([r["checked"] for r in reps])}


def load_params(path: str):
    """JSON, or an .npz whose arrays load when first read."""
    if path.endswith(".json"):
        with open(path) as fh:
            return json.load(fh)
    return np.load(path)


JOBS = {"spectral": spectral_job, "classify.single": classify_single_job,
        "classify.batch": classify_batch_job, "classify.closure": classify_closure_job}


def execute(kind: str, args: list, out: str) -> int:
    """Run one step in this process; returns its exit code."""
    if kind == "cli":
        import coinwalk.cli
        return coinwalk.cli.main(list(args) + ["--out", out])
    job, params = args
    np.savez(out, **JOBS[job](load_params(params)))
    return 0


def main(argv: list) -> int:
    ready_file, out, kind, *args = argv
    import coinwalk  # noqa: F401
    if kind == "cli":
        import coinwalk.cli  # noqa: F401
    ready = time.monotonic()
    code = 0 if kind == "warm" else execute(kind, args, out)
    with open(ready_file, "w") as fh:
        fh.write(repr(ready))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
