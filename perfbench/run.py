"""Benchmark of coinwalk, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the workload runs as a closed loop of one caller: rounds of
its steps, each step a fresh process (see steps.py), one at a time, until
the next round would end past S seconds; at least one round, always whole
rounds. The last line of stdout is a JSON object with the end-to-end
metrics. With --trace 1 the steps of all four workloads run in-process,
once untraced and once traced (see trace.py), and the per-layer metrics are
printed instead. Outputs are checked outside every timed interval; raw
outputs and traces stay in perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("localize", "walk", "spectral", "classify")
STEP_LIMIT_S = 60            # a step is killed (and counts as failed) after this
PASS_LIMIT_S = 150           # the same for a whole in-process pass
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """One BLAS thread, src on the path, GW_THREADS unset (sweeps use one
    worker, their default)."""
    env = {k: v for k, v in os.environ.items() if k != "GW_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({v: "1" for v in BLAS_VARS})
    return env


def spawn(argv: list, log: Path, limit: float):
    """Run a process to its end; returns (exit code, wall seconds, start
    time, the kernel's resource accounting of the child)."""
    with open(log, "w") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=fh, stderr=fh)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t1 - t0, t0, usage


def run_step(step, rdir: Path) -> dict:
    ready = rdir / f"{step.name}.ready"
    argv = [sys.executable, str(HERE / "steps.py"), str(ready), str(rdir / step.out),
            step.kind, *step.args]
    code, wall, t0, usage = spawn(argv, rdir / f"{step.name}.log", STEP_LIMIT_S)
    setup = float(ready.read_text()) - t0 if code == 0 else None
    return {"code": code, "wall": wall, "setup": setup, "rss_kb": usage.ru_maxrss,
            "cpu": usage.ru_utime + usage.ru_stime}


def same_outputs(a: Path, b: Path, steps) -> bool:
    import numpy as np
    for st in steps:
        if st.out.endswith(".npz"):
            with np.load(a / st.out) as x, np.load(b / st.out) as y:
                if sorted(x) != sorted(y) or not all(np.array_equal(x[k], y[k]) for k in x):
                    return False
        elif (a / st.out).read_bytes() != (b / st.out).read_bytes():
            return False
    return True


def checked(job, outdir: Path, problems: list) -> dict:
    try:
        found, info = job.check(outdir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        found, info = [f"{job.workload}: output unreadable: {exc!r}"], {}
    problems.extend(found)
    return info


def timed_run(job, rundir: Path, seconds: float) -> dict:
    code = spawn([sys.executable, str(HERE / "steps.py"), str(rundir / "warm.ready"), "-",
                  "warm"], rundir / "warm.log", STEP_LIMIT_S)[0]
    if code != 0:
        sys.exit(f"coinwalk does not import; see {rundir / 'warm.log'}")
    rounds, problems, failed = [], [], 0
    while not rounds or sum(r["wall"] for r in rounds) + rounds[-1]["wall"] <= seconds:
        rdir = rundir / f"round{len(rounds)}"
        rdir.mkdir()
        res = [run_step(st, rdir) for st in job.steps]
        failed += sum(r["code"] != 0 for r in res)
        setups = [r["setup"] for r in res if r["setup"] is not None]
        wall = sum(r["wall"] for r in res)
        rounds.append({"wall": wall, "setups": setups, "work_s": wall - sum(setups),
                       "rss_kb": max(r["rss_kb"] for r in res),
                       "steps": {st.name: r for st, r in zip(job.steps, res)}})
        if len(rounds) == 1:
            checked(job, rdir, problems)
        elif all(r["code"] == 0 for r in res):
            # the program is deterministic: later rounds must repeat round 0
            if not same_outputs(rdir, rundir / "round0", job.steps):
                problems.append(f"round {len(rounds) - 1}: outputs differ from round 0")
            shutil.rmtree(rdir)
    (rundir / "rounds.json").write_text(json.dumps(rounds, indent=1))
    for p in problems:
        print("CHECK FAILED:", p, file=sys.stderr)
    setups = [s for r in rounds for s in r["setups"]]
    if not setups:
        sys.exit(f"every step failed; see the logs in {rundir}")
    metrics = {
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "work_per_s": (statistics.median(job.units / r["work_s"] for r in rounds), "units/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in rounds) / 1024, "MB"),
    }
    print(f"{job.workload}: {len(rounds)} rounds of {len(job.steps)} steps, "
          f"{job.units:.6g} {job.unit_name} per round", file=sys.stderr)
    return result(problems, len(rounds) * len(job.steps), failed, metrics)


def result(problems, attempted, failed, metrics) -> dict:
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# ---------------------------------------------------------------------------
# traced run


def traced_run(seed: int, rundir: Path) -> dict:
    from workloads import JOB_MAKERS
    jobs = []
    for name in WORKLOADS:
        (rundir / name).mkdir()
        jobs.append(JOB_MAKERS[name](seed, rundir / name))
    summaries, failed = [], 0
    for flag, tag in (("0", "untraced"), ("1", "traced")):
        plan = {"workloads": []}
        for job in jobs:
            outdir = rundir / tag / job.workload
            outdir.mkdir(parents=True)
            plan["workloads"].append({"name": job.workload, "steps": [
                {"name": st.name, "kind": st.kind, "args": st.args,
                 "path": str(outdir / st.out)} for st in job.steps]})
        (rundir / f"plan.{tag}.json").write_text(json.dumps(plan))
        summary_file = rundir / f"{tag}.json"
        code = spawn([sys.executable, str(HERE / "trace.py"), str(rundir / f"plan.{tag}.json"),
                      flag, str(summary_file)], rundir / f"{tag}.log", PASS_LIMIT_S)[0]
        if code != 0:
            sys.exit(f"in-process pass failed; see {rundir / f'{tag}.log'}")
        summaries.append(json.loads(summary_file.read_text()))
        failed += sum(c != 0 for c in summaries[-1]["codes"].values())
    problems, info = [], {}
    for job in jobs:
        info.update(checked(job, rundir / "traced" / job.workload, problems))
        if not same_outputs(rundir / "traced" / job.workload,
                            rundir / "untraced" / job.workload, job.steps):
            problems.append(f"{job.workload}: traced outputs differ from untraced ones")
    for p in problems:
        print("CHECK FAILED:", p, file=sys.stderr)
    # measured: traced minus untraced pass; computed: spans x cost of a span
    overhead, cost = {}, summaries[1]["span_cost_s"]
    for job in jobs:
        t = [sum(v for k, v in s["step_s"].items() if k.startswith(job.workload + "/"))
             for s in summaries]
        spans = sum(1 for sp in summaries[1]["spans"] if sp[2].startswith(job.workload + "/"))
        overhead[job.workload] = {"untraced_s": t[0], "traced_s": t[1],
                                  "measured_overhead_s": t[1] - t[0], "spans": spans,
                                  "computed_overhead_s": spans * cost}
    (rundir / "overhead.json").write_text(json.dumps(overhead, indent=1))
    print("in-process job seconds:", json.dumps(overhead), file=sys.stderr)
    return result(problems, len(summaries[1]["codes"]), failed,
                  layer_metrics(summaries[1]["spans"], info))


def layer_metrics(spans: list, info: dict) -> dict:
    """Per-layer figures from the spans [name, label, step, start, end,
    parent]. Per-call times are means over all calls of a kind (a batch
    timing), never percentiles."""
    dur = [s[4] - s[3] for s in spans]
    inner = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[5] >= 0:
            inner[s[5]] += dur[i]

    def sel(name, label=None, step="", parent=None):
        return [i for i, s in enumerate(spans)
                if s[0] == name and label in (None, s[1]) and s[2].startswith(step)
                and (parent is None or (s[5] >= 0 and spans[s[5]][0] == parent))]

    def mean(ids, scale, self_time=False):
        return scale * sum(dur[i] - (inner[i] if self_time else 0) for i in ids) / len(ids)

    def total(ids):
        return sum(dur[i] for i in ids)

    batch = sel("coins.classify_batch_errors")
    step201 = mean(sel("walk.step", "N201"), 1.0)
    m = {
        "coins.classify_us": (mean(sel("coins.classify"), 1e6), "us"),
        "coins.classify_batch_errors_us":
            (1e6 * total(batch) / sum(int(spans[i][1]) for i in batch), "us"),
        "coins.group_closure_sample_ms": (mean(sel("coins.group_closure_sample"), 1e3), "ms"),
        "coins.set_member_from_theta_us": (mean(sel("coins.set_member_from_theta"), 1e6), "us"),
        "walk.step_us.N5": (mean(sel("walk.step", "N5"), 1e6), "us"),
        "walk.probability_at_us": (mean(sel("walk.probability_at"), 1e6), "us"),
        "walk.step_us.N201": (1e6 * step201, "us"),
        # computed: one read and one write of the (4, N, N) complex state
        "walk.step_GBps.N201": (2 * 4 * 201**2 * 16 / step201 / 1e9, "GB/s"),
        "spectral.coin_eigensystem_ms.closed.N201": (mean(sel(
            "spectral.coin_eigensystem", "closed.N201",
            parent="spectral.finite_N_pbar_matrix"), 1e3), "ms"),
        "spectral.coin_eigensystem_ms.raw.N51":
            (mean(sel("spectral.coin_eigensystem", "raw.N51"), 1e3), "ms"),
        "spectral.finite_N_pbar_matrix_ms.N201": (mean(sel(
            "spectral.finite_N_pbar_matrix", "closed.N201"), 1e3, self_time=True), "ms"),
        "spectral.reconstruct_state_ms.N101":
            (mean(sel("spectral.reconstruct_state", "closed.N101"), 1e3), "ms"),
        "spectral.fallback_blocks": (info["fallback_blocks"], "count"),
        "spectral.eig_residual_max": (info["eig_residual_max"], "abs"),
        "spectral.spectrum_rows_ms.N101":
            (mean(sel("spectral.spectrum_rows", step="spectral/"), 1e3), "ms"),
        "io.write_csv_ms.N101": (mean(sel("io.write_csv", step="spectral/"), 1e3), "ms"),
        "cli.main_s": (total(sel("cli.main")), "s"),
        "localization.sweep_theta_s": (total(sel("localization.sweep_theta")), "s"),
        "localization.theorem36_check_s":
            (total(sel("localization.theorem36_check")), "s"),
        "localization.pbar_matrix_calls": (len(sel("localization.pbar_matrix")), "count"),
        "localization.quad_err": (info["quad_err"], "abs"),
    }
    for fam, M in [(f, 512) for f in ("p34x1", "p24y1", "p23z1", "x3")] \
            + [("x3", 2048), ("p24y1", 2048)]:
        m[f"localization.pbar_matrix_ms.{fam}.M{M}"] = \
            (mean(sel("localization.pbar_matrix", f"{fam}.M{M}"), 1e3), "ms")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "coinwalk" / "__init__.py").is_file():
        print(f"no coinwalk sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    # the parent's own numpy (inputs and checks) also gets one BLAS thread
    os.environ.update({v: "1" for v in BLAS_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    rundir = HERE / "runs" / (f"trace-{args.workload}" if args.trace else args.workload)
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    if args.trace:
        out = traced_run(args.seed, rundir)
    else:
        from workloads import JOB_MAKERS
        out = timed_run(JOB_MAKERS[args.workload](args.seed, rundir), rundir, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
