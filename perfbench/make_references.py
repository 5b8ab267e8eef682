"""Recompute perfbench/references.json from the independent quadrature
oracle.

    PYTHONPATH=src python3 perfbench/make_references.py

For every (family, theta) point the localize workload prints, the oracle
(oracle.localization_matrix) is evaluated at several node counts and the
results are extrapolated:

- the generalized Grover families converge geometrically, so the value at
  M = 128 is kept, with |P_128 - P_64| as its error estimate;
- x3 converges as M^-2 with an M^-4 next term (singular factors at the
  torus edges), so two Richardson steps over the last three of M = 128,
  256, 512, ... are taken, with the change made by the second step as the
  error estimate; M doubles until that estimate is below 1e-8.

Takes about fifteen minutes on one core.
"""

from __future__ import annotations

import json
import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import oracle      # noqa: E402
import workloads   # noqa: E402


def converged(C, family):
    if family != "x3":
        p64, p128 = (oracle.localization_matrix(C, M) for M in (64, 128))
        return p128, float(abs(p128 - p64).max()), [64, 128]
    levels = [128, 256]
    p = [oracle.localization_matrix(C, M) for M in levels]
    err = float("inf")
    while err > 1e-8:
        levels.append(2 * levels[-1])
        p.append(oracle.localization_matrix(C, levels[-1]))
        r1 = [(4 * p[i + 1] - p[i]) / 3 for i in (-3, -2)]
        r2 = (16 * r1[1] - r1[0]) / 15
        err = float(abs(r2 - r1[1]).max())
    return r2, err, levels


def main() -> int:
    points = []
    for family, theta in workloads.reference_points():
        t0 = time.perf_counter()
        value, err, levels = converged(workloads.coin_entries(family, theta), family)
        points.append({"family": family, "theta": theta, "levels": levels,
                       "error_estimate": err, "matrix": value.tolist()})
        print(f"{family} {theta!r}: error estimate {err:.2e} "
              f"({time.perf_counter() - t0:.1f} s)", file=sys.stderr)
    doc = {
        "about": "Converged localization probabilities [S', S] from the dense-"
                 "eigensolve quadrature oracle; see make_references.py.",
        "points": points,
    }
    (workloads.HERE / "references.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
