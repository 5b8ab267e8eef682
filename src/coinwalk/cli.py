"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 numerical flag (quadrature
non-convergence or a failed closed-form check), with partial output emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import coins, localization, matspace, spectral, walk
from .io import dump_json, open_out, read_matrix_text

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERIC = 0, 2, 3
# --check-convergence flags a halving change above this. At the default
# M = 512 the change stayed below it on a 400-point theta grid and at
# |theta| from 1e-12 to 1e-5 (at most 9.6e-11, x3 near theta = 2.5e-8), and
# from M = 256 on it bounds the error on the accuracy grid of the tests
_CONVERGED_DELTA = 1e-10


def _read_matrix(args) -> np.ndarray:
    src = getattr(args, "infile", None)
    if src in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(src, encoding="utf-8") as fh:
            text = fh.read()
    return read_matrix_text(text)


def _emit(args, json_obj, csv_header, csv_rows) -> None:
    stream, close = open_out(args.out)
    try:
        if args.format == "json":
            dump_json(stream, json_obj)
        else:
            from .io import write_csv
            write_csv(stream, csv_header, csv_rows)
    finally:
        if close:
            stream.close()


def _emit_fields(args, obj, omit=()) -> None:
    """obj as JSON, or as field/value CSV rows of JSON-encoded values."""
    _emit(args, obj, ["field", "value"],
          [[k, json.dumps(v)] for k, v in obj.items() if k not in omit])


def _matrix_rows(M: np.ndarray):
    """CSV rows [i, entries...] of a real matrix."""
    return [[i] + row for i, row in enumerate(M.tolist())]


def _gen_coin(args) -> coins.Coin:
    fam = args.family.lower()
    if args.r is not None:
        if fam not in coins.SET_TAGS:
            raise ValueError("rational coins need a pattern-set family tag (x1..z4)")
        return coins.coin_rational(fam, Fraction(args.r), args.z_branch)
    if args.theta is None:
        raise ValueError("coin gen needs --theta or --r")
    return coins.coin_from_theta(fam, args.theta)


def cmd_coin(args) -> int:
    if args.action == "gen":
        coin = _gen_coin(args)
        _emit(args, coins.coin_to_json(coin),
              ["row", "c1", "c2", "c3", "c4"], _matrix_rows(coin.entries.real))
        return EXIT_OK
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    A = _read_matrix(args)
    if args.action == "classify":
        w = coins.classify(A, tol=args.tol)
        obj = {
            "family": w.family,
            "set": w.set_tag,
            "left_perm": w.left.cycles(),
            "kind": w.kind,
            "sign": w.sign,
            "x": [w.x.real, w.x.imag],
            "z": [w.z.real, w.z.imag],
            "variety_residual": w.variety_residual(),
            "reconstruction_error": float(np.abs(w.reconstruct() - A).max()),
        }
        _emit_fields(args, obj)
        return EXIT_OK
    # verify
    obj = {
        "orthogonal": coins.is_orthogonal(A, args.tol),
        "permutative": coins.is_permutative(A, args.tol),
        "orthogonality_residual": float(np.abs(A.T @ A - np.eye(4)).max()),
    }
    _emit_fields(args, obj)
    return EXIT_OK


def cmd_space(args) -> int:
    if args.action == "decompose":
        A = _read_matrix(args)
        dec = matspace.decompose_linear_sum(A)
        sign = None
        if dec.residual < 1e-9 and coins.is_orthogonal(A, 1e-9):
            sign = matspace.hadamard_row_sum_check(A)
        obj = dec.to_json(row_sum_sign=sign)
        rows = list(zip(matspace.BASIS_NAMES, dec.coeffs))
        rows.append(("residual", dec.residual))
        _emit(args, obj, ["basis", "coeff"], rows)
        return EXIT_OK
    if args.action == "sq-check":
        A = _read_matrix(args)
        pat = (np.abs(A) > 1e-12).astype(int)
        obj = {
            "pattern": pat.tolist(),
            "quadrangular": matspace.quadrangular(pat),
            "strongly_quadrangular": matspace.strongly_quadrangular(pat),
        }
        _emit_fields(args, obj, omit=("pattern",))
        return EXIT_OK
    if args.action == "partition":
        classes = matspace.six_class_partition()
        obj = {"classes": [[p.cycles() for p in cls] for cls in classes]}
        _emit(args, obj, ["class", "p1", "p2", "p3", "p4"],
              [[i + 1] + [p.cycles() for p in cls] for i, cls in enumerate(classes)])
        return EXIT_OK
    # c-family
    M = matspace.theorem217_family(args.variant, args.c2, args.branch)
    corner, offblock = matspace.hadamard_split(M)
    obj = {
        "variant": args.variant,
        "c2": args.c2,
        "branch": args.branch,
        "matrix": M.tolist(),
        "orthogonal": coins.is_orthogonal(M, 1e-12),
        "permutative": coins.is_permutative(M, 1e-9),
        "h_conjugate_corner": corner,
        "h_conjugate_offblock": offblock,
    }
    _emit(args, obj, ["row", "c1", "c2", "c3", "c4"], _matrix_rows(M))
    return EXIT_OK


def cmd_walk(args) -> int:
    if args.action == "spectrum" and args.dump_state:
        raise ValueError("--dump-state applies to walk simulate only")
    if args.action == "simulate" and args.coefficients:
        raise ValueError("--coefficients applies to walk spectrum only")
    coin = coins.coin_from_theta(args.family, args.theta)
    if args.action == "spectrum":
        if args.coefficients:
            rows = list(spectral.coefficient_rows(coin, args.N))
            header = ["S", "Sprime", "n", "m", "k", "re_c", "im_c"]
        else:
            rows = list(spectral.spectrum_rows(coin, args.N))
            header = ["n", "m", "k", "re_lambda", "im_lambda"]
        obj = {"family": args.family, "theta": args.theta, "N": args.N, "rows": rows}
        _emit(args, obj, header, rows)
        return EXIT_OK
    # simulate: reject what the walk does not cover before any output;
    # evolve checks the coin even at t = 0
    if args.dump_state and args.format != "json":
        raise ValueError("--dump-state needs --format json")
    state = walk.evolve(walk.initial_state(args.N, args.S), coin, 0)
    if args.T < 1:
        raise ValueError("T must be >= 1")
    try:
        x, y = (int(v) for v in args.at.split(","))
    except ValueError:
        raise ValueError(f"--at expects two integers x,y, got {args.at!r}") from None
    rows = []
    acc = 0.0
    for t in range(args.T + 1):
        p = walk.probability_at(state, x, y)
        if t < args.T:
            acc += p
        rows.append((t, x, y, p))
        if t < args.T:
            state = walk.step(state, coin)
    pbar = acc / args.T
    obj = {
        "family": args.family, "theta": args.theta, "N": args.N, "T": args.T,
        "S": args.S, "at": [x, y],
        "rows": rows,
        "time_averaged": pbar,
    }
    if args.dump_state:
        vec = state.to_vector()
        obj["amplitudes"] = np.stack((vec.real, vec.imag), axis=1)
    _emit(args, obj, ["t", "x", "y", "P_t"], rows)
    return EXIT_OK


def cmd_localize(args) -> int:
    quad = localization.QuadratureSpec(args.quad_M)
    if args.check_convergence and args.action in ("sweep", "theorem36"):
        raise ValueError("--check-convergence applies to localize pair and total only")
    if args.action == "theorem36":
        report = localization.theorem36_check(quad, grid=args.grid)
        _emit_fields(args, report)
        return EXIT_OK if report["passed"] else EXIT_NUMERIC
    if args.action == "sweep":
        S_list = list(walk.CHIRALITIES) if args.S.lower() == "all" else [args.S]
        rows = localization.sweep_theta(args.family, S_list, args.points, quad)
        header = list(rows[0].keys())
        _emit(args, {"rows": rows}, header, [[r[h] for h in header] for r in rows])
        return EXIT_OK
    obj = {"family": args.family, "theta": args.theta, "S": args.S}
    if args.action == "pair":
        obj["Sprime"] = args.Sprime
        val = localization.pbar_infinity_pair(args.family, args.theta, args.S, args.Sprime, quad)
    else:
        val = localization.pbar_infinity_total(args.family, args.theta, args.S, quad)
    flagged = False
    if args.check_convergence:
        delta = localization.convergence_delta(args.family, args.theta, quad)
        flagged = not delta <= _CONVERGED_DELTA    # a NaN delta is not converged
    obj.update(quad_M=quad.M, value=val, converged=not flagged)
    _emit_fields(args, obj)
    return EXIT_NUMERIC if flagged else EXIT_OK


def _add_common(p):
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coinwalk",
        description="Permutative orthogonal coins, coined walks on Z_N and "
                    "localization probabilities.",
        epilog="examples: coinwalk coin gen --family p24y1 --theta -1.5707963 "
               "--format json | coinwalk localize theorem36 --grid 25 | "
               "coinwalk walk simulate --family p24y1 --theta 0.7 --N 5 --T 2000 "
               "--S R --at 0,0",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    pc = sub.add_parser("coin", help="generate/classify/verify coins")
    pc.add_argument("action", choices=("gen", "classify", "verify"))
    pc.add_argument("--family", default="p24y1",
                    help="p34x1|p24y1|p23z1|x3 or a pattern-set tag x1..z4 with --r")
    pc.add_argument("--theta", type=float, default=None)
    pc.add_argument("--r", default=None, help="rational parameter NUM/DEN")
    pc.add_argument("--z-branch", dest="z_branch", type=int, choices=(1, -1), default=1)
    pc.add_argument("--in", dest="infile", default=None,
                    help="matrix input path for classify/verify (default stdin)")
    pc.add_argument("--tol", type=float, default=1e-9)
    _add_common(pc)
    pc.set_defaults(func=cmd_coin)

    ps = sub.add_parser("space", help="permutation-span analysis")
    ps.add_argument("action", choices=("decompose", "sq-check", "partition", "c-family"))
    ps.add_argument("--in", dest="infile", default=None)
    ps.add_argument("--variant", choices=("c1", "c2"), default="c1")
    ps.add_argument("--c2", type=float, default=0.2)
    ps.add_argument("--branch", type=int, choices=(1, -1), default=1)
    _add_common(ps)
    ps.set_defaults(func=cmd_space)

    pw = sub.add_parser("walk", help="direct simulation and block spectra")
    pw.add_argument("action", choices=("simulate", "spectrum"))
    pw.add_argument("--family", required=True)
    pw.add_argument("--theta", type=float, required=True)
    pw.add_argument("--N", type=int, required=True)
    pw.add_argument("--T", type=int, default=100)
    pw.add_argument("--S", default="R")
    pw.add_argument("--at", default="0,0")
    pw.add_argument("--dump-state", action="store_true",
                    help="simulate: add the final amplitudes (JSON only)")
    pw.add_argument("--coefficients", action="store_true",
                    help="emit degeneracy-class coefficient sums instead of eigenvalues")
    _add_common(pw)
    pw.set_defaults(func=cmd_walk)

    pl = sub.add_parser("localize", help="infinite-lattice localization")
    pl.add_argument("action", choices=("pair", "total", "sweep", "theorem36"))
    pl.add_argument("--family", default="p24y1")
    pl.add_argument("--theta", type=float, default=0.0)
    pl.add_argument("--S", default="R")
    pl.add_argument("--Sprime", default="R")
    pl.add_argument("--points", type=int, default=400)
    pl.add_argument("--grid", type=int, default=25)
    pl.add_argument("--quad-M", dest="quad_M", type=int, default=512)
    pl.add_argument("--check-convergence", action="store_true")
    _add_common(pl)
    pl.set_defaults(func=cmd_localize)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
