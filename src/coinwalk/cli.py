"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 numerical flag (quadrature
non-convergence or a failed closed-form check), with partial output emitted.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
from fractions import Fraction

import numpy as np

from . import coins, io, localization, matspace, spectral, walk

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERIC = 0, 2, 3
# --check-convergence flags a halving change above this. At the default
# M = 512 the change stayed below it on a 400-point theta grid and at
# |theta| from 1e-12 to 1e-5 (at most 9.6e-11, x3 near theta = 2.5e-8), and
# from M = 256 on it bounds the error on the accuracy grid of the tests
_CONVERGED_DELTA = 1e-10

# The shutdown collections skip a frozen heap: a bare import exits in 6 ms, not 24.5 ms
atexit.register(gc.freeze)


def _read_matrix(args) -> np.ndarray:
    if args.infile in (None, "-"):
        return io.read_matrix_text(sys.stdin.read())
    with open(args.infile, encoding="utf-8") as fh:
        return io.read_matrix_text(fh.read())


def _emit(args, json_obj, csv_header, csv_rows) -> None:
    stream, close = io.open_out(args.out)
    try:
        if args.format == "json":
            io.dump_json(stream, json_obj)
        else:
            io.write_csv(stream, csv_header, csv_rows)
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
    if args.r is None:
        if args.z_branch is not None:
            raise ValueError("--z-branch needs --r")
        return coins.coin_from_theta(fam, args.theta)
    if fam not in coins.SET_TAGS:
        raise ValueError("rational coins need a pattern-set family tag (x1..z4)")
    return coins.coin_rational(fam, Fraction(args.r), args.z_branch or 1)


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
        "orthogonality_residual": coins.orthogonality_residual(A),
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
    # simulate: --at is read first, then walk.simulate checks N, S, the
    # coin, T and the vertex, all before any output
    if args.dump_state and args.format != "json":
        raise ValueError("--dump-state needs --format json")
    try:
        x, y = (int(v) for v in args.at.split(","))
    except ValueError:
        raise ValueError(f"--at expects two integers x,y, got {args.at!r}") from None
    probs, pbar, state = walk.simulate(coin, args.N, args.S, args.T, x, y)
    rows = [(t, x, y, p) for t, p in enumerate(probs)]
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


# Each flag's add_argument keywords, written once. An action's parser takes only the
# flags build_parser lists for it: a flag the action would ignore is a usage error
_FLAGS = {
    "--family": {"default": "p24y1", "help": "p34x1|p24y1|p23z1|x3, or x1..z4 with --r"},
    "--theta": {"type": float},
    "--r": {"help": "rational parameter NUM/DEN"},
    "--z-branch": {"type": int, "choices": (1, -1), "help": "with --r only (default 1)"},
    "--in": {"dest": "infile", "help": "matrix input path (default stdin)"},
    "--tol": {"type": float, "default": 1e-9},
    "--variant": {"choices": ("c1", "c2"), "default": "c1"},
    "--c2": {"type": float, "default": 0.2},
    "--branch": {"type": int, "choices": (1, -1), "default": 1},
    "--N": {"type": int, "required": True},
    "--T": {"type": int, "default": 100},
    "--S": {"default": "R"},
    "--Sprime": {"default": "R"},
    "--at": {"default": "0,0"},
    "--dump-state": {"action": "store_true", "help": "add the final amplitudes (JSON only)"},
    "--coefficients": {"action": "store_true", "help": "degeneracy-class sums, not eigenvalues"},
    "--points": {"type": int, "default": 400},
    "--grid": {"type": int, "default": 25},
    "--quad-M": {"type": int, "default": 512},
    "--check-convergence": {"action": "store_true"},
    "--out": {"help": "output path (default stdout)"},
    "--format": {"choices": ("csv", "json"), "default": "json"},
}


class _ActionParser(argparse.ArgumentParser):
    """An action's parser that reports a flag the action does not read
    itself, so that the usage line is the action's own."""

    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return args, extras


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI's parser. Each action's parser reports a flag the action does
    not read with its own usage line. When argv starts with a command and one
    of its actions, only that action's parser is built; for any other argv,
    and without one, the full tree is built, so a help, usage or error message
    is the same as the full parser's."""
    ap = argparse.ArgumentParser(
        prog="coinwalk",
        description="Permutative orthogonal coins, coined walks on Z_N and "
                    "localization probabilities.",
        epilog="examples: coinwalk coin gen --family p24y1 --theta -1.5707963 "
               "--format json | coinwalk localize theorem36 --grid 25 | "
               "coinwalk walk simulate --family p24y1 --theta 0.7 --N 5 --T 2000 "
               "--S R --at 0,0",
    )
    # (command, help, handler, keyword overrides, {action: flags}); "a|b"
    # in the flags means exactly one of a and b. The handlers are read here,
    # at call time, so a wrapped cmd_* is the one run
    commands = (
        ("coin", "generate/classify/verify coins", cmd_coin, {}, {
            "gen": "--family --theta|--r --z-branch",
            "classify": "--in --tol", "verify": "--in --tol",
        }),
        ("space", "permutation-span analysis", cmd_space, {}, {
            "decompose": "--in", "sq-check": "--in", "partition": "",
            "c-family": "--variant --c2 --branch",
        }),
        ("walk", "direct simulation and block spectra", cmd_walk,
         {"--family": {"required": True}, "--theta": {"required": True}}, {
            "simulate": "--family --theta --N --T --S --at --dump-state",
            "spectrum": "--family --theta --N --coefficients",
        }),
        ("localize", "infinite-lattice localization", cmd_localize,
         {"--theta": {"default": 0.0}}, {
            "pair": "--family --theta --S --Sprime --quad-M --check-convergence",
            "total": "--family --theta --S --quad-M --check-convergence",
            "sweep": "--family --S --points --quad-M",
            "theorem36": "--grid --quad-M",
        }),
    )
    for cmd, help_, func, overrides, actions in commands:
        if argv is not None and len(argv) > 1 and argv[0] == cmd and argv[1] in actions:
            commands = ((cmd, help_, func, overrides, {argv[1]: actions[argv[1]]}),)
            break
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd, help_, func, overrides, actions in commands:
        acts = sub.add_parser(cmd, help=help_).add_subparsers(
            dest="action", required=True, parser_class=_ActionParser)
        for action, flags in actions.items():
            pa = acts.add_parser(action)
            pa.set_defaults(func=func)
            for group in (flags + " --out --format").split():
                into = pa.add_mutually_exclusive_group(required=True) if "|" in group else pa
                for flag in group.split("|"):
                    into.add_argument(flag, **{**_FLAGS[flag], **overrides.get(flag, {})})
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
