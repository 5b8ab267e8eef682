import json

import numpy as np
import pytest

from coinwalk.cli import main
from coinwalk.coins import _family_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_coin_gen_grover_json(capsys):
    code, out = run(capsys, "coin", "gen", "--family", "p24y1",
                    "--theta", "-1.5707963", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    m = np.array(obj["entries_re"])
    assert np.abs(m - (np.full((4, 4), 0.5) - np.eye(4))).max() < 1e-6
    assert obj["family"] == "p24y1"


def test_coin_gen_rational(capsys):
    code, out = run(capsys, "coin", "gen", "--family", "x1", "--r", "2/1")
    assert code == 0
    obj = json.loads(out)
    assert obj["entries_re"][0][0] == [3, 10]
    assert obj["r"] == [2, 1]


def test_coin_classify_stdin(capsys, monkeypatch, tmp_path):
    g = np.full((4, 4), 0.5) - np.eye(4)
    path = tmp_path / "g.txt"
    path.write_text(" ".join(repr(float(v)) for v in g.reshape(-1)))
    code, out = run(capsys, "coin", "classify", "--in", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["set"] == "x1"
    assert obj["left_perm"] == "(34)"
    assert obj["reconstruction_error"] < 1e-12


def test_coin_classify_rejects_nonorthogonal(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(" ".join(["1.0"] * 16))
    code = main(["coin", "classify", "--in", str(path)])
    assert code == 2
    assert capsys.readouterr().err == "error: matrix is not orthogonal within tol=1e-09\n"


def test_coin_verify_block_example(capsys, tmp_path):
    A = np.zeros((4, 4))
    A[0, 0] = 1.0
    A[1:, 1:] = 2.0 / 3.0 - np.eye(3)
    path = tmp_path / "m.txt"
    path.write_text(" ".join(repr(float(v)) for v in A.reshape(-1)))
    code, out = run(capsys, "coin", "verify", "--in", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["orthogonal"] is True
    assert obj["permutative"] is False


def test_space_decompose_csv(capsys, tmp_path):
    g = np.full((4, 4), 0.5) - np.eye(4)
    path = tmp_path / "g.txt"
    path.write_text(" ".join(repr(float(v)) for v in g.reshape(-1)))
    code, out = run(capsys, "space", "decompose", "--in", str(path), "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "basis,coeff"
    got = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:-1]}
    assert got["(12)(34)"] == pytest.approx(1.0)
    assert got["(12)"] == pytest.approx(-0.5)


def test_space_partition(capsys):
    code, out = run(capsys, "space", "partition", "--format", "csv")
    assert code == 0
    assert len(out.strip().split("\n")) == 7


def test_space_c_family(capsys):
    code, out = run(capsys, "space", "c-family", "--variant", "c1", "--c2", "0.2")
    assert code == 0
    obj = json.loads(out)
    assert obj["orthogonal"] is True
    assert obj["permutative"] is False
    assert obj["h_conjugate_corner"] == pytest.approx(1.0)
    assert obj["h_conjugate_offblock"] < 1e-12


def test_space_c_family_rejects_out_of_range(capsys):
    code = main(["space", "c-family", "--variant", "c1", "--c2", "0.9"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: c2=0.9 outside the parameter interval (negative discriminant)\n")


@pytest.mark.parametrize("c2", ["nan", "inf", "-inf"])
def test_space_c_family_rejects_non_finite(capsys, c2):
    code = main(["space", "c-family", "--variant", "c2", f"--c2={c2}"])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: c2={float(c2)} is not finite\n")


@pytest.mark.parametrize("at", ["1", "a,b", "1,2,3"])
def test_walk_simulate_rejects_malformed_at(capsys, at):
    code = main(["walk", "simulate", "--family", "p24y1", "--theta", "0.7",
                 "--N", "5", "--T", "3", "--at", at])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: --at expects two integers x,y, got {at!r}\n")


def test_walk_simulate_csv_and_pbar(capsys):
    code, out = run(capsys, "walk", "simulate", "--family", "p24y1", "--theta", "0.7",
                    "--N", "5", "--T", "50", "--S", "R", "--at", "0,0",
                    "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["rows"]) == 51
    assert obj["rows"][0][3] == 1.0
    assert 0.0 < obj["time_averaged"] < 1.0


def test_walk_spectrum_rows(capsys):
    code, out = run(capsys, "walk", "spectrum", "--family", "x3", "--theta", "1.1",
                    "--N", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,m,k,re_lambda,im_lambda"
    assert len(lines) == 37


def test_localize_pair_value(capsys):
    code, out = run(capsys, "localize", "pair", "--family", "p24y1", "--theta", "1.0",
                    "--S", "L", "--Sprime", "L", "--quad-M", "64")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(0.125, abs=1e-9)


def test_localize_theorem36_small(capsys):
    code, out = run(capsys, "localize", "theorem36", "--grid", "3", "--quad-M", "32")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True


def test_localize_sweep_deterministic_bytes(capsys, tmp_path):
    args = ["localize", "sweep", "--family", "x3", "--S", "U", "--points", "5",
            "--quad-M", "32", "--format", "csv"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    header = f1.read_text().split("\n")[0].split(",")
    assert header[:4] == ["family", "S", "theta", "p_total"]
    assert "p_RR" in header and "p_DD" in header and "quad_M" in header


def test_theta_out_of_range_exit_2(capsys):
    code, _ = run(capsys, "coin", "gen", "--family", "p24y1", "--theta", "9.9")
    assert code == 2


def test_coin_verify_rejects_family_theta_out_of_range(capsys, tmp_path):
    path = tmp_path / "coin.json"
    path.write_text(json.dumps({"family": "p24y1", "theta": 4.0,
                                "entries_re": _family_matrix("p24y1", 4.0).tolist()}))
    code = main(["coin", "verify", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: theta=4.0 out of range [-pi, pi]\n"


def test_walk_spectrum_coefficients(capsys):
    code, out = run(capsys, "walk", "spectrum", "--family", "p24y1", "--theta", "0.9",
                    "--N", "5", "--coefficients", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "S,Sprime,n,m,k,re_c,im_c"
    # diagonal class sums for k=1,2 are the constant 2 away from (0,0)
    found = [l for l in lines[1:] if l.startswith("R,R,1,2,1,")]
    assert found and float(found[0].split(",")[5]) == pytest.approx(2.0)


def test_walk_simulate_rejects_negative_T(capsys):
    code = main(["walk", "simulate", "--family", "p24y1", "--theta", "0.7",
                 "--N", "5", "--T", "-3"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: T must be >= 1\n")


def test_walk_simulate_rejects_empty_average(capsys):
    # T = 0 would print a time average over no steps
    code = main(["walk", "simulate", "--family", "p24y1", "--theta", "0.7",
                 "--N", "5", "--T", "0"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: T must be >= 1\n")


def test_walk_simulate_checks_coin_at_T0(capsys):
    code = main(["walk", "simulate", "--family", "p24y1",
                 "--theta", "3.141592653589793", "--N", "5", "--T", "0"])
    assert code == 2
    assert capsys.readouterr() == (
        "", "error: walk evolution excludes the degenerate theta = +-pi coins\n")


def test_walk_simulate_dump_state_rejects_csv(capsys):
    # CSV has no place for the amplitudes, so the flag would be dropped silently
    code = main(["walk", "simulate", "--family", "p24y1", "--theta", "0.7",
                 "--N", "5", "--T", "3", "--dump-state", "--format", "csv"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: --dump-state needs --format json\n")


def usage_error(capsys, *argv):
    """Run main on argv, which starts with a command and its action,
    expecting argparse's usage error from that action's parser: exit 2, the
    action's usage line on stderr and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    prog = f"coinwalk {argv[0]} {argv[1]}"
    assert exc.value.code == 2 and out == "" and err.startswith(f"usage: {prog} [-h]")
    assert f"\n{prog}: error: " in err


@pytest.mark.parametrize("action, flag", [("spectrum", "--dump-state"),
                                          ("simulate", "--coefficients")])
def test_walk_rejects_flag_its_action_ignores(capsys, action, flag):
    # the other action's flag is no option of this action's parser
    usage_error(capsys, "walk", action, "--family", "x3", "--theta", "1.1", "--N", "5", flag)


def test_walk_simulate_dump_state_round_trips_evolve(capsys):
    from coinwalk import coins, walk
    code, out = run(capsys, "walk", "simulate", "--family", "x3", "--theta", "-2.3",
                    "--N", "7", "--T", "40", "--S", "U", "--dump-state")
    assert code == 0
    amps = json.loads(out)["amplitudes"]
    assert all(len(a) == 2 for a in amps)
    state = walk.WalkState.from_vector([complex(re, im) for re, im in amps], 7)
    want = walk.evolve(walk.initial_state(7, "U"), coins.coin_from_theta("x3", -2.3), 40)
    # repr round-trips every float, so the dumped state is the evolved one exactly
    assert np.array_equal(state.amps, want.amps)


@pytest.mark.parametrize("N", ["4", "0"])
@pytest.mark.parametrize("extra", [[], ["--coefficients"]])
def test_walk_spectrum_rejects_lattices_simulate_rejects(capsys, N, extra):
    args = ["--family", "p24y1", "--theta", "0.7", "--N", N]
    assert main(["walk", "simulate"] + args) == 2
    want = capsys.readouterr()
    assert want == ("", f"error: lattice side must be odd and >= 3, got {N}\n")
    assert main(["walk", "spectrum"] + args + extra) == 2
    assert capsys.readouterr() == want


def test_walk_simulate_calls_step_and_probability_per_step(capsys, monkeypatch):
    # the traced benchmark run builds its walk.* metrics from these spans
    import coinwalk.walk as walk_mod
    counts = {"step": 0, "probability_at": 0}
    for name in counts:
        real = getattr(walk_mod, name)

        def counted(*a, _real=real, _name=name, **k):
            counts[_name] += 1
            return _real(*a, **k)
        monkeypatch.setattr(walk_mod, name, counted)
    code, _ = run(capsys, "walk", "simulate", "--family", "x3", "--theta", "0.3",
                  "--N", "5", "--T", "7")
    assert code == 0
    assert counts == {"step": 7, "probability_at": 8}


@pytest.mark.parametrize("family", ["p34x1", "p24y1", "p23z1", "x3"])
def test_walk_simulate_prints_the_library_time_average(capsys, family):
    # the CLI is a view of walk.simulate, so its average is the library's bit for bit
    from coinwalk import coins, walk
    for theta in (0.7, -2.0, 1.3):
        coin = coins.coin_from_theta(family, theta)
        for S in walk.CHIRALITIES:
            for x, y in ((0, 0), (1, -1)):
                code, out = run(capsys, "walk", "simulate", "--family", family,
                                f"--theta={theta!r}", "--N", "9", "--T", "97", "--S", S,
                                f"--at={x},{y}")
                assert code == 0
                want = walk.time_averaged_probability(coin, 9, S, x, y, 97)
                assert json.loads(out)["time_averaged"] == want, (theta, S, x, y)


def _parent_coefficient_rows(coin, N):
    # the per-row route: one c_coefficient call, so one eigensystem lookup, per row
    from coinwalk.spectral import _family_theta, c_coefficient
    from coinwalk.walk import CHIRALITIES
    fam = _family_theta(coin)
    symmetric = fam is None or fam[0] != "x3"
    half = (N - 1) // 2
    reps = [(n, m) for n in range(half + 1) for m in range(half + 1)
            if symmetric is False or n <= m]
    for S in CHIRALITIES:
        for Sp in CHIRALITIES:
            for n, m in reps:
                for k in (1, 2, 3, 4):
                    c = c_coefficient(coin, Sp, S, n, m, k, N)
                    yield S, Sp, n, m, k, float(c.real), float(c.imag)


@pytest.mark.parametrize("family,theta,fmt", [("p24y1", "0.9", "csv"), ("x3", "0.4", "csv"),
                                              ("p23z1", "-1.5707963267948966", "json")])
def test_walk_spectrum_coefficients_bytes_match_per_row_route(capsys, monkeypatch,
                                                             family, theta, fmt):
    import coinwalk.spectral as spectral_mod
    args = ("walk", "spectrum", "--family", family, "--theta", theta, "--N", "9",
            "--coefficients", "--format", fmt)
    code, out = run(capsys, *args)
    assert code == 0
    monkeypatch.setattr(spectral_mod, "coefficient_rows", _parent_coefficient_rows)
    code, want = run(capsys, *args)
    assert code == 0 and out == want


def test_gw_threads_env(capsys, monkeypatch, tmp_path):
    args = ["localize", "sweep", "--family", "p34x1", "--S", "R", "--points", "4",
            "--quad-M", "32", "--format", "csv"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    monkeypatch.setenv("GW_THREADS", "3")
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_help_examples_run(capsys):
    from coinwalk.cli import build_parser
    epilog = build_parser().epilog
    for example in epilog.split("|"):
        argv = example.replace("examples:", "").strip().split()[1:]
        # keep the documented examples fast but faithful
        if "theorem36" in argv:
            argv += ["--quad-M", "64", "--grid", "3"]
        if "simulate" in argv:
            argv[argv.index("--T") + 1] = "50"
        assert main(argv) == 0
        capsys.readouterr()


def test_localize_pair_convergence_flag_exit_3(capsys):
    # a coarse rule next to x3's theta = 0 genuinely fails the halving check
    # (delta 7.2e-5 at M = 32) and must exit with the numerical flag, still
    # emitting output
    code, out = run(capsys, "localize", "pair", "--family", "x3", "--theta", "0.01",
                    "--S", "U", "--Sprime", "U", "--quad-M", "32",
                    "--check-convergence")
    assert code == 3
    obj = json.loads(out)
    assert obj["converged"] is False
    code, out = run(capsys, "localize", "pair", "--family", "x3", "--theta", "0.01",
                    "--S", "U", "--Sprime", "U", "--quad-M", "512",
                    "--check-convergence")
    assert code == 0


def test_localize_x3_near_zero_converged_value(capsys):
    # the midpoint rule was 2.0e-4 off here (0.49987978916723397) and still
    # reported converged; the default rule is within 1e-12
    code, out = run(capsys, "localize", "total", "--family", "x3", "--theta", "0.001",
                    "--S", "U", "--check-convergence")
    assert code == 0
    obj = json.loads(out)
    assert obj["converged"] is True
    assert abs(obj["value"] - 0.4996818088503317) < 1e-12


def test_localize_check_convergence_needs_quad_M_32(capsys):
    # at M = 16 the halving check would compare the rule with itself
    code = main(["localize", "total", "--family", "x3", "--theta", "3.1", "--S", "R",
                 "--quad-M", "16", "--check-convergence"])
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("action", ["pair", "total"])
@pytest.mark.parametrize("family,theta,M", [("x3", "3.1", "512"), ("p24y1", "-1.1", "2048")])
def test_localize_check_convergence_keeps_value_bytes(capsys, action, family, theta, M):
    # the flag adds the halving check, one more kernel evaluation at M / 2;
    # the value and every other byte stay
    from coinwalk.localization import _integrals

    argv = ["localize", action, "--family", family, "--theta", theta, "--S", "U",
            "--quad-M", M] + (["--Sprime", "D"] if action == "pair" else [])
    _integrals.cache_clear()
    plain = run(capsys, *argv)
    assert _integrals.cache_info().misses == 1
    _integrals.cache_clear()
    checked = run(capsys, *argv, "--check-convergence")
    assert _integrals.cache_info().misses == 2
    assert plain == checked
    assert plain[0] == 0 and json.loads(plain[1])["converged"] is True


def test_localize_nan_delta_is_not_converged(capsys, monkeypatch):
    from coinwalk import localization

    monkeypatch.setattr(localization, "convergence_delta", lambda *args: float("nan"))
    code, out = run(capsys, "localize", "total", "--family", "x3", "--theta", "0.7",
                    "--S", "U", "--quad-M", "32", "--check-convergence")
    assert code == 3
    assert json.loads(out)["converged"] is False


@pytest.mark.parametrize("action", ["sweep", "theorem36"])
def test_localize_check_convergence_rejected_outside_pair_total(capsys, action):
    own = {"sweep": ["--points", "3"], "theorem36": ["--grid", "3"]}[action]
    usage_error(capsys, "localize", action, *own, "--quad-M", "32", "--check-convergence")


# each passes flags its action does not read: refused before any output
@pytest.mark.parametrize("argv", [
    "localize theorem36 --family x3 --theta 2 --points 9",
    "localize sweep --theta 1 --Sprime D --grid 7",
    "localize total --Sprime D --points 3 --grid 2",
    "coin gen --r 2 --theta 0.5",
    "coin gen --theta 0.3 --z-branch -1",
    "coin gen --tol nan --in /nonexistent",
    "coin verify --family zz --r 0",
    "space partition --in /nonexistent --c2 7",
    "space c-family --in /nonexistent",
    "walk spectrum --T 5 --S U --at 9,9",
])
def test_flag_an_action_ignores_exits_2(capsys, argv):
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    assert code == 2 and capsys.readouterr().out == ""


def _action_parsers(parser):
    """{(command, action): parser} of a parser tree."""
    import argparse

    def sub(p):
        return next(a for a in p._actions if isinstance(a, argparse._SubParsersAction)).choices
    return {(c, a): pa for c, pc in sub(parser).items() for a, pa in sub(pc).items()}


def test_named_action_parser_equals_full_tree_action_parser():
    from coinwalk.cli import build_parser
    full = _action_parsers(build_parser())
    assert len(full) == 13
    for (cmd, action), want in full.items():
        built = _action_parsers(build_parser([cmd, action, "--out", "x"]))
        # only the named action's parser is built
        assert list(built) == [(cmd, action)]
        got = built[cmd, action]
        assert got.prog == want.prog == f"coinwalk {cmd} {action}"
        assert got.format_help() == want.format_help()
        assert got.format_usage() == want.format_usage()


def test_full_tree_reports_a_foreign_flag_with_the_action_usage(capsys):
    # build_parser() without argv, as a library caller builds it
    from coinwalk.cli import build_parser
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["walk", "spectrum", "--family", "x3", "--theta", "1",
                                   "--N", "5", "--dump-state"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: coinwalk walk spectrum [-h]")
    assert err.endswith("coinwalk walk spectrum: error: unrecognized arguments: --dump-state\n")


@pytest.mark.parametrize("argv", [[], ["walk"], ["walk", "sim"], ["simulate", "walk"],
                                  ["--family", "x3", "walk", "simulate"], None])
def test_parser_without_a_named_action_is_the_full_tree(argv):
    from coinwalk.cli import build_parser
    assert len(_action_parsers(build_parser(argv))) == 13


def test_coin_gen_z_branch_needs_r(capsys):
    code = main(["coin", "gen", "--theta", "0.3", "--z-branch", "-1"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: --z-branch needs --r\n")
    assert run(capsys, "coin", "gen", "--family", "y3", "--r", "3/5", "--z-branch", "-1")[0] == 0


def test_readme_cli_lines_parse():
    # README's CLI block and the per-action parsers must not drift apart
    import pathlib
    import shlex

    from coinwalk.cli import build_parser
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [l.split("#", 1)[0] for l in block.splitlines() if l.startswith("coinwalk ")]
    assert len(lines) >= 15
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert (args.cmd, args.action) == tuple(shlex.split(line)[1:3])


MALFORMED_COIN_JSON = ['{}', '{"entries_re": 5}',
                       json.dumps({"entries_re": np.eye(4).tolist(), "r": 3})]


@pytest.mark.parametrize("text", MALFORMED_COIN_JSON, ids=["empty", "scalar", "r-int"])
def test_coin_verify_rejects_malformed_coin_json(capsys, monkeypatch, text):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(["coin", "verify"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("error: malformed coin JSON")


def test_theta_thread_pool_removed(capsys, monkeypatch):
    # one sequential theta loop: no --threads flag, no threads parameter,
    # and GW_THREADS is not read, so a non-integer value cannot fail a run
    from coinwalk.localization import sweep_theta
    with pytest.raises(SystemExit) as exc:
        main(["localize", "sweep", "--points", "3", "--quad-M", "32", "--threads", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(TypeError):
        sweep_theta("x3", ("R",), 3, threads=2)
    monkeypatch.setenv("GW_THREADS", "abc")
    code, out = run(capsys, "localize", "theorem36", "--grid", "3", "--quad-M", "32")
    assert code == 0 and json.loads(out)["passed"] is True


def test_walk_simulate_time_average_matches_spectral(capsys):
    # the documented example: empirical time average at T=2000 agrees with
    # the exact finite-N value within 5/T
    code, out = run(capsys, "walk", "simulate", "--family", "p24y1", "--theta", "0.7",
                    "--N", "5", "--T", "2000", "--S", "R", "--at", "0,0",
                    "--format", "json")
    assert code == 0
    obj = json.loads(out)
    from coinwalk.coins import coin_from_theta
    from coinwalk.spectral import finite_N_pbar_matrix
    exact = finite_N_pbar_matrix(coin_from_theta("p24y1", 0.7), 5)[:, 0].sum()
    assert abs(obj["time_averaged"] - exact) < 5.0 / 2000


NAN_MATRIX = "1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 nan"
INF_COIN_JSON = json.dumps({"entries_re": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                           [0, 0, 0, float("inf")]]})


@pytest.mark.parametrize("text", [NAN_MATRIX, INF_COIN_JSON], ids=["text", "json"])
@pytest.mark.parametrize("cmd", [("space", "decompose"), ("space", "sq-check"),
                                 ("coin", "classify"), ("coin", "verify")])
def test_matrix_commands_reject_non_finite_entries(capsys, tmp_path, cmd, text):
    path = tmp_path / "m.txt"
    path.write_text(text)
    code = main([*cmd, "--in", str(path)])
    assert code == 2
    assert capsys.readouterr() == (
        "", "error: matrix entry in row 4, column 4 is not finite\n")


@pytest.mark.parametrize("tol", ["nan", "-1"])
@pytest.mark.parametrize("action", ["verify", "classify"])
def test_coin_tol_must_be_finite_and_non_negative(capsys, tmp_path, action, tol):
    # y2(3/5) is exactly orthogonal: a bad tolerance must not read as a verdict
    assert main(["coin", "gen", "--family", "y2", "--r", "3/5",
                 "--out", str(tmp_path / "y2.json")]) == 0
    code = main(["coin", action, "--in", str(tmp_path / "y2.json"), f"--tol={tol}"])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: --tol must be finite and >= 0, got {float(tol)}\n")
    assert run(capsys, "coin", action, "--in", str(tmp_path / "y2.json"))[0] == 0
