"""Public API guard: every exported name resolves, the coins, matspace,
spectral and localization modules keep their public names, and the public
callables keep their parameter names."""

import argparse
import importlib
import inspect

import pytest

MODULES = ["coinwalk", "coinwalk.perms", "coinwalk.coins", "coinwalk.matspace",
           "coinwalk.walk", "coinwalk.spectral", "coinwalk.localization", "coinwalk.io"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing


def test_coins_public_names_frozen():
    from coinwalk import coins
    assert coins.__all__ == [
        "Coin", "FamilyWitness", "NotOrthogonalError", "NotPermutativeError",
        "COIN_FAMILIES", "SET_TAGS",
        "grover_coin", "coin_from_theta", "coin_rational", "build_permutative",
        "orthogonality_residual", "is_orthogonal", "is_unitary", "is_permutative",
        "classify",
        "set_member_from_theta", "in_pattern_set",
        "chain_ids", "chain_sets", "group_closure_sample",
        "coin_to_json", "coin_from_json",
    ]


def test_matspace_public_names_frozen():
    from coinwalk import matspace
    assert matspace.__all__ == [
        "BASIS_NAMES", "basis_matrices", "LinearSumDecomposition", "decompose_linear_sum",
        "NotInLError", "subspace_membership", "L_SPACES",
        "h_orthogonal", "six_class_partition",
        "quadrangular", "strongly_quadrangular",
        "hadamard_matrix", "hadamard_split", "hadamard_row_sum_check",
        "theorem217_family", "theorem217_block",
        "two_permutation_check", "sample_orthogonal_in_span",
        "direct_sum_components", "is_perm_equivalent_direct_sum",
        "satisfies_span_dichotomy",
    ]


def test_spectral_public_names_frozen():
    from coinwalk import spectral
    assert spectral.__all__ == [
        "SpectralBlock", "DegeneracyClass",
        "build_block", "coin_eigensystem",
        "omega_class", "c_coefficient",
        "finite_N_pbar", "finite_N_pbar_matrix",
        "reconstruct_state", "spectrum_rows", "coefficient_rows",
    ]


def test_localization_public_names_frozen():
    from coinwalk import localization
    assert localization.__all__ == [
        "QuadratureSpec", "theta_grid",
        "pbar_matrix", "pbar_infinity_pair", "pbar_infinity_total",
        "sweep_theta", "theorem36_check", "convergence_delta",
    ]


# Parameter names of every public function, constructor and method. No
# option joins them without a caller that sets it to a second value.
PARAMETERS = {
    "perms": {
        "Permutation4": ["mapping"],
        "Permutation4.matrix": ["self"],
        "Permutation4.inverse": ["self"],
        "Permutation4.compose": ["self", "other"],
        "Permutation4.cycles": ["self"],
        "perm_matrix": ["pi"],
        "matrix_to_perm": ["m"],
        "from_cycles": ["s"],
    },
    "coins": {
        "Coin": ["entries", "family", "theta", "r", "exact"],
        "FamilyWitness": ["family", "left", "kind", "sign", "x", "z"],
        "FamilyWitness.variety_residual": ["self"],
        "FamilyWitness.is_rational": ["self"],
        "FamilyWitness.reconstruct": ["self"],
        "grover_coin": [],
        "coin_from_theta": ["family", "theta"],
        "coin_rational": ["tag", "r", "z_branch"],
        "build_permutative": ["x_row", "P", "Q", "R"],
        "orthogonality_residual": ["A", "conjugate"],
        "is_orthogonal": ["A", "tol"],
        "is_unitary": ["A", "tol"],
        "is_permutative": ["A", "tol"],
        "classify": ["A", "tol"],
        "set_member_from_theta": ["tag", "theta"],
        "in_pattern_set": ["A", "tag", "left", "tol"],
        "chain_ids": [],
        "chain_sets": ["chain_id"],
        "group_closure_sample": ["chain_id", "count", "seed"],
        "coin_to_json": ["coin"],
        "coin_from_json": ["obj"],
    },
    "matspace": {
        "basis_matrices": [],
        "LinearSumDecomposition": ["coeffs", "residual"],
        "LinearSumDecomposition.reconstruct": ["self"],
        "LinearSumDecomposition.coefficient_sum": ["self"],
        "LinearSumDecomposition.to_json": ["self", "row_sum_sign"],
        "decompose_linear_sum": ["A"],
        "subspace_membership": ["A"],
        "h_orthogonal": ["P", "Q"],
        "six_class_partition": [],
        "quadrangular": ["M"],
        "strongly_quadrangular": ["M"],
        "hadamard_matrix": [],
        "hadamard_split": ["A"],
        "hadamard_row_sum_check": ["A", "tol"],
        "theorem217_family": ["variant", "c2", "branch"],
        "theorem217_block": ["variant", "c2", "branch"],
        "two_permutation_check": [],
        "sample_orthogonal_in_span": ["names", "trials", "seed"],
        "direct_sum_components": ["A", "tol"],
        "is_perm_equivalent_direct_sum": ["A", "tol"],
        "satisfies_span_dichotomy": ["A"],
    },
    "walk": {
        "chirality_index": ["S"],
        "index_of": ["S", "x", "y", "N"],
        "coords_of": ["w", "N"],
        "WalkState": ["N", "amps"],
        "WalkState.norm": ["self"],
        "WalkState.amplitude": ["self", "S", "x", "y"],
        "WalkState.to_vector": ["self"],
        "WalkState.from_vector": ["cls", "vec", "N"],
        "initial_state": ["N", "S"],
        "step": ["state", "C"],
        "evolve": ["state", "C", "t"],
        "probability_at": ["state", "x", "y"],
        "position_distribution": ["state"],
        "simulate": ["C", "N", "S", "T", "x", "y"],
        "time_averaged_probability": ["C", "N", "S", "x", "y", "T"],
        "time_averaged_chirality_profile": ["C", "N", "S", "T", "x", "y"],
    },
    "spectral": {
        "SpectralBlock": ["n", "m", "N", "matrix", "eigenvalues", "eigenvectors", "fallback"],
        "SpectralBlock.residual": ["self"],
        "DegeneracyClass": ["representative", "members"],
        "build_block": ["coin", "n", "m", "N"],
        "coin_eigensystem": ["coin", "N"],
        "omega_class": ["n", "m", "N", "symmetric"],
        "c_coefficient": ["coin", "S_prime", "S", "n", "m", "k", "N"],
        "finite_N_pbar": ["coin", "S_prime", "S", "N"],
        "finite_N_pbar_matrix": ["coin", "N"],
        "reconstruct_state": ["coin", "N", "S", "t"],
        "spectrum_rows": ["coin", "N"],
        "coefficient_rows": ["coin", "N"],
    },
    "localization": {
        "QuadratureSpec": ["M"],
        "QuadratureSpec.nodes": ["self"],
        "theta_grid": ["num_points"],
        "pbar_matrix": ["family", "theta", "quad"],
        "pbar_infinity_pair": ["family", "theta", "S", "S_prime", "quad"],
        "pbar_infinity_total": ["family", "theta", "S", "quad"],
        "sweep_theta": ["family", "S_list", "num_points", "quad"],
        "theorem36_check": ["quad", "grid"],
        "convergence_delta": ["family", "theta", "quad"],
    },
}


def _public_parameters(modname: str) -> dict:
    mod = importlib.import_module(f"coinwalk.{modname}")
    out = {}
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isclass(obj) and not issubclass(obj, Exception):
            out[name] = list(inspect.signature(obj).parameters)
            for attr, fn in vars(obj).items():
                fn = getattr(fn, "__func__", fn)   # unwrap classmethods
                if not attr.startswith("_") and inspect.isfunction(fn):
                    out[f"{name}.{attr}"] = list(inspect.signature(fn).parameters)
        elif inspect.isfunction(obj):
            out[name] = list(inspect.signature(obj).parameters)
    return out


def test_public_parameters_frozen():
    assert {m: _public_parameters(m) for m in PARAMETERS} == PARAMETERS


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_localize_cli_options_frozen():
    from coinwalk.cli import build_parser
    localize = _subparsers(_subparsers(build_parser()).choices["localize"]).choices
    options = {action: sorted(s for a in p._actions for s in a.option_strings)
               for action, p in localize.items()}
    common = ["--format", "--help", "--out"]
    assert options == {
        "pair": sorted(common + ["--S", "--Sprime", "--check-convergence", "--family",
                                 "--quad-M", "--theta", "-h"]),
        "total": sorted(common + ["--S", "--check-convergence", "--family", "--quad-M",
                                  "--theta", "-h"]),
        "sweep": sorted(common + ["--S", "--family", "--points", "--quad-M", "-h"]),
        "theorem36": sorted(common + ["--grid", "--quad-M", "-h"]),
    }


def test_io_public_names_frozen():
    # perfbench/trace.py names its io.* spans after these functions
    from coinwalk import io
    assert io.__all__ == ["fmt_float", "write_csv", "dump_json", "read_matrix_text",
                          "open_out"]
