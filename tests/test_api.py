"""Public API guard: every exported name resolves, and the coins, matspace,
spectral and localization modules keep their public names."""

import importlib

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
        "is_orthogonal", "is_unitary", "is_permutative", "classify",
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
        "hadamard_matrix", "hadamard_row_sum_check",
        "theorem217_family", "theorem217_block",
        "two_permutation_check", "sample_orthogonal_in_span",
        "direct_sum_components", "is_perm_equivalent_direct_sum",
        "satisfies_span_dichotomy",
    ]


def test_spectral_public_names_frozen():
    from coinwalk import spectral
    assert spectral.__all__ == [
        "SpectralBlock", "DegeneracyClass",
        "build_block", "closed_form_eigs", "coin_eigensystem",
        "omega_class", "c_coefficient", "c_table_p24y1",
        "finite_N_pbar", "finite_N_pbar_matrix",
        "eta_matrix", "reconstruct_state", "spectrum_rows", "coefficient_rows",
    ]


def test_localization_public_names_frozen():
    from coinwalk import localization
    assert localization.__all__ == [
        "QuadratureSpec", "theta_grid",
        "pbar_matrix", "pbar_infinity_pair", "pbar_infinity_total",
        "sweep_theta", "theorem36_check", "convergence_delta",
    ]
