"""Permutative orthogonal 4x4 coins, coined quantum walks on periodic odd
lattices, and localization probabilities at the origin."""

from .coins import (
    Coin,
    FamilyWitness,
    NotOrthogonalError,
    NotPermutativeError,
    classify,
    coin_from_theta,
    coin_rational,
    grover_coin,
    is_orthogonal,
    is_permutative,
    is_unitary,
)
from .localization import (
    QuadratureSpec,
    pbar_infinity_pair,
    pbar_infinity_total,
    sweep_theta,
    theorem36_check,
)
from .matspace import decompose_linear_sum, strongly_quadrangular, theorem217_family
from .spectral import build_block, c_coefficient, finite_N_pbar, omega_class
from .walk import evolve, initial_state, step, time_averaged_probability

__version__ = "0.1.0"

__all__ = [
    "Coin", "FamilyWitness", "NotOrthogonalError", "NotPermutativeError",
    "classify", "coin_from_theta", "coin_rational", "grover_coin",
    "is_orthogonal", "is_permutative", "is_unitary",
    "QuadratureSpec", "pbar_infinity_pair", "pbar_infinity_total",
    "sweep_theta", "theorem36_check",
    "decompose_linear_sum", "strongly_quadrangular", "theorem217_family",
    "build_block", "c_coefficient", "finite_N_pbar", "omega_class",
    "evolve", "initial_state", "step", "time_averaged_probability",
    "__version__",
]
