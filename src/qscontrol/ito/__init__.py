"""Exact symbolic arithmetic for quantum Ito tables (first order and SWN)."""

from .differential import SymbolicDifferential
from .hp import DA, DAD, DL, DT, hp_mul
from .labels import HpLabel, SwnLabel
from .module_ops import (
    ModuleOperator,
    circ,
    inner,
    l_map,
    module_ito_mul,
    pairing,
    r_map,
)
from .serialize import (
    differential_from_json,
    differential_to_json,
    module_operator_from_json,
    module_operator_to_json,
)
from .sl2 import (
    factorial_powers,
    rho_plus_matrix,
    stirling1,
    stirling1_unsigned,
    swn_structure_constants,
    theta,
)
from .swn import d_bminus, d_bplus, d_m, swn_basis_product, swn_mul

__all__ = [
    "SymbolicDifferential",
    "HpLabel",
    "SwnLabel",
    "hp_mul",
    "swn_mul",
    "swn_basis_product",
    "DT",
    "DA",
    "DAD",
    "DL",
    "d_bminus",
    "d_bplus",
    "d_m",
    "stirling1",
    "stirling1_unsigned",
    "factorial_powers",
    "theta",
    "rho_plus_matrix",
    "swn_structure_constants",
    "ModuleOperator",
    "circ",
    "pairing",
    "inner",
    "r_map",
    "l_map",
    "module_ito_mul",
    "differential_to_json",
    "differential_from_json",
    "module_operator_to_json",
    "module_operator_from_json",
]
