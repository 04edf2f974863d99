"""Elliptic quantum toroidal algebra representations and relation checks."""

from .boson import BosonAlgebra, check_exchange
from .cartan import CartanData, Cocycle, DynWeight, cartan_data
from .ellcore import (BalanceError, DeltaTerm, Lat, ParameterError, Params,
                      PoleProximityError, ThetaRatioSpec, gkernel,
                      pf_expand, phi_delta_difference, pochratio_series, qpoch, theta)
from .level1 import LatticeVector, Level1Module, check_zalgebra
from .fock01 import (FockBasisVector, FockRep, PhiAction, VectorBasis, VectorRep,
                     apply_xminus, apply_xplus, phi_action, tensor_apply,
                     vector_rep_apply)
from .partitions import ColoredPartition, boxes_by_color, coeff_minus, coeff_plus
from .relcheck import SUITES, RelationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BalanceError", "BosonAlgebra", "CartanData", "Cocycle", "ColoredPartition",
    "DeltaTerm", "DynWeight", "FockBasisVector", "FockRep", "Lat",
    "LatticeVector", "Level1Module", "ParameterError", "Params", "PhiAction",
    "PoleProximityError", "RelationReport", "SUITES", "ThetaRatioSpec",
    "VectorBasis", "VectorRep",
    "apply_xminus", "apply_xplus", "boxes_by_color", "cartan_data", "check_exchange",
    "check_zalgebra", "coeff_minus", "coeff_plus", "gkernel",
    "pf_expand", "phi_action", "phi_delta_difference", "pochratio_series", "qpoch",
    "run_suite", "tensor_apply", "theta", "vector_rep_apply",
]
