"""sl_q(2) representations, twisted tensor products, universal R-operators,
and numerical verification of the identities they satisfy."""

__version__ = "0.1.0"

from .qcore import (RATIONAL, DeformationParameter, PhiProduct, ToleranceConfig,
                    phi_product, qnum)
from .rep import OperatorTriple, build_lax, build_spin_rep, casimir_matrix, fundamental_r
from .tensorrep import (CasimirSpectrumReport, ProductSpace, lowest_weight_coeffs,
                        tensor_casimir, weight_reversed)
from .rop import (REigenvalues, RMatrix, assemble_R, closed_form_R, eigenvalue_sequence,
                  normalize_global)
from .cyclic import (CentralElements, CyclicEigenFamily, CyclicRepSpec, PartialR,
                     build_cyclic_rep, central_elements, cyclic_R_eigenvalues,
                     cyclic_space, eigenstate_family, family_closure_defect,
                     family_ratio, partial_R, sample_compatible_params,
                     shift_prefactor, tensor_power_scalars, weight_degeneracy,
                     weyl_generators)
from .verify import ResidualReport
from . import errors

__all__ = [
    "RATIONAL", "DeformationParameter", "PhiProduct", "ToleranceConfig", "phi_product", "qnum",
    "OperatorTriple", "build_lax", "build_spin_rep", "casimir_matrix", "fundamental_r",
    "CasimirSpectrumReport", "ProductSpace", "lowest_weight_coeffs", "tensor_casimir",
    "weight_reversed",
    "REigenvalues", "RMatrix", "assemble_R", "closed_form_R",
    "eigenvalue_sequence", "normalize_global",
    "CentralElements", "CyclicEigenFamily", "CyclicRepSpec", "PartialR",
    "build_cyclic_rep", "central_elements", "cyclic_R_eigenvalues", "cyclic_space",
    "eigenstate_family", "family_closure_defect", "family_ratio", "partial_R",
    "sample_compatible_params", "shift_prefactor", "tensor_power_scalars",
    "weight_degeneracy", "weyl_generators",
    "ResidualReport", "errors",
]
