"""Exact eta invariants, harmonic spinors, spin structures, and integral
holonomy for compact flat manifolds with cyclic holonomy of odd prime order.
"""

from .exact import (
    RadicalValue,
    ResidueModZ,
    rational_str,
    reduce_mod_Z,
)
from .manifold import (
    SpinStructure,
    ZpParams,
    build_holonomy,
    enumerate_params,
    enumerate_spin_structures,
    holonomy_checks,
    homology_h1,
    validate,
)
from .numtheory import OddPrime, class_number, delta_p, legendre
from .spectrum import dim_ker, dim_ker_oracle, mult_diff, mult_diff_oracle
from .eta import (
    EtaClosedForm,
    InvariantRecord,
    eta_invariant,
    eta_invariant_via_series,
    eta_series_closed_form,
    eta_series_eval,
    eta_spectral_partial,
    hurwitz_zeta,
    reduced_eta,
    untwisted_closed_form,
    verify_integrality,
    verify_parity,
    verify_untwisted,
)

__version__ = "0.1.0"

__all__ = [
    "EtaClosedForm",
    "InvariantRecord",
    "OddPrime",
    "RadicalValue",
    "ResidueModZ",
    "SpinStructure",
    "ZpParams",
    "build_holonomy",
    "class_number",
    "delta_p",
    "dim_ker",
    "dim_ker_oracle",
    "enumerate_params",
    "enumerate_spin_structures",
    "eta_invariant",
    "eta_invariant_via_series",
    "eta_series_closed_form",
    "eta_series_eval",
    "eta_spectral_partial",
    "holonomy_checks",
    "homology_h1",
    "hurwitz_zeta",
    "legendre",
    "mult_diff",
    "mult_diff_oracle",
    "rational_str",
    "reduce_mod_Z",
    "reduced_eta",
    "untwisted_closed_form",
    "validate",
    "verify_integrality",
    "verify_parity",
    "verify_untwisted",
]
