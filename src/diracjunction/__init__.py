"""Self-adjoint boundary conditions for the 1-D Dirac operator on two
half-lines joined by a junction: parameter maps in both directions,
proof-construction verification oracles, and a plane-wave scattering
solver for the junction's spin-flip / phase-shift behavior.

The public names are imported from their submodules on first use
(PEP 562), so ``import diracjunction`` loads no submodule, and the 2x2
parameter maps run without loading ``numpy``.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "boundary": (
        "AlphaBC",
        "BDForm",
        "ClassReport",
        "Island",
        "RhoBC",
        "alpha_to_bd",
        "bd_to_alpha",
        "invert_alpha",
        "make_phase_shift",
        "make_spin_flip",
        "validate_class",
    ),
    "correspondence": (
        "ExtensionClass",
        "Separating",
        "Sign",
        "Transmitting",
        "alpha_to_u2",
        "classify",
        "closed_form_u2_candidate",
        "compare_closed_form",
        "diagonal_u2_to_rho",
        "mu_constant",
        "oracle_rho_from_diagonal",
        "rho_to_diagonal_u2",
        "u2_to_alpha",
    ),
    "deficiency": (
        "DeficiencyFunction",
        "boundary_form",
        "boundary_form_quadrature",
        "gram_matrix",
        "ode_residual",
        "oracle_alpha_from_u2",
        "verify_selfadjoint_domain",
    ),
    "matrix2": (
        "DEFAULT_TOL",
        "QuaternionForm",
        "compose",
        "decompose_u2",
        "is_unitary",
    ),
    "scattering": (
        "ScatteringColumns",
        "ScatteringResult",
        "scatter_alpha",
        "scatter_rho",
        "sweep_columns",
        "switch_demo",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups are plain dict hits
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
