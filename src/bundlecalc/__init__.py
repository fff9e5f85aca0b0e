"""bundlecalc: exact-arithmetic calculator for slope stability of vector
bundles, effective restriction bounds, Serre-construction planning on the
projective plane, and a finite-group sandbox for holonomy and irreducibility.

Every quantity is an exact rational or big integer; no floating point
crosses any public interface.  All values are immutable and every function
is deterministic and safe to call concurrently.

Public names load their module on first use (PEP 562), so that a process
compiles only the modules it needs: Chern numerology never loads the
finite-group stack.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "AmbientSpace", "JordanMode", "RestrictionReport", "ell_bound", "jordan_constant",
        "langer_index", "restriction_report", "schur_surd_multiple",
    ),
    "chern": (
        "ChernData", "TruncatedCh", "direct_sum", "discriminant", "dual", "from_truncated",
        "secondary_slope", "slope", "sym_power", "sym_rank", "tensor", "truncated_ch",
        "wedge_power",
    ),
    "errors": (
        "BundleCalcError", "CapExceededError", "DomainError", "MissingConstantError",
        "PrecisionError",
    ),
    "fields": ("FqField", "make_field"),
    "groups": (
        "BurnsideResult", "FqMatrixGroup", "FreeGroupRep", "HolonomyResult", "associated_rep",
        "burnside_irreducible", "group_from_generators", "holonomy", "sl2_generate",
    ),
    "grouptables": ("JordanCertificate", "jordan_verify", "table_from_matrix_group"),
    "hn": (
        "CoverData", "EtaleVerdict", "HNProfile", "RamificationVerdict", "etale_criterion",
        "frobenius_degree_scale", "genuinely_ramified_criterion", "mu_max",
        "pushforward_bound_check", "total_slope", "validate_profile",
    ),
    "matrices": ("FqMatrix",),
    "serre": ("PlaneLineBundle", "SerrePlan", "alpha_of_curve", "check_assumptions", "h0_plane",
              "plan"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

