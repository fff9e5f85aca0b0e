"""bundlecalc: exact-arithmetic calculator for slope stability of vector
bundles, effective restriction bounds, Serre-construction planning on the
projective plane, and a finite-group sandbox for holonomy and irreducibility.

Every quantity is an exact rational or big integer; no floating point
crosses any public interface.  All values are immutable and every function
is deterministic and safe to call concurrently.
"""

from .bounds import (
    AmbientSpace,
    JordanMode,
    RestrictionReport,
    ell_bound,
    jordan_constant,
    langer_index,
    restriction_report,
    schur_surd_multiple,
)
from .chern import (
    ChernData,
    TruncatedCh,
    direct_sum,
    discriminant,
    dual,
    from_truncated,
    secondary_slope,
    slope,
    sym_power,
    sym_rank,
    tensor,
    truncated_ch,
    wedge_power,
)
from .errors import (
    BundleCalcError,
    CapExceededError,
    DomainError,
    MissingConstantError,
    PrecisionError,
)
from .fields import FqField, make_field
from .groups import (
    BurnsideResult,
    FqMatrixGroup,
    FreeGroupRep,
    HolonomyResult,
    associated_rep,
    burnside_irreducible,
    group_from_generators,
    holonomy,
    sl2_generate,
)
from .grouptables import JordanCertificate, jordan_verify, table_from_matrix_group
from .hn import (
    CoverData,
    EtaleVerdict,
    HNProfile,
    RamificationVerdict,
    etale_criterion,
    frobenius_degree_scale,
    genuinely_ramified_criterion,
    mu_max,
    pushforward_bound_check,
    total_slope,
    validate_profile,
)
from .matrices import FqMatrix
from .serre import PlaneLineBundle, SerrePlan, alpha_of_curve, check_assumptions, h0_plane, plan

__version__ = "0.1.0"

__all__ = [
    "AmbientSpace",
    "BundleCalcError",
    "BurnsideResult",
    "CapExceededError",
    "ChernData",
    "CoverData",
    "DomainError",
    "EtaleVerdict",
    "FqField",
    "FqMatrix",
    "FqMatrixGroup",
    "FreeGroupRep",
    "HNProfile",
    "HolonomyResult",
    "JordanCertificate",
    "JordanMode",
    "MissingConstantError",
    "PlaneLineBundle",
    "PrecisionError",
    "RamificationVerdict",
    "RestrictionReport",
    "SerrePlan",
    "TruncatedCh",
    "alpha_of_curve",
    "associated_rep",
    "burnside_irreducible",
    "check_assumptions",
    "direct_sum",
    "discriminant",
    "dual",
    "ell_bound",
    "etale_criterion",
    "frobenius_degree_scale",
    "from_truncated",
    "genuinely_ramified_criterion",
    "group_from_generators",
    "h0_plane",
    "holonomy",
    "jordan_constant",
    "jordan_verify",
    "langer_index",
    "make_field",
    "mu_max",
    "plan",
    "pushforward_bound_check",
    "restriction_report",
    "schur_surd_multiple",
    "secondary_slope",
    "sl2_generate",
    "slope",
    "sym_power",
    "sym_rank",
    "table_from_matrix_group",
    "tensor",
    "total_slope",
    "truncated_ch",
    "validate_profile",
    "wedge_power",
]
