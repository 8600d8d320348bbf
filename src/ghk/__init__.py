"""ghk: exact generalized Hilbert-Kunz functions and multiplicities.

Computes Hilbert-Kunz style length functions of Frobenius pullbacks of
graded modules over two-dimensional standard graded rings in prime
characteristic, entirely in exact arithmetic, and cross-checks them
against closed-form multiplicity formulas driven by slope data of the
underlying sheaves.
"""

from .arith import Rat
from .errors import (
    BudgetExceededError,
    GhkError,
    GhkHypothesisError,
    GhkHypothesisWarning,
    HomogeneityError,
    ParseError,
    RingMismatchError,
)
from .fitlab import (
    FamilySpec,
    FitReport,
    GammaRow,
    SweepReport,
    SweepRow,
    estimate_multiplicity,
    fit_report,
    gamma_analysis,
    prime_sweep,
)
from .frobmod import (
    GHKRow,
    GHKTable,
    Presentation,
    SkippedRow,
    direct_sum,
    frobenius_pullback,
    ghk_table,
    ghk_value,
    hk_value,
    presentation_of_quotient,
)
from .groebner import (
    GbBudget,
    GroebnerBasis,
    ModVector,
    Submodule,
    buchberger,
)
from .hnform import (
    HNData,
    e_ghk_closed_form,
    e_ghk_point,
    e_ghk_two_generated,
    e_hk_closed_form,
    hk_slope,
    hn_rank1_syzygy,
    hn_sum_line_bundles,
)
from .idealops import (
    HilbertSeries,
    RingReport,
    RingSpec,
    SmoothnessReport,
    bracket_power,
    colength_difference,
    colon,
    hilbert_series,
    intersect,
    reflexive_hull,
    saturate,
    sheaf_degree,
    smoothness_check,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "FamilySpec",
    "FitReport",
    "GHKRow",
    "GHKTable",
    "GammaRow",
    "GbBudget",
    "GhkError",
    "GhkHypothesisError",
    "GhkHypothesisWarning",
    "GroebnerBasis",
    "HNData",
    "HilbertSeries",
    "HomogeneityError",
    "ModVector",
    "ParseError",
    "Presentation",
    "Rat",
    "RingMismatchError",
    "RingReport",
    "RingSpec",
    "SkippedRow",
    "SmoothnessReport",
    "Submodule",
    "SweepReport",
    "SweepRow",
    "bracket_power",
    "buchberger",
    "colength_difference",
    "colon",
    "direct_sum",
    "e_ghk_closed_form",
    "e_ghk_point",
    "e_ghk_two_generated",
    "e_hk_closed_form",
    "estimate_multiplicity",
    "fit_report",
    "frobenius_pullback",
    "gamma_analysis",
    "ghk_table",
    "ghk_value",
    "hilbert_series",
    "hk_slope",
    "hk_value",
    "hn_rank1_syzygy",
    "hn_sum_line_bundles",
    "intersect",
    "presentation_of_quotient",
    "prime_sweep",
    "reflexive_hull",
    "saturate",
    "sheaf_degree",
    "smoothness_check",
]
