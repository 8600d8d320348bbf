"""ghk: exact generalized Hilbert-Kunz functions and multiplicities.

Computes Hilbert-Kunz style length functions of Frobenius pullbacks of
graded modules over two-dimensional standard graded rings in prime
characteristic, entirely in exact arithmetic, and cross-checks them
against closed-form multiplicity formulas driven by slope data of the
underlying sheaves.

Each public name loads its submodule on first use (PEP 562), so that
`import ghk.cli` imports only the modules the command line runs.
"""

from importlib import import_module

# submodule -> the public names it owns
_EXPORTS = {
    "arith": ("Rat",),
    "errors": (
        "BudgetExceededError",
        "GhkError",
        "GhkHypothesisError",
        "GhkHypothesisWarning",
        "HomogeneityError",
        "ParseError",
        "RingMismatchError",
    ),
    "fitlab": (
        "FamilySpec",
        "FitReport",
        "GammaRow",
        "SweepReport",
        "SweepRow",
        "estimate_multiplicity",
        "fit_report",
        "gamma_analysis",
        "prime_sweep",
    ),
    "frobmod": (
        "GHKRow",
        "GHKTable",
        "Presentation",
        "SkippedRow",
        "direct_sum",
        "frobenius_pullback",
        "ghk_table",
        "ghk_value",
        "hk_value",
        "presentation_of_quotient",
    ),
    "groebner": (
        "GbBudget",
        "GroebnerBasis",
        "ModVector",
        "Submodule",
        "buchberger",
    ),
    "hnform": (
        "HNData",
        "e_ghk_closed_form",
        "e_ghk_point",
        "e_ghk_two_generated",
        "e_hk_closed_form",
        "hk_slope",
        "hn_rank1_syzygy",
        "hn_sum_line_bundles",
    ),
    "idealops": (
        "HilbertSeries",
        "RingReport",
        "RingSpec",
        "SmoothnessReport",
        "bracket_power",
        "colength_difference",
        "colon",
        "hilbert_series",
        "intersect",
        "reflexive_hull",
        "saturate",
        "sheaf_degree",
        "smoothness_check",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the submodule that owns a public name, and keep the name."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(globals().keys() | _OWNER.keys())
