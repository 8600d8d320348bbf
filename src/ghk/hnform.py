"""Closed-form multiplicity evaluation from slope-filtration data.

Everything here is exact rational arithmetic on user-supplied numeric
invariants: ranks and normalized slopes of the graded quotients of a
strong slope filtration, plus the projective degree of the underlying
curve. No bundle is ever materialized and no filtration is computed;
code that needs one must bring its numbers.
"""

from __future__ import annotations

import warnings
from typing import Sequence

from .arith import Rat, Record, as_int, as_rat, rat_str
from .errors import GhkHypothesisError, GhkHypothesisWarning


class HNData(Record):
    """Ranks and normalized slopes of filtration quotients, plus the
    curve degree. Slopes must be strictly decreasing; supplying
    total_degree asserts sum(r_k * slope_k) against it."""

    quotients: tuple
    degY: int
    total_degree: Rat | None = None

    def __init__(self, quotients, degY, total_degree=None):
        qs = []
        for pair in quotients:
            r, mu = pair
            qs.append((as_int(r, "a quotient rank", 1), as_rat(mu)))
        for (ra, a), (rb, b) in zip(qs, qs[1:]):
            if not a > b:
                raise GhkHypothesisError(
                    f"slopes must strictly decrease, got {a} then {b}"
                )
        degY = as_int(degY, "the curve degree degY", 1)
        object.__setattr__(self, "quotients", tuple(qs))
        object.__setattr__(self, "degY", degY)
        if total_degree is not None:
            total_degree = as_rat(total_degree)
            got = sum((r * mu for r, mu in qs), Rat(0))
            if got != total_degree:
                raise GhkHypothesisError(
                    f"quotient slopes sum to {got}, expected total degree {total_degree}"
                )
        object.__setattr__(self, "total_degree", total_degree)

    @property
    def rank(self) -> int:
        return sum(r for r, _ in self.quotients)

    def degree(self) -> Rat:
        """sum r_k * slope_k, the degree of the filtered sheaf."""
        return sum((r * mu for r, mu in self.quotients), Rat(0))

    @classmethod
    def from_json_obj(cls, obj) -> "HNData":
        if not isinstance(obj, dict) or "quotients" not in obj or "degY" not in obj:
            raise GhkHypothesisError(
                "filtration data must be an object with 'quotients' and 'degY'"
            )
        return cls(obj["quotients"], obj["degY"], obj.get("total_degree"))

    def to_json_obj(self) -> dict:
        out = {
            "quotients": [[r, rat_str(mu)] for r, mu in self.quotients],
            "degY": self.degY,
        }
        if self.total_degree is not None:
            out["total_degree"] = rat_str(self.total_degree)
        return out


def hk_slope(H: HNData) -> Rat:
    """sum r_k * slope_k^2, the rank-weighted square-slope sum."""
    return sum((r * mu * mu for r, mu in H.quotients), Rat(0))


def hn_sum_line_bundles(pairs: Sequence, degY: int) -> HNData:
    """Filtration data of a direct sum of line-bundle powers O(-d_i)^r_i.

    Each distinct d contributes one quotient of rank r and slope
    -d*degY; sorting by increasing d gives the required strictly
    decreasing slopes.
    """
    degY = as_int(degY, "the curve degree degY")
    seen = set()
    cleaned = []
    for d, r in pairs:
        d, r = as_int(d, "a summand degree"), as_int(r, "a summand rank")
        if d in seen:
            raise GhkHypothesisError(f"duplicate summand degree {d}")
        seen.add(d)
        cleaned.append((d, r))
    cleaned.sort()
    return HNData([(r, Rat(-d * degY)) for d, r in cleaned], degY)


def hn_rank1_syzygy(a: int, b: int, d: int, degY: int) -> HNData:
    """Filtration data of the rank-one syzygy sheaf of two generators of
    degrees a and b whose common zero scheme has sheaf degree d <= 0."""
    a, b = as_int(a, "the generator degree a", 1), as_int(b, "the generator degree b", 1)
    d, degY = as_int(d, "the sheaf degree d"), as_int(degY, "the curve degree degY")
    if d > 0:
        raise GhkHypothesisError(
            f"sheaf degree must be <= 0 (ideal subsheaf convention), got {d}"
        )
    return HNData([(1, Rat(degY * (-a - b) - d))], degY)


def _warn(message: str) -> None:
    warnings.warn(message, GhkHypothesisWarning, stacklevel=3)


def e_ghk_closed_form(HN_S: HNData, source_twists: Sequence[int], HN_Q: HNData, degY: int | None = None) -> Rat:
    """The multiplicity (mu_HK(S) - degY^2 sum d_i^2 + mu_HK(Q)) / (2 degY).

    S is the syzygy part, twists d_i are the pullback source degrees,
    Q the quotient part. Negative output is flagged: it signals input
    data violating the geometric hypotheses, never a real multiplicity.
    """
    if degY is None:
        degY = HN_S.degY
    degY = as_int(degY, "the curve degree degY")
    if HN_S.degY != degY or HN_Q.degY != degY:
        raise GhkHypothesisError(
            f"curve degrees disagree: {HN_S.degY}, {HN_Q.degY}, {degY}"
        )
    twists = [as_int(d, "a source twist") for d in source_twists]
    value = (
        hk_slope(HN_S) - degY**2 * sum(d * d for d in twists) + hk_slope(HN_Q)
    ) / (2 * degY)
    if value < 0:
        _warn(f"closed-form multiplicity {value} is negative; input data "
              "inconsistent with hypotheses")
    return value


def e_hk_closed_form(HN_Syz: HNData, degrees: Sequence[int], degY: int | None = None) -> Rat:
    """Classical multiplicity (mu_HK(Syz) - degY^2 sum d_i^2) / (2 degY)
    for an irrelevant-primary ideal with generator degrees d_i.

    A value below 1 is flagged: multiplicities of primary ideals are
    always >= 1, so smaller outputs expose inconsistent input data.
    """
    if degY is None:
        degY = HN_Syz.degY
    degY = as_int(degY, "the curve degree degY")
    if HN_Syz.degY != degY:
        raise GhkHypothesisError(f"curve degrees disagree: {HN_Syz.degY}, {degY}")
    twists = [as_int(d, "a generator degree") for d in degrees]
    value = (hk_slope(HN_Syz) - degY**2 * sum(d * d for d in twists)) / (2 * degY)
    if value < 1:
        _warn(f"classical multiplicity {value} is below 1; input data "
              "inconsistent with hypotheses (ideal not irrelevant-primary?)")
    return value


def e_ghk_two_generated(a: int, b: int, d: int, degY: int) -> Rat:
    """d^2/degY + a*b*degY + d*(a + b): the two-generator specialization."""
    a, b = as_int(a, "the generator degree a", 1), as_int(b, "the generator degree b", 1)
    d, degY = as_int(d, "the sheaf degree d"), as_int(degY, "the curve degree degY", 1)
    if d > 0:
        raise GhkHypothesisError(
            f"sheaf degree must be <= 0 (ideal subsheaf convention), got {d}"
        )
    value = Rat(d * d, degY) + a * b * degY + d * (a + b)
    if value < 0:
        _warn(f"closed-form multiplicity {value} is negative; input data "
              "inconsistent with hypotheses")
    return value


def e_ghk_point(degY: int) -> Rat:
    """(degY - 1)^2 / degY: the multiplicity of a single reduced point."""
    degY = as_int(degY, "the curve degree degY", 1)
    return Rat((degY - 1) ** 2, degY)
