"""Spans around calls into ghk's layers, recorded from outside the package.

install() rebinds the module-global names that callers actually look
up (and a few class methods) to wrappers that record one span per call:
name, start, end and the index of the enclosing span. Groebner spans
also record which basis object they returned and its length, taken from
the public return value. Spans stay in memory until dump().

layer_metrics() turns a list of spans into the per-layer metrics. A
span's self time is its duration minus the durations of its direct
children; calls are strictly nested, so children never overlap. The
speed sampler's bursts (see child.py) are kept apart from the spans and
taken off the self time of the span they interrupted, so they count
against no layer.
"""

from __future__ import annotations

import functools
import json
import time

GROEBNER = ("groebner.buchberger", "groebner.Submodule.groebner")
CONTAINS = "groebner.GroebnerBasis.contains"
IDEALOPS = (
    "idealops.saturate",
    "idealops.colon",
    "idealops.intersect",
    "idealops.hilbert_series",
    "idealops.colength_difference",
    "idealops.RingSpec.validate",
)
FROBMOD = ("frobmod.frobenius_pullback", "frobmod.ghk_value", "frobmod.hk_value")
FITLAB = (
    "fitlab.prime_sweep",
    "fitlab.estimate_multiplicity",
    "fitlab.fit_report",
    "fitlab.gamma_analysis",
)
CLI = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, basis key, basis size]
        self._stack = []
        self._bases = {}  # id(basis) -> (key, basis); holding it keeps ids unique
        self.bursts = []  # [start, end, interrupted span]

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        records_basis = name in GROEBNER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if records_basis:
                key, _ = self._bases.setdefault(id(result), (len(self._bases), result))
                span[4], span[5] = key, len(result)
            return result

        return traced

    def install(self) -> None:
        import ghk.cli as cli
        import ghk.fitlab as fitlab
        import ghk.frobmod as frobmod
        import ghk.groebner as groebner
        import ghk.idealops as idealops

        # span name -> every (namespace, attribute) through which the
        # CLI's call paths reach the function
        targets = {
            "groebner.buchberger": [(groebner, "buchberger"), (idealops, "buchberger"), (frobmod, "buchberger")],
            "groebner.Submodule.groebner": [(groebner.Submodule, "groebner")],
            CONTAINS: [(groebner.GroebnerBasis, "contains")],
            "idealops.saturate": [(idealops, "saturate"), (frobmod, "saturate")],
            "idealops.colon": [(idealops, "colon")],
            "idealops.intersect": [(idealops, "intersect")],
            "idealops.hilbert_series": [(idealops, "hilbert_series")],
            "idealops.colength_difference": [(idealops, "colength_difference"), (frobmod, "colength_difference")],
            "idealops.RingSpec.validate": [(idealops.RingSpec, "validate")],
            "frobmod.frobenius_pullback": [(frobmod, "frobenius_pullback")],
            "frobmod.ghk_value": [(frobmod, "ghk_value")],
            "frobmod.hk_value": [(frobmod, "hk_value"), (cli, "hk_value")],
            "fitlab.prime_sweep": [(cli, "prime_sweep")],
            "fitlab.estimate_multiplicity": [(fitlab, "estimate_multiplicity"), (cli, "estimate_multiplicity")],
            "fitlab.fit_report": [(cli, "fit_report")],
            "fitlab.gamma_analysis": [(fitlab, "gamma_analysis"), (cli, "gamma_analysis")],
            CLI: [(cli, "main")],
        }
        for name, places in targets.items():
            owner, attr = places[0]
            traced = self.wrap(getattr(owner, attr), name)
            for owner, attr in places:
                setattr(owner, attr, traced)

    def add_burst(self, start: float, end: float) -> None:
        stack = self._stack
        self.bursts.append([start, end, stack[-1] if stack else -1])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "bursts": self.bursts}, fh)


def layer_metrics(trace: dict) -> dict:
    """Per-layer counts and self times (seconds) of one traced CLI call,
    from what Tracer.dump wrote."""
    spans = trace["spans"]
    self_s: dict = {}
    calls: dict = {}
    for name, start, end, parent, _key, _size in spans:
        self_s[name] = self_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            pname = spans[parent][0]
            self_s[pname] = self_s.get(pname, 0.0) - (end - start)
    for start, end, parent in trace["bursts"]:
        if parent >= 0:
            pname = spans[parent][0]
            self_s[pname] -= end - start

    def total(names) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    # an entry into the Groebner layer: a call not made from inside it
    entries = sum(
        1
        for name, _s, _e, parent, _k, _z in spans
        if name in GROEBNER and (parent < 0 or spans[parent][0] not in GROEBNER)
    )
    sizes = {key: size for name, _s, _e, _p, key, size in spans if name in GROEBNER}
    built = len(sizes)
    return {
        "groebner.self_s": (total(GROEBNER), "s"),
        "groebner.calls": (entries, "count"),
        "groebner.bases_built": (built, "count"),
        "groebner.cache_hit_ratio": (1 - built / entries if entries else 0.0, "fraction"),
        "groebner.basis_size_sum": (sum(sizes.values()), "count"),
        "groebner.basis_size_max": (max(sizes.values(), default=0), "count"),
        "groebner.contains.calls": (calls.get(CONTAINS, 0), "count"),
        "groebner.contains.self_s": (total([CONTAINS]), "s"),
        "idealops.self_s": (total(IDEALOPS), "s"),
        "idealops.saturate.calls": (calls.get("idealops.saturate", 0), "count"),
        "idealops.saturate.self_s": (total(["idealops.saturate"]), "s"),
        "idealops.colon.calls": (calls.get("idealops.colon", 0), "count"),
        "idealops.intersect.calls": (calls.get("idealops.intersect", 0), "count"),
        "idealops.hilbert_series.self_s": (total(["idealops.hilbert_series"]), "s"),
        "idealops.colength.self_s": (total(["idealops.colength_difference"]), "s"),
        "idealops.validate.calls": (calls.get("idealops.RingSpec.validate", 0), "count"),
        "frobmod.self_s": (total(FROBMOD), "s"),
        "frobmod.pullback.calls": (calls.get("frobmod.frobenius_pullback", 0), "count"),
        "frobmod.ghk_value.calls": (calls.get("frobmod.ghk_value", 0), "count"),
        "frobmod.hk_value.calls": (calls.get("frobmod.hk_value", 0), "count"),
        "fitlab.self_s": (total(FITLAB), "s"),
        "cli.self_s": (total([CLI]), "s"),
    }
