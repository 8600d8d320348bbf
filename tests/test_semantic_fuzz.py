"""Schema-valid problems built from values at the edges of what the
program accepts, run through cli.main in-process.

The schema walk is checked against jsonschema in test_cli.py; this file
checks what a problem that passes the walk does. Every run must end in
one of the documented exit statuses, 0, 2 or 3, and a refusal (status
2) must be one `error:` line on stderr, except check-ring's failing
report, which is a report. A traceback or any other status is a fault.

Primes above 7 are kept to values the program refuses before any
computation, and a generator's degree times 7^e_max is capped, so that
no valid run is long.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghk.arith import EXP_CAP
from ghk.cli import COMMANDS, _rejection, main

PSI_13 = 3317044064679887385961981
# each boundary with its neighbours: the exponent cap, the least
# pseudoprime the primality test cannot decide, and 2^63; and a
# composite, the first prime past the cap and 2^61 - 1
EDGE_PRIMES = [9, 1048583, (1 << 61) - 1] + [
    b + d for b in (EXP_CAP, PSI_13, 1 << 63) for d in (-1, 0, 1)
]
# as often a small prime, which runs, as a value at an edge
PRIMES = st.one_of(st.sampled_from([2, 3, 5, 7]), st.sampled_from(EDGE_PRIMES))
RINGS = [
    (["x", "y", "z"], ["x^3 + y^3 + z^3"]),  # smooth, singular in characteristic 3
    (["x", "y", "z"], ["x^2*y + y^2*z + z^2*x"]),  # its centre is shifted
    (["x", "y", "z"], ["x^2*z - y^3"]),  # a cusp
    (["x", "y", "z"], ["x*y*z"]),  # three lines
    (["x", "y", "z"], ["x^3"]),  # a triple line, not reduced
    (["x", "y", "z"], ["x^3 + y"]),  # not homogeneous
    (["x", "y", "z"], []),  # dimension 3
    (["x", "y", "z"], ["x", "y"]),  # dimension 1
    (["x", "y"], []),
    (["x", "y"], ["x*y"]),  # dimension 1
]
# generator -> its degree; a zero or a unit takes degree 0
GENERATORS = {
    "0": 0,
    "1": 0,
    "x": 1,
    "z": 1,
    "x + y": 1,
    "y - z": 1,
    "x^2 + y*z": 2,
    "y^9": 9,
    "z^12": 12,
}
# the degree d * q of a generator's Frobenius power stays at most this
# for q = 7^e_max; past it a run on the Klein cubic takes seconds (the
# principal ideal (z^12) at q = 49, for one)
MAX_PULLED_BACK_DEGREE = 100
# sections the schema passes that lack a key their kind needs, or hold a
# value of the wrong shape
MALFORMED_CLOSED_FORMS = [
    {"kind": "general", "twists": [1, 1], "degY": 3},
    {"kind": "classical", "syzygy": {"quotients": [[2, -2]], "degY": 3}, "twists": 5},
    {"kind": "classical", "syzygy": {"quotients": [[1]], "degY": 3}, "twists": [1, 1]},
    {"kind": "sum_line_bundles", "pairs": [[1]], "degY": 3},
    {"kind": "point"},
]
CLOSED_FORMS = [
    {"kind": "point", "degY": 3},
    {"kind": "point", "degY": 0},
    {"kind": "two_generated", "a": 1, "b": 1, "d": -1, "degY": 3},
    {"kind": "two_generated", "a": 0, "b": 1, "d": 5, "degY": 3},
    {"kind": "rank1_syzygy", "a": 1, "b": 2, "d": 1, "degY": 3},
    {"kind": "sum_line_bundles", "pairs": [[-1, 1], [-2, 1]], "degY": 3},
    {"kind": "sum_line_bundles", "pairs": [[-1, 1], [-1, 1]], "degY": 3},
    {
        "kind": "general",
        "syzygy": {"quotients": [[1, "-3/2"]], "degY": 3},
        "twists": [1, 1],
        "quotient": {"quotients": [[1, -1]], "degY": 3},
        "degY": 3,
    },
    {
        "kind": "classical",
        "syzygy": {"quotients": [[2, -2]], "degY": 3},
        "twists": [1, 1, 1],
        "degY": 3,
    },
    {"kind": "classical", "syzygy": {"quotients": [[1, 0], [1, 1]], "degY": 3}, "twists": [1]},
    *MALFORMED_CLOSED_FORMS,
]
RATIONALS = ["4/3", "8/3", 0, "1/0", "x"]


@st.composite
def problems(draw):
    """A schema-valid problem from the pools above."""
    variables, relations = draw(st.sampled_from(RINGS))
    ring = {"variables": variables, "relations": relations, "prime": draw(PRIMES)}
    if draw(st.booleans()):
        ring["primes"] = draw(st.lists(PRIMES, min_size=1, max_size=2))
    problem = {"ring": ring}
    e_max = draw(st.integers(1, 2))
    pool = sorted(g for g, d in GENERATORS.items() if d * 7**e_max <= MAX_PULLED_BACK_DEGREE)
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    if draw(st.booleans()):
        problem["module"] = {"ideal": gens}
    else:
        # one row; each column's twist is its generator's degree, or one more
        twists = [GENERATORS[g] + draw(st.integers(0, 1)) for g in gens]
        problem["module"] = {
            "presentation": {"row_twists": [0], "col_twists": twists, "columns": [[g] for g in gens]}
        }
    if draw(st.booleans()):
        problem["closed_form"] = draw(st.sampled_from(CLOSED_FORMS))
    task = {"command": draw(st.sampled_from(COMMANDS)), "e_max": e_max}
    if draw(st.booleans()):
        task["budget"] = {"max_pairs": draw(st.sampled_from([1, 5, 50]))}
    if draw(st.booleans()):
        task["e_exact"] = draw(st.sampled_from(RATIONALS))
    if draw(st.booleans()):
        task["gamma_bound"] = draw(st.sampled_from(RATIONALS))
    if draw(st.booleans()):
        task["denominators"] = draw(st.sampled_from([[3], [0], [-1]]))
    problem["task"] = task
    return problem


def _run(problem: dict) -> tuple:
    """(exit status, stdout, stderr) of cli.main on problem."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(problem))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(path), "--out", str(Path(tmp) / "out")])
    return code, out.getvalue(), err.getvalue()


def _ghk_over_f7(relation: str, gens: list) -> dict:
    return {
        "ring": {"prime": 7, "variables": ["x", "y", "z"], "relations": [relation]},
        "module": {"ideal": gens},
        "task": {"command": "ghk", "e_max": 1},
    }


@settings(max_examples=200, deadline=None)
@given(problems())
# a fibre power 1200 degrees past the border: the coordinates of z^1200
# recursed once per degree, and the run ended in a RecursionError traceback
@example(_ghk_over_f7("x^3 + y^3 + z^3", ["z^1200", "x + y"]))
# the Klein cubic's centre sends y to y + z; pulling back y^40 expanded
# 2^40 products
@example(_ghk_over_f7("x^2*y + y^2*z + z^2*x", ["y^40", "x"]))
def test_schema_valid_problems_exit_with_a_documented_status(problem):
    assert _rejection(problem) is None
    code, out, err = _run(problem)
    assert code in (0, 2, 3), (code, err)
    if code == 2 and problem["task"]["command"] == "check-ring" and "validation FAILED" in out:
        assert err == ""
    elif code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("section", MALFORMED_CLOSED_FORMS)
def test_a_malformed_closed_form_section_is_one_error_line(section):
    problem = {
        "ring": {"prime": 7, "variables": ["x", "y", "z"], "relations": ["x^3 + y^3 + z^3"]},
        "closed_form": section,
        "task": {"command": "closed-form"},
    }
    code, _out, err = _run(problem)
    assert code == 2
    assert err.startswith("error: closed_form section incomplete or inconsistent: ")
    assert err.count("\n") == 1
