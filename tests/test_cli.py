"""End-to-end tests of the command-line front end.

All invocations go through cli.main(argv) in-process; outputs land in
tmp_path so every test sees a fresh directory.
"""

import copy
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghk.cli import COMMANDS, PROBLEM_SCHEMA, _faults, _is_negative_number, _rejection, main

SRC = Path(__file__).resolve().parent.parent / "src"

FERMAT_RING = {
    "prime": 7,
    "variables": ["x", "y", "z"],
    "relations": ["x^3 + y^3 + z^3"],
}


def write_problem(tmp_path, problem, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(problem))
    return str(path)


def run(tmp_path, problem, *extra):
    path = write_problem(tmp_path, problem)
    out = tmp_path / "out"
    return main([path, "--out", str(out), *extra]), out


# ---------------------------------------------------------------------------
# validation and exit codes


def test_missing_file_exits_2(tmp_path, capsys):
    assert main([str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main([str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_schema_violation_is_path_addressed(tmp_path, capsys):
    problem = {
        "ring": FERMAT_RING,
        "module": {"ideal": ["x"], "presentation": {}},
        "task": {"command": "ghk"},
    }
    assert main([write_problem(tmp_path, problem)]) == 2
    err = capsys.readouterr().err
    assert "module" in err


def test_problem_schema_is_valid():
    # the program never runs jsonschema: its walker reads PROBLEM_SCHEMA
    # unchecked, so the metaschema check lives here
    jsonschema.validators.validator_for(PROBLEM_SCHEMA).check_schema(PROBLEM_SCHEMA)


@pytest.mark.parametrize(
    "problem",
    [
        {"ring": FERMAT_RING, "module": {"ideal": ["x"], "presentation": {}}},
        {"ring": {"prime": 1, "variables": []}},
        {"ring": FERMAT_RING, "task": {"command": "ghk", "jobs": 0}, "extra": 1},
        [],
        # task.method is no longer a key: one saturation route
        {"ring": FERMAT_RING, "module": {"ideal": ["z", "x + y"]}, "task": {"command": "ghk", "method": "colon"}},
    ],
)
def test_schema_errors_match_jsonschema_validate(tmp_path, capsys, problem):
    with pytest.raises(jsonschema.ValidationError) as info:
        jsonschema.validate(problem, PROBLEM_SCHEMA)
    ex = info.value
    where = "/".join(str(k) for k in ex.absolute_path) or "(top level)"
    assert main([write_problem(tmp_path, problem)]) == 2
    assert capsys.readouterr().err == f"problem file invalid at {where}: {ex.message}\n"


def _point_problem(**task):
    return {
        "ring": {"prime": 5, "variables": ["x", "y", "z"], "relations": ["x^3 + y^3 + z^3"]},
        "module": {"ideal": ["z", "x + y"]},
        "task": {"command": "ghk", "e_max": 1, **task},
    }


@pytest.mark.parametrize(
    "problem, fault",
    [
        ({**_point_problem(), "ring": {**FERMAT_RING, "prime": 7.0}}, "ring/prime: 7.0"),
        (_point_problem(e_max=2.0), "task/e_max: 2.0"),
        (_point_problem(jobs=1.0), "task/jobs: 1.0"),
        (_point_problem(budget={"max_degree": 3.0}), "task/budget/max_degree: 3.0"),
        (
            {
                **_point_problem(),
                "module": {
                    "presentation": {"row_twists": [0], "col_twists": [1.0], "columns": [["x"]]}
                },
            },
            "module/presentation/col_twists/0: 1.0",
        ),
    ],
)
def test_integral_float_is_not_an_integer(tmp_path, capsys, problem, fault):
    # JSON Schema would take 2.0 as an integer; no float may reach a report
    code, out = run(tmp_path, problem)
    assert code == 2
    assert capsys.readouterr().err == f"problem file invalid at {fault} is not of type 'integer'\n"
    assert not out.exists()


# valid problems to mutate: one per bench workload, and the README example
# with every key of task set
VALID_PROBLEMS = [
    {
        "ring": {"primes": [5, 7], "variables": ["x", "y", "z"], "relations": ["x^3 + y^3 - 2*z^3"]},
        "module": {"ideal": ["x - y", "y - z"]},
        "task": {"command": "sweep", "e_max": 2},
    },
    {
        "ring": {"prime": 19, "variables": ["x", "y", "z"], "relations": ["x^3 + y^3 + z^3"]},
        "module": {"ideal": ["x", "y", "z"]},
        "task": {"command": "hk", "e_max": 2},
    },
    {
        "ring": {"prime": 13, "variables": ["x", "y", "z"], "relations": ["x^3 + y^3 + z^3"]},
        "module": {
            "presentation": {
                "row_twists": [0, 1],
                "col_twists": [1, 1, 2, 2],
                "columns": [["z", "0"], ["x + y", "0"], ["0", "z"], ["0", "x + y"]],
            }
        },
        "task": {"command": "ghk", "e_max": 1, "e_exact": "8/3"},
    },
    {
        "ring": {"prime": 7, "primes": [5, 7], **FERMAT_RING},
        "module": {"ideal": ["z", "3*x - y"]},
        "closed_form": {"kind": "point", "degY": 3},
        "task": {
            "command": "ghk",
            "e_max": 2,
            "e_exact": "4/3",
            "gamma_bound": 10,
            "primes": [5, 7],
            "denominators": [3],
            "budget": {"max_degree": 40, "max_pairs": 100000},
            "jobs": 1,
            "out": "results",
        },
    },
]

REPLACEMENTS = [None, True, False, 2.0, 1.0, -1, 0, "", [], {}]
DELETE = object()


def _nodes(node, path=()):
    """(path, node) for node and every value inside it."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


# keys to add to an object: an unknown one, or any key and value a valid
# problem holds (say a second kind of module)
GRAFTS = [("unknown", 1)] + [
    item
    for problem in VALID_PROBLEMS
    for _path, node in _nodes(problem)
    if isinstance(node, dict)
    for item in node.items()
]


def _single_mutations(problem):
    """(path, value): put value at path, or delete what is there if DELETE."""
    for path, node in _nodes(problem):
        yield from ((path, value) for value in REPLACEMENTS)
        if path:
            yield path, DELETE
        if isinstance(node, dict):
            yield from ((path, {**node, key: value}) for key, value in GRAFTS)


def _apply(problem, path, value):
    if not path:
        return copy.deepcopy(value)
    problem = copy.deepcopy(problem)
    parent = problem
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return problem


@st.composite
def mutated_problems(draw):
    problem = draw(st.sampled_from(VALID_PROBLEMS))
    for _ in range(draw(st.integers(1, 3))):
        problem = _apply(problem, *draw(st.sampled_from(list(_single_mutations(problem)))))
    return problem


@pytest.mark.parametrize("problem", VALID_PROBLEMS)
def test_valid_problems_conform(problem):
    assert _rejection(problem) is None


# the oracle of the walker: jsonschema's draft 2020-12 validator with
# integers restricted to JSON integers, as the walker reads them
_STANDARD = jsonschema.validators.validator_for(PROBLEM_SCHEMA)
STRICT = jsonschema.validators.extend(
    _STANDARD,
    type_checker=_STANDARD.TYPE_CHECKER.redefine(
        "integer", lambda _checker, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)(PROBLEM_SCHEMA)


def _strict_rejection(problem):
    """The line main should print for problem, worded by jsonschema."""
    ex = jsonschema.exceptions.best_match(STRICT.iter_errors(problem))
    if ex is None:
        return None
    where = "/".join(str(k) for k in ex.absolute_path) or "(top level)"
    return f"problem file invalid at {where}: {ex.message}"


def test_schema_walk_agrees_with_jsonschema_on_every_single_mutation():
    for base in VALID_PROBLEMS:
        for path, value in _single_mutations(base):
            problem = _apply(base, path, value)
            assert _rejection(problem) == _strict_rejection(problem), problem


@settings(max_examples=150, deadline=None)
@given(mutated_problems())
def test_schema_walk_agrees_with_jsonschema(problem):
    assert _rejection(problem) == _strict_rejection(problem)


@pytest.mark.parametrize(
    "problem",
    [
        # several extra keys, not in sorted order
        {"ring": FERMAT_RING, "zeta": 1, "alpha": 2, "mid": 3},
        {"ring": {**FERMAT_RING, "z": 0, "a": 0}, "task": {"jobs": 0}},
        # several faults at one path, and siblings at the same depth
        {"ring": {"prime": 1, "primes": [], "variables": [""]}, "task": {"e_max": 0, "jobs": 0}},
        {"module": {}, "task": {"command": "nope"}},
    ],
)
def test_schema_walk_words_several_faults_as_jsonschema_does(problem):
    assert _rejection(problem) == _strict_rejection(problem)


@pytest.mark.parametrize(
    "problem, fault",
    [
        ({"ring": {**FERMAT_RING, "prime": 1.0}}, "ring/prime"),
        ({"ring": {**FERMAT_RING, "primes": [1.0]}}, "ring/primes/0"),
        (_point_problem(primes=[1.0]), "task/primes/0"),
    ],
)
def test_integral_float_below_minimum_is_worded_as_not_an_integer(tmp_path, capsys, problem, fault):
    # the draft would read 1.0 as an integer and word the minimum first;
    # with JSON integers only, the type fault comes first in schema order
    assert main([write_problem(tmp_path, problem)]) == 2
    assert capsys.readouterr().err == f"problem file invalid at {fault}: 1.0 is not of type 'integer'\n"


@pytest.mark.parametrize(
    "schema",
    [
        {"properties": {"out": {"type": "string", "pattern": "^r"}}},
        {"additionalProperties": True},
        {"properties": {"out": {"additionalProperties": {"type": "string"}}}},
    ],
)
def test_schema_walk_rejects_rules_it_does_not_know(schema):
    # _faults is a generator: the rule is met only when the walk is consumed
    with pytest.raises(ValueError, match="not supported"):
        list(_faults({"out": "results"}, schema))


def test_valid_run_never_imports_jsonschema(tmp_path):
    # a fresh interpreter: this test module has imported jsonschema itself.
    # dataclasses (and the inspect it imports) would double the start-up
    # of every CLI call, and argparse (with the gettext and locale it
    # imports) would cost half of what is left; no path, a rejected problem
    # included, needs jsonschema
    good = write_problem(tmp_path, _point_problem(), "good.json")
    bad = write_problem(tmp_path, _point_problem(jobs=0), "bad.json")
    script = (
        "import sys\n"
        "from ghk.cli import main\n"
        "absent = ('jsonschema', 'argparse', 'gettext', 'locale')\n"
        f"code = main([{good!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, *(m in sys.modules for m in ('dataclasses', 'inspect')))\n"
        "print(code, *(m in sys.modules for m in absent))\n"
        f"code = main([{bad!r}])\n"
        "print(code, *(m in sys.modules for m in absent))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == [
        "0 False False",
        "0 False False False False",
        "2 False False False False",
    ]
    assert proc.stderr == "problem file invalid at task/jobs: 0 is less than the minimum of 1\n"


def test_unknown_command_in_file_exits_2(tmp_path):
    problem = {"ring": FERMAT_RING, "task": {"command": "frobenius"}}
    assert main([write_problem(tmp_path, problem)]) == 2


def test_no_command_anywhere_exits_2(tmp_path, capsys):
    problem = {"ring": FERMAT_RING}
    assert main([write_problem(tmp_path, problem)]) == 2
    assert "task.command" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--budget-pairs", "0"),
        ("--budget-pairs", "-1"),
        ("--budget-gb-degree", "0"),
        ("--jobs", "0"),
        ("--jobs", "-2"),
    ],
)
def test_count_flags_below_one_exit_2(tmp_path, capsys, flag, value):
    # the problem file's schema requires minimum 1 for the same keys
    problem = {
        "ring": FERMAT_RING,
        "module": {"ideal": ["x"]},
        "task": {"command": "ghk", "e_max": 1},
    }
    with pytest.raises(SystemExit) as ex:
        run(tmp_path, problem, flag, value)
    assert ex.value.code == 2
    assert "N >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


FLAGS = ("-h", "--help", "--task", "--out", "--budget-gb-degree", "--budget-pairs", "--jobs")


@pytest.mark.parametrize(
    "argv, outcome",
    [
        (["--help"], "help"),
        (["-h", "{file}", "--frobenius"], "help"),
        (["{file}", "--out={out}", "--jobs=2"], "run"),
        (["--jobs", "2", "--out", "{out}", "{file}"], "run"),
        # a repeated flag: the last one wins
        (["--out", "{tmp}/elsewhere", "{file}", "--out={out}"], "run"),
        (["--out={out}", "--", "{file}"], "run"),
        (["{file}", "--out", "{out}", "--frobenius"], "usage"),
        (["{file}", "--out", "{out}", "--jobs"], "usage"),
        (["{file}", "--jobs", "--out", "{out}"], "usage"),
        (["{file}", "--out", "{out}", "--task", "frobenius"], "usage"),
        (["--out", "{out}"], "usage"),
        (["{file}", "{file}", "--out", "{out}"], "usage"),
        (["{file}", "--out", "{out}", "--jobs", "x"], "usage"),
    ],
    ids=[
        "help",
        "help-first",
        "equals-form",
        "options-first",
        "last-wins",
        "double-dash",
        "unknown-flag",
        "missing-value",
        "flag-as-value",
        "bad-task",
        "no-file",
        "two-files",
        "jobs-not-int",
    ],
)
def test_argv_forms_and_faults(tmp_path, capsys, argv, outcome):
    # the command line as a caller sees it: help on stdout with exit 0, a
    # run, or a usage line and exit 2 before anything is written
    path = write_problem(tmp_path, _point_problem())
    out = tmp_path / "out"
    argv = [arg.format(file=path, out=out, tmp=tmp_path) for arg in argv]
    if outcome == "run":
        assert main(argv) == 0
        assert (out / "ghk-report.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "problem.json"]
        return
    with pytest.raises(SystemExit) as ex:
        main(argv)
    captured = capsys.readouterr()
    if outcome == "help":
        assert ex.value.code == 0
        assert captured.err == ""
        assert all(word in captured.out for word in FLAGS + COMMANDS)
    else:
        assert ex.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: ghk ")
        assert "ghk: error: " in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="-.0123456789x\u0663\u00b2 ", max_size=6))
def test_negative_numbers_are_read_as_the_argument_parser_reads_them(token):
    # the standard library's parser tells a negative number from a flag by
    # this pattern; the CLI reads it with str methods
    assert _is_negative_number(token) == bool(re.fullmatch(r"-\d+|-\d*\.\d+", token))


def test_long_flags_are_spelled_out(tmp_path, capsys):
    # on purpose: an abbreviation would change meaning the day a second
    # flag starts with the same letters
    with pytest.raises(SystemExit) as ex:
        run(tmp_path, _point_problem(), "--jo", "2")
    assert ex.value.code == 2
    assert capsys.readouterr().err.endswith("ghk: error: unrecognized arguments: --jo 2\n")
    assert not (tmp_path / "out").exists()


def test_command_needing_single_prime_rejects_prime_list(tmp_path, capsys):
    problem = {
        "ring": {"primes": [5, 7], "variables": ["x", "y"], "relations": []},
        "module": {"ideal": ["x"]},
        "task": {"command": "ghk"},
    }
    assert main([write_problem(tmp_path, problem)]) == 2
    assert "ring.prime" in capsys.readouterr().err


def test_module_section_required_for_ghk(tmp_path, capsys):
    problem = {"ring": FERMAT_RING, "task": {"command": "ghk"}}
    assert main([write_problem(tmp_path, problem)]) == 2
    assert "module" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check-ring


def test_check_ring_fermat_cubic(tmp_path, capsys):
    problem = {"ring": FERMAT_RING, "task": {"command": "check-ring"}}
    code, out = run(tmp_path, problem)
    assert code == 0
    report = json.loads((out / "check-ring-report.json").read_text())
    rr = report["ring_report"]
    assert rr["dimension"] == 2
    assert rr["degree"] == 3
    assert rr["smooth"] is True
    assert rr["ok"] is True
    # reproducibility header: the resolved problem rides along
    assert report["problem"] == problem
    assert "dimension 2" in capsys.readouterr().out


def test_check_ring_singular_curve_exits_2(tmp_path):
    problem = {
        "ring": {"prime": 3, "variables": ["x", "y", "z"], "relations": ["x^3 + y^3 + z^3"]},
        "task": {"command": "check-ring"},
    }
    code, out = run(tmp_path, problem)
    assert code == 2
    report = json.loads((out / "check-ring-report.json").read_text())
    assert report["ring_report"]["ok"] is False
    assert report["ring_report"]["warnings"]


def test_task_flag_overrides_file_command(tmp_path):
    problem = {"ring": FERMAT_RING, "task": {"command": "ghk"}}
    code, out = run(tmp_path, problem, "--task", "check-ring")
    assert code == 0
    assert (out / "check-ring-report.json").exists()
    assert not (out / "ghk-report.json").exists()


# ---------------------------------------------------------------------------
# ghk


def test_ghk_principal_ideal_all_rows_zero(tmp_path):
    problem = {
        "ring": FERMAT_RING,
        "module": {"ideal": ["x"]},
        "task": {"command": "ghk", "e_max": 3},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    csv = (out / "ghk-table.csv").read_text()
    assert csv == "e,q,length\n1,7,0\n2,49,0\n3,343,0\n"
    report = json.loads((out / "ghk-report.json").read_text())
    assert [row["length"] for row in report["table"]["rows"]] == [0, 0, 0]
    assert report["fit"]["estimate"] == "0"


def test_ghk_point_ideal_with_closed_form(tmp_path, capsys):
    problem = {
        "ring": FERMAT_RING,
        "module": {"ideal": ["z", "3*x - y"]},
        "closed_form": {"kind": "point", "degY": 3},
        "task": {"command": "ghk", "e_max": 2},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    csv = (out / "ghk-table.csv").read_text()
    assert csv == "e,q,length\n1,7,64\n2,49,3200\n"
    report = json.loads((out / "ghk-report.json").read_text())
    assert report["closed_form_value"] == "4/3"
    # gamma measured against the exact value, not the two-point estimate
    fit = report["fit"]
    assert fit["estimate"] == "4/3"
    assert fit["max_abs_gamma"] == "4/3"
    plot = (out / "ghk-plot.csv").read_text().splitlines()
    assert plot[0] == "e,q,length,e_q2,gamma"
    assert plot[1] == "1,7,64,196/3,-4/3"
    assert "estimate: 4/3" in capsys.readouterr().out


def test_ghk_presentation_route_matches_ideal_route(tmp_path):
    via_ideal = {
        "ring": FERMAT_RING,
        "module": {"ideal": ["x"]},
        "task": {"command": "ghk", "e_max": 2},
    }
    via_pres = {
        "ring": FERMAT_RING,
        "module": {
            "presentation": {
                "row_twists": [0],
                "col_twists": [1],
                "columns": [["x"]],
            }
        },
        "task": {"command": "ghk", "e_max": 2},
    }
    code1, out1 = run(tmp_path, via_ideal)
    path2 = write_problem(tmp_path, via_pres, name="problem2.json")
    out2 = tmp_path / "out2"
    code2 = main([path2, "--out", str(out2)])
    assert code1 == code2 == 0
    assert (out1 / "ghk-table.csv").read_text() == (out2 / "ghk-table.csv").read_text()


def test_ghk_budget_exhaustion_exits_3_with_partial_output(tmp_path, capsys):
    problem = {
        "ring": FERMAT_RING,
        "module": {"ideal": ["z", "3*x - y"]},
        "task": {"command": "ghk", "e_max": 2},
    }
    code, out = run(tmp_path, problem, "--budget-gb-degree", "30")
    assert code == 3
    # e=1 fits under the budget, e=2 does not; the table still ships
    csv = (out / "ghk-table.csv").read_text()
    assert csv == "e,q,length\n1,7,64\n"
    report = json.loads((out / "ghk-report.json").read_text())
    assert len(report["table"]["skipped"]) == 1
    assert "skipped" in capsys.readouterr().out


def test_ghk_e_exact_in_task(tmp_path):
    problem = {
        "ring": FERMAT_RING,
        "module": {"ideal": ["z", "3*x - y"]},
        "task": {"command": "ghk", "e_max": 1, "e_exact": "4/3"},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    report = json.loads((out / "ghk-report.json").read_text())
    assert report["closed_form_value"] == "4/3"
    assert report["fit"]["gamma"][0]["gamma"] == "-4/3"


# ---------------------------------------------------------------------------
# hk


def test_hk_irrelevant_ideal(tmp_path):
    problem = {
        "ring": FERMAT_RING,
        "module": {"ideal": ["x", "y", "z"]},
        "task": {"command": "hk", "e_max": 1},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    assert (out / "hk-table.csv").read_text() == "e,q,length\n1,7,109\n"
    report = json.loads((out / "hk-report.json").read_text())
    assert report["table"]["rows"][0]["length"] == 109
    assert "estimate" not in report  # one row is not enough for a fit


def test_hk_budget_exhaustion_exits_3_with_partial_output(tmp_path, capsys):
    problem = {
        "ring": FERMAT_RING,
        "module": {"ideal": ["x", "y", "z"]},
        "task": {"command": "hk", "e_max": 2},
    }
    code, out = run(tmp_path, problem, "--budget-gb-degree", "30")
    assert code == 3
    # e=1 fits under the budget, e=2 does not; the finished row still ships
    assert (out / "hk-table.csv").read_text() == "e,q,length\n1,7,109\n"
    report = json.loads((out / "hk-report.json").read_text())
    assert report["table"]["rows"] == [{"e": 1, "q": 7, "length": 109}]
    assert [s["e"] for s in report["table"]["skipped"]] == [2]
    assert "e=2 skipped" in capsys.readouterr().out


def test_hk_error_bound_uses_gamma_bound(tmp_path):
    # with |gamma| <= G the bound is 2G/(q2^2 - q1^2) = 2*1000/(25^2 - 5^2)
    problem = {
        "ring": {**FERMAT_RING, "prime": 5},
        "module": {"ideal": ["x", "y", "z"]},
        "task": {"command": "hk", "e_max": 2, "gamma_bound": 1000},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    report = json.loads((out / "hk-report.json").read_text())
    assert report["estimate_error_bound"] == "10/3"


@pytest.mark.parametrize(
    "command, extra",
    [("ghk", {}), ("gamma", {"e_exact": "4/3"}), ("hk", {})],
)
def test_tables_run_in_one_process_under_jobs(tmp_path, monkeypatch, capsys, command, extra):
    # --jobs sets a sweep's workers only: the rows of a table run in this
    # process, so with the pool refused two jobs still write the same bytes
    # and stdout as one, a budget-skipped row included
    import concurrent.futures

    def refused(*args, **kwargs):
        raise AssertionError("a length table started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
    problem = {
        "ring": FERMAT_RING,
        "module": {"ideal": ["x", "y", "z"] if command == "hk" else ["z", "3*x - y"]},
        "task": {"command": command, "e_max": 2, **extra},
    }
    path = write_problem(tmp_path, problem)
    outs, stdouts = [], []
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        assert main([path, "--out", str(out), "--budget-gb-degree", "30", "--jobs", jobs]) == 3
        outs.append(out)
        stdouts.append(capsys.readouterr().out.replace(str(out), "OUT"))
    assert stdouts[0] == stdouts[1]
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report = json.loads((outs[1] / f"{command}-report.json").read_text())
    assert [row["e"] for row in report["table"]["skipped"]] == [2]


def test_hk_requires_ideal_not_presentation(tmp_path, capsys):
    problem = {
        "ring": FERMAT_RING,
        "module": {
            "presentation": {"row_twists": [0], "col_twists": [1], "columns": [["x"]]}
        },
        "task": {"command": "hk", "e_max": 1},
    }
    assert main([write_problem(tmp_path, problem)]) == 2
    assert "module.ideal" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# closed-form


def test_closed_form_point(tmp_path, capsys):
    problem = {
        "ring": FERMAT_RING,
        "closed_form": {"kind": "point", "degY": 3},
        "task": {"command": "closed-form"},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    report = json.loads((out / "closed-form-report.json").read_text())
    assert report["value"] == "4/3"
    assert report["warnings"] == []
    assert "4/3" in capsys.readouterr().out


def test_closed_form_two_generated(tmp_path):
    problem = {
        "ring": FERMAT_RING,
        "closed_form": {"kind": "two_generated", "a": 1, "b": 1, "d": -1, "degY": 3},
        "task": {"command": "closed-form"},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    report = json.loads((out / "closed-form-report.json").read_text())
    assert report["value"] == "4/3"


def test_closed_form_general_from_filtration_data(tmp_path):
    # rank-one syzygy of the point ideal; quotient sheaf has slope d = -1
    problem = {
        "ring": FERMAT_RING,
        "closed_form": {
            "kind": "general",
            "syzygy": {"quotients": [[1, "-5"]], "degY": 3},
            "quotient": {"quotients": [[1, "-1"]], "degY": 3},
            "twists": [1, 1],
            "degY": 3,
        },
        "task": {"command": "closed-form"},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    report = json.loads((out / "closed-form-report.json").read_text())
    assert report["value"] == "4/3"
    assert report["detail"]["mu_syzygy"] == "25"


@pytest.mark.parametrize(
    "section, value, quotients",
    [
        ({"kind": "rank1_syzygy", "a": 1, "b": 1, "d": -1, "degY": 3}, "25", [[1, "-5"]]),
        # O(-1)^2 + O(-2) on the cubic: slopes -3 and -6, 2*3^2 + 6^2
        (
            {"kind": "sum_line_bundles", "pairs": [[1, 2], [2, 1]], "degY": 3},
            "54",
            [[2, "-3"], [1, "-6"]],
        ),
    ],
    ids=["rank1_syzygy", "sum_line_bundles"],
)
def test_closed_form_reports_the_filtration(tmp_path, section, value, quotients):
    problem = {"ring": FERMAT_RING, "closed_form": section, "task": {"command": "closed-form"}}
    code, out = run(tmp_path, problem)
    assert code == 0
    report = json.loads((out / "closed-form-report.json").read_text())
    assert report["value"] == value
    assert report["detail"]["filtration"]["quotients"] == quotients


def test_closed_form_general_without_syzygy_exits_2(tmp_path, capsys):
    problem = {
        "ring": FERMAT_RING,
        "closed_form": {"kind": "general", "twists": [1, 1], "degY": 3},
        "task": {"command": "closed-form"},
    }
    code, out = run(tmp_path, problem)
    assert code == 2
    assert capsys.readouterr().err == "error: closed_form section incomplete or inconsistent: KeyError('syzygy')\n"
    assert not (out / "closed-form-report.json").exists()


def test_closed_form_classical_warns_below_one(tmp_path):
    problem = {
        "ring": FERMAT_RING,
        "closed_form": {
            "kind": "classical",
            "syzygy": {"quotients": [[2, "-1"]], "degY": 3},
            "twists": [1, 1],
        },
        "task": {"command": "closed-form"},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    report = json.loads((out / "closed-form-report.json").read_text())
    assert report["value"] == "-8/3"
    assert report["warnings"]


@pytest.mark.parametrize(
    "section",
    [
        {"kind": "two_generated", "a": 1.9, "b": 1, "d": -1, "degY": 3.7},
        {"kind": "sum_line_bundles", "pairs": [[1, 2.5]], "degY": 3},
        {"kind": "point", "degY": True},
    ],
)
def test_closed_form_refuses_non_integer_inputs(tmp_path, capsys, section):
    # each of these used to be truncated by int() into a wrong value
    problem = {"ring": FERMAT_RING, "closed_form": section, "task": {"command": "closed-form"}}
    code, out = run(tmp_path, problem)
    assert code == 2
    assert "must be an int, got" in capsys.readouterr().err
    assert not (out / "closed-form-report.json").exists()


def test_closed_form_section_required(tmp_path, capsys):
    problem = {"ring": FERMAT_RING, "task": {"command": "closed-form"}}
    assert main([write_problem(tmp_path, problem)]) == 2
    assert "closed_form" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gamma


def test_gamma_with_exact_value(tmp_path, capsys):
    problem = {
        "ring": FERMAT_RING,
        "module": {"ideal": ["z", "3*x - y"]},
        "task": {"command": "gamma", "e_max": 2, "e_exact": "4/3"},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    plot = (out / "gamma-plot.csv").read_text().splitlines()
    assert plot[0] == "e,q,length,e_q2,gamma"
    assert plot[1:] == ["1,7,64,196/3,-4/3", "2,49,3200,9604/3,-4/3"]
    report = json.loads((out / "gamma-report.json").read_text())
    assert report["fit"]["periodicity"] == "insufficient-data"
    assert "max |gamma| = 4/3" in capsys.readouterr().out


def test_gamma_takes_exact_value_from_closed_form_section(tmp_path):
    problem = {
        "ring": FERMAT_RING,
        "module": {"ideal": ["z", "3*x - y"]},
        "closed_form": {"kind": "point", "degY": 3},
        "task": {"command": "gamma", "e_max": 1},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    report = json.loads((out / "gamma-report.json").read_text())
    assert report["fit"]["gamma"][0]["gamma"] == "-4/3"


def test_gamma_without_exact_value_exits_2(tmp_path, capsys):
    problem = {
        "ring": FERMAT_RING,
        "module": {"ideal": ["z", "3*x - y"]},
        "task": {"command": "gamma", "e_max": 1},
    }
    assert main([write_problem(tmp_path, problem)]) == 2
    assert "e_exact" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_prime(tmp_path, capsys):
    problem = {
        "ring": {
            "primes": [5],
            "variables": ["x", "y", "z"],
            "relations": ["x^3 + y^3 - 2*z^3"],
        },
        "module": {"ideal": ["x - y", "y - z"]},
        "task": {"command": "sweep", "e_max": 2},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    report = json.loads((out / "sweep-report.json").read_text())
    rows = report["sweep"]["rows"]
    assert len(rows) == 1
    assert rows[0]["p"] == 5
    assert rows[0]["validated"] is True
    assert rows[0]["estimate"] == "4/3"
    csv = (out / "sweep-summary.csv").read_text()
    assert csv.splitlines()[0] == "p,validated,estimate,reason"
    assert csv.splitlines()[1] == "5,true,4/3,"
    assert "p=5: ok estimate=4/3" in capsys.readouterr().out


def test_sweep_falls_back_to_the_ring_prime(tmp_path):
    problem = {
        "ring": {"prime": 7, "variables": ["x", "y", "z"], "relations": ["x^3 + y^3 - 2*z^3"]},
        "module": {"ideal": ["x - y", "y - z"]},
        "task": {"command": "sweep", "e_max": 1},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    report = json.loads((out / "sweep-report.json").read_text())
    assert [row["p"] for row in report["sweep"]["rows"]] == [7]


def test_sweep_flags_bad_primes_without_failing(tmp_path):
    problem = {
        "ring": {
            "primes": [3, 9],
            "variables": ["x", "y", "z"],
            "relations": ["x^3 + y^3 - 2*z^3"],
        },
        "module": {"ideal": ["x - y", "y - z"]},
        "task": {"command": "sweep", "e_max": 1},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    report = json.loads((out / "sweep-report.json").read_text())
    rows = {row["p"]: row for row in report["sweep"]["rows"]}
    assert rows[9]["validated"] is False and "prime" in rows[9]["reason"]
    assert rows[3]["validated"] is False  # curve degenerates in char 3


def test_sweep_budget_trouble_exits_3(tmp_path):
    problem = {
        "ring": {
            "primes": [5],
            "variables": ["x", "y", "z"],
            "relations": ["x^3 + y^3 - 2*z^3"],
        },
        "module": {"ideal": ["x - y", "y - z"]},
        "task": {"command": "sweep", "e_max": 2, "budget": {"max_degree": 4}},
    }
    code, out = run(tmp_path, problem)
    assert code == 3
    assert (out / "sweep-report.json").exists()


PSI_13 = 3317044064679887385961981


@pytest.mark.parametrize("big", [2305843009213693951, 18446744073709551629, PSI_13])
def test_sweep_flags_primes_past_the_exponent_cap_or_psi_13(tmp_path, big):
    # primes past EXP_CAP = 2^20 have no packed Frobenius power: the
    # centre search refuses them before it builds anything (it once
    # died here with MemoryError at 2^61 - 1 and OverflowError past 2^64),
    # and is_prime decides nothing from psi_13 on. Either flags the prime's
    # row, and the sweep keeps the rows of the good primes
    problem = {
        "ring": {"primes": [5, big], "variables": ["x", "y", "z"], "relations": ["x^3 + y^3 - 2*z^3"]},
        "module": {"ideal": ["x - y", "y - z"]},
        "task": {"command": "sweep", "e_max": 2},
    }
    path = write_problem(tmp_path, problem)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "ghk.cli", path, "--out", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    report = json.loads((tmp_path / "out" / "sweep-report.json").read_text())
    good, flagged = report["sweep"]["rows"]
    assert good["p"] == 5 and good["validated"] is True and good["estimate"] == "4/3"
    assert [row["length"] for row in good["table"]["rows"]] == [32, 832]
    if big < PSI_13:
        reason = f"characteristic {big} exceeds the supported cap 1048576 of a Frobenius power"
    else:
        reason = f"primality of {big} is undecided: the bases are exact below psi_13"
    assert flagged == {
        "p": big, "validated": False, "reason": reason,
        "estimate": None, "error_bound": None, "table": None,
    }
    assert report["sweep"]["top_half_primes"] == [5]


def test_sweep_needs_primes(tmp_path, capsys):
    problem = {
        "ring": {"variables": ["x", "y"], "relations": []},
        "module": {"ideal": ["x"]},
        "task": {"command": "sweep"},
    }
    assert main([write_problem(tmp_path, problem)]) == 2
    assert "primes" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output discipline


def test_outputs_are_bit_stable(tmp_path):
    problem = {
        "ring": FERMAT_RING,
        "module": {"ideal": ["x"]},
        "closed_form": {"kind": "point", "degY": 3},
        "task": {"command": "ghk", "e_max": 1},
    }
    path = write_problem(tmp_path, problem)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([path, "--out", str(out1)]) == 0
    assert main([path, "--out", str(out2)]) == 0
    for name in ("ghk-table.csv", "ghk-plot.csv", "ghk-report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_out_flag_beats_task_out(tmp_path):
    problem = {
        "ring": FERMAT_RING,
        "task": {"command": "check-ring", "out": str(tmp_path / "from-task")},
    }
    code, out = run(tmp_path, problem)
    assert code == 0
    assert (out / "check-ring-report.json").exists()
    assert not (tmp_path / "from-task").exists()


def test_task_out_used_without_flag(tmp_path):
    dest = tmp_path / "from-task"
    problem = {
        "ring": FERMAT_RING,
        "task": {"command": "check-ring", "out": str(dest)},
    }
    assert main([write_problem(tmp_path, problem)]) == 0
    assert (dest / "check-ring-report.json").exists()


# every key whose value is an exact rational; a FitReport's "gamma" is
# the list of its rows, each of which has a rational "gamma"
RATIONAL_KEYS = {
    "estimate", "error_bound", "spread", "closed_form_value", "value", "gamma",
    "max_abs_gamma", "mu_syzygy", "mu_quotient", "estimate_error_bound",
}

POLICY_PROBLEMS = [
    ({"ring": FERMAT_RING, "task": {"command": "check-ring"}}, (), 0),
    ({"ring": {**FERMAT_RING, "prime": 3}, "task": {"command": "check-ring"}}, (), 2),
    *(
        ({"ring": FERMAT_RING, "closed_form": section, "task": {"command": "closed-form"}}, (), 0)
        for section in (
            {"kind": "point", "degY": 3},
            {"kind": "two_generated", "a": 1, "b": 1, "d": -1, "degY": 3},
            {
                "kind": "general",
                "syzygy": {"quotients": [[1, "-5"]], "degY": 3},
                "quotient": {"quotients": [[1, "-1"]], "degY": 3},
                "twists": [1, 1],
            },
            {"kind": "classical", "syzygy": {"quotients": [[2, "-9/2"]], "degY": 3}, "twists": [1, 1, 1]},
            {"kind": "sum_line_bundles", "pairs": [[1, 2], [2, 1]], "degY": 3},
            {"kind": "rank1_syzygy", "a": 1, "b": 1, "d": -1, "degY": 3},
        )
    ),
    ({"ring": FERMAT_RING, "module": {"ideal": ["z", "3*x - y"]}, "task": {"command": "ghk", "e_max": 2}}, (), 0),
    ({"ring": FERMAT_RING, "module": {"ideal": ["z", "3*x - y"]}, "task": {"command": "ghk", "e_max": 1}}, (), 0),
    (
        {
            "ring": FERMAT_RING,
            "module": {"ideal": ["z", "3*x - y"]},
            "closed_form": {"kind": "point", "degY": 3},
            "task": {"command": "ghk", "e_max": 1},
        },
        (),
        0,
    ),
    (
        {
            "ring": FERMAT_RING,
            "module": {"ideal": ["z", "3*x - y"]},
            "closed_form": {"kind": "point", "degY": 3},
            "task": {"command": "ghk", "e_max": 2},
        },
        ("--budget-gb-degree", "30"),
        3,
    ),
    (
        {
            "ring": FERMAT_RING,
            "module": {"ideal": ["z", "3*x - y"]},
            "task": {"command": "gamma", "e_max": 2, "e_exact": "4/3"},
        },
        (),
        0,
    ),
    (
        {
            "ring": {**FERMAT_RING, "prime": 5},
            "module": {"ideal": ["x", "y", "z"]},
            "task": {"command": "hk", "e_max": 2},
        },
        (),
        0,
    ),
    (
        {
            "ring": {"primes": [3, 5, 9], "variables": ["x", "y", "z"], "relations": ["x^3 + y^3 - 2*z^3"]},
            "module": {"ideal": ["x - y", "y - z"]},
            "task": {"command": "sweep", "e_max": 2},
        },
        (),
        0,
    ),
]


def test_every_report_writes_rationals_as_strings(tmp_path):
    # one rule renders every report (arith.json_form): an exact rational
    # is a "num/den" string, so an int slipping into a Rat field would
    # show up here as a number
    seen = set()

    def walk(node, key=None):
        assert not isinstance(node, float), key
        if key in RATIONAL_KEYS and not isinstance(node, list):
            assert node is None or isinstance(node, str), (key, node)
            if node is not None:
                Fraction(node)  # raises unless the string names a rational
            seen.add(key)
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    for n, (problem, flags, status) in enumerate(POLICY_PROBLEMS):
        out = tmp_path / f"out{n}"
        assert main([write_problem(tmp_path, problem, f"p{n}.json"), "--out", str(out), *flags]) == status
        reports = list(out.glob("*.json"))
        assert len(reports) == 1
        walk(json.loads(reports[0].read_text()))
    assert seen == RATIONAL_KEYS
