"""Command-line front end: JSON problem files in, reports out.

Every JSON report embeds the resolved problem description, uses sorted
keys, writes rationals as "num/den" strings, and contains no timestamps
or machine identifiers, so reruns on identical input are bit-identical.

A problem file is checked by walking PROBLEM_SCHEMA, the one description
of a valid problem, as JSON Schema draft 2020-12 reads it, except that an
integer field takes JSON integers only (2.0 is rejected). The same walk
both decides and words a rejection, in jsonschema's words and choosing the
fault its best_match would, so the program never imports jsonschema.
Because integers are strict throughout, an integral float that breaks a
second rule is worded as a type fault: 1.0 under a minimum of 2 reads
"1.0 is not of type 'integer'", not "is less than the minimum of 2".
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
import warnings
from pathlib import Path

from .arith import as_rat, rat_str
from .errors import (
    BudgetExceededError,
    GhkError,
    GhkHypothesisWarning,
)
from .fitlab import (
    FamilySpec,
    estimate_multiplicity,
    fit_report,
    gamma_analysis,
    prime_sweep,
)
from .frobmod import (
    Presentation,
    _length_table,
    ghk_table,
    hk_value,
    presentation_of_quotient,
)
from .groebner import GbBudget, ModVector
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
from .idealops import RingSpec

COMMANDS = ("check-ring", "ghk", "hk", "closed-form", "gamma", "sweep")

PROBLEM_SCHEMA = {
    "type": "object",
    "required": ["ring"],
    "additionalProperties": False,
    "properties": {
        "ring": {
            "type": "object",
            "required": ["variables"],
            "additionalProperties": False,
            "properties": {
                "prime": {"type": "integer", "minimum": 2},
                "primes": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 2},
                    "minItems": 1,
                },
                "variables": {
                    "type": "array",
                    "items": {"type": "string", "minLength": 1},
                    "minItems": 1,
                },
                "relations": {"type": "array", "items": {"type": "string"}},
            },
        },
        "module": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "ideal": {"type": "array", "items": {"type": "string"}},
                "presentation": {
                    "type": "object",
                    "required": ["row_twists", "col_twists", "columns"],
                    "additionalProperties": False,
                    "properties": {
                        "row_twists": {
                            "type": "array",
                            "items": {"type": "integer"},
                            "minItems": 1,
                        },
                        "col_twists": {"type": "array", "items": {"type": "integer"}},
                        "columns": {
                            "type": "array",
                            "items": {"type": "array", "items": {"type": "string"}},
                        },
                    },
                },
            },
        },
        "closed_form": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {
                    "enum": [
                        "general",
                        "classical",
                        "two_generated",
                        "point",
                        "sum_line_bundles",
                        "rank1_syzygy",
                    ]
                }
            },
        },
        "task": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "command": {"enum": list(COMMANDS)},
                "e_max": {"type": "integer", "minimum": 1},
                "e_exact": {"type": ["string", "integer"]},
                "gamma_bound": {"type": ["string", "integer"]},
                "primes": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 2},
                    "minItems": 1,
                },
                "denominators": {"type": "array", "items": {"type": "integer"}},
                "budget": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "max_degree": {"type": "integer", "minimum": 1},
                        "max_pairs": {"type": "integer", "minimum": 1},
                    },
                },
                "jobs": {"type": "integer", "minimum": 1},
                "out": {"type": "string"},
            },
        },
    },
}


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    # a JSON integer: not a bool, and not an integral float such as 2.0
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
}

# size keyword: (instance type, whether a size meets the bound, the bound
# with a wording of its own, that wording, the wording of any other bound)
_SIZES = {
    "minLength": (str, operator.ge, 1, "should be non-empty", "is too short"),
    "minItems": (list, operator.ge, 1, "should be non-empty", "is too short"),
    "minProperties": (dict, operator.ge, 1, "should be non-empty", "does not have enough properties"),
    "maxProperties": (dict, operator.le, 0, "is expected to be empty", "has too many properties"),
}


def _faults(instance, schema: dict, path: tuple = ()):
    """Each way instance fails schema, as (path, message), read as JSON
    Schema draft 2020-12 with JSON integers only; the order and the words
    are those of jsonschema 4.26's iter_errors.

    Knows exactly the keywords PROBLEM_SCHEMA uses and raises ValueError on
    any other, so the schema cannot grow a rule that is silently ignored.
    As in the draft, each size or bound keyword applies only to instances
    of its own type, and additionalProperties is judged against properties.
    """
    for keyword, value in schema.items():
        if keyword == "type":
            names = [value] if isinstance(value, str) else value
            if not any(_TYPES[name](instance) for name in names):
                yield path, f"{instance!r} is not of type {', '.join(map(repr, names))}"
        elif keyword == "enum":
            if not any(type(instance) is type(v) and instance == v for v in value):
                yield path, f"{instance!r} is not one of {value!r}"
        elif keyword == "minimum":
            number = isinstance(instance, (int, float)) and not isinstance(instance, bool)
            if number and instance < value:
                yield path, f"{instance!r} is less than the minimum of {value!r}"
        elif keyword in _SIZES:
            kind, meets, edge, at_edge, beyond = _SIZES[keyword]
            if isinstance(instance, kind) and not meets(len(instance), value):
                yield path, f"{instance!r} {at_edge if value == edge else beyond}"
        elif keyword == "items":
            if isinstance(instance, list):
                for index, item in enumerate(instance):
                    yield from _faults(item, value, path + (index,))
        elif keyword == "required":
            if isinstance(instance, dict):
                for key in value:
                    if key not in instance:
                        yield path, f"{key!r} is a required property"
        elif keyword == "properties":
            if isinstance(instance, dict):
                for key, sub in value.items():
                    if key in instance:
                        yield from _faults(instance[key], sub, path + (key,))
        elif keyword == "additionalProperties" and value is False:
            if isinstance(instance, dict):
                known = schema.get("properties", {})
                extras = sorted((k for k in instance if k not in known), key=str)
                if extras:
                    names = ", ".join(map(repr, extras))
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        else:
            raise ValueError(f"schema rule {keyword}: {value!r} is not supported")


def _rejection(problem) -> str | None:
    """The line that rejects problem, or None when it fits PROBLEM_SCHEMA.

    Of several faults it words the one jsonschema's best_match picks: the
    shallowest, then the one with the largest path, then the first found.
    """
    faults = list(_faults(problem, PROBLEM_SCHEMA))
    if not faults:
        return None
    path, message = max(faults, key=lambda fault: (-len(fault[0]), fault[0]))
    where = "/".join(map(str, path)) or "(top level)"
    return f"problem file invalid at {where}: {message}"


class _Cli:
    """One invocation: resolved problem, task options, output directory."""

    def __init__(self, problem: dict, args):
        self.problem = problem
        self.task = dict(problem.get("task", ()))
        self.args = args
        out = args.out or self.task.get("out") or "."
        self.outdir = Path(out)

    # -- resolution helpers

    def budget(self) -> GbBudget | None:
        section = dict(self.task.get("budget", ()))
        max_degree = self.args.budget_gb_degree or section.get("max_degree")
        max_pairs = self.args.budget_pairs or section.get("max_pairs")
        if max_degree is None and max_pairs is None:
            return None
        return GbBudget(max_degree=max_degree, max_pairs=max_pairs)

    def jobs(self) -> int:
        return self.args.jobs or self.task.get("jobs", 1)

    def e_max(self) -> int:
        return self.task.get("e_max", 2)

    def ring_spec(self) -> RingSpec:
        ring = self.problem["ring"]
        if "prime" not in ring:
            raise GhkError("this command needs ring.prime (a single characteristic)")
        return RingSpec(ring["prime"], ring["variables"], ring.get("relations", ()))

    def sweep_primes(self) -> list:
        primes = self.task.get("primes") or self.problem["ring"].get("primes")
        if not primes and "prime" in self.problem["ring"]:
            primes = [self.problem["ring"]["prime"]]
        if not primes:
            raise GhkError("sweep needs ring.primes (or task.primes)")
        return list(primes)

    def module_section(self) -> dict:
        module = self.problem.get("module")
        if not module:
            raise GhkError("this command needs a module section")
        return module

    def presentation(self, rspec: RingSpec) -> Presentation:
        module = self.module_section()
        if "ideal" in module:
            gens = [rspec.parse(g) for g in module["ideal"]]
            return presentation_of_quotient(rspec.ideal(gens), rspec)
        pres = module["presentation"]
        columns = [
            ModVector(tuple(rspec.parse(s) for s in col)) for col in pres["columns"]
        ]
        return Presentation(rspec, pres["row_twists"], pres["col_twists"], columns)

    def ideal_generators(self) -> list:
        module = self.module_section()
        if "ideal" not in module:
            raise GhkError("this command needs module.ideal (generator strings)")
        return list(module["ideal"])

    # -- output helpers

    def write_json(self, name: str, payload: dict) -> Path:
        report = {"command": self.command_name, "problem": self.problem}
        report.update(payload)
        path = self.outdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return path

    def write_text(self, name: str, text: str) -> Path:
        path = self.outdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
        return path

    # -- commands

    def run(self, command: str) -> int:
        self.command_name = command
        handler = {
            "check-ring": self.cmd_check_ring,
            "ghk": self.cmd_ghk,
            "hk": self.cmd_hk,
            "closed-form": self.cmd_closed_form,
            "gamma": self.cmd_gamma,
            "sweep": self.cmd_sweep,
        }[command]
        return handler()

    def cmd_check_ring(self) -> int:
        report = self.ring_spec().validate()
        self.write_json("check-ring-report.json", {"ring_report": report.to_json_dict()})
        degree = "?" if report.degree is None else report.degree
        smooth = "smooth" if report.smooth else "NOT smooth"
        print(
            f"ring: dimension {report.dimension}, degree {degree}, {smooth}"
            + ("" if report.ok else " -- validation FAILED")
        )
        return 0 if report.ok else 2

    def _closed_form_value(self):
        """(value, detail dict, warnings list) from the closed_form section."""
        section = self.problem.get("closed_form")
        if not section:
            raise GhkError("this command needs a closed_form section")
        kind = section["kind"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GhkHypothesisWarning)
            if kind == "general":
                syz = HNData.from_json_obj(section["syzygy"])
                quo = HNData.from_json_obj(section["quotient"])
                value = e_ghk_closed_form(
                    syz, section["twists"], quo, section.get("degY")
                )
                detail = {"kind": kind, "mu_syzygy": rat_str(hk_slope(syz)), "mu_quotient": rat_str(hk_slope(quo))}
            elif kind == "classical":
                syz = HNData.from_json_obj(section["syzygy"])
                value = e_hk_closed_form(syz, section["twists"], section.get("degY"))
                detail = {"kind": kind, "mu_syzygy": rat_str(hk_slope(syz))}
            elif kind == "two_generated":
                value = e_ghk_two_generated(
                    section["a"], section["b"], section["d"], section["degY"]
                )
                detail = {"kind": kind}
            elif kind == "point":
                value = e_ghk_point(section["degY"])
                detail = {"kind": kind}
            elif kind == "sum_line_bundles":
                data = hn_sum_line_bundles(section["pairs"], section["degY"])
                value = hk_slope(data)
                detail = {"kind": kind, "filtration": data.to_json_obj()}
            elif kind == "rank1_syzygy":
                data = hn_rank1_syzygy(
                    section["a"], section["b"], section["d"], section["degY"]
                )
                value = hk_slope(data)
                detail = {"kind": kind, "filtration": data.to_json_obj()}
            else:
                raise GhkError(f"unknown closed-form kind {kind!r}")
        notes = [str(w.message) for w in caught]
        return value, detail, notes

    def cmd_closed_form(self) -> int:
        value, detail, notes = self._closed_form_value()
        self.write_json(
            "closed-form-report.json",
            {"value": rat_str(value), "detail": detail, "warnings": notes},
        )
        print(f"closed form: {rat_str(value)}")
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
        return 0

    def _exact_multiplicity(self):
        """task.e_exact, or the closed_form section when present."""
        if "e_exact" in self.task:
            return as_rat(self.task["e_exact"])
        if self.problem.get("closed_form"):
            value, _detail, _notes = self._closed_form_value()
            return value
        return None

    def cmd_ghk(self) -> int:
        rspec = self.ring_spec()
        P = self.presentation(rspec)
        table = ghk_table(
            P,
            self.e_max(),
            budget=self.budget(),
            jobs=self.jobs(),
        )
        payload = {"table": table.to_json_dict()}
        e_exact = self._exact_multiplicity()
        if e_exact is not None:
            payload["closed_form_value"] = rat_str(e_exact)
        fit = None
        if len(table.rows) >= 2 or (e_exact is not None and table.rows):
            gamma_bound = self.task.get("gamma_bound")
            fit = fit_report(table, e_exact=e_exact, gamma_bound=gamma_bound)
            payload["fit"] = fit.to_json_dict()
        else:
            payload["fit"] = None
        self.write_text("ghk-table.csv", table.to_csv())
        if fit is not None:
            self.write_text("ghk-plot.csv", fit.to_csv())
        self.write_json("ghk-report.json", payload)
        for row in table.rows:
            print(f"e={row.e} q={row.q} length={row.length}")
        for skip in table.skipped:
            print(f"e={skip.e} skipped: {skip.reason}")
        if fit is not None:
            print(f"estimate: {rat_str(fit.estimate)}")
        return 3 if table.skipped else 0

    def cmd_hk(self) -> int:
        rspec = self.ring_spec()
        I = rspec.ideal([rspec.parse(g) for g in self.ideal_generators()])
        label = f"classical R/({', '.join(self.ideal_generators())})"
        # a budget overrun skips its row, as in ghk_table
        table = _length_table(hk_value, I, label, self.e_max(), self.budget(), self.jobs())
        self.write_text("hk-table.csv", table.to_csv())
        payload = {"table": table.to_json_dict()}
        if len(table.rows) >= 2:
            estimate, bound = estimate_multiplicity(table, self.task.get("gamma_bound"))
            payload["estimate"] = rat_str(estimate)
            payload["estimate_error_bound"] = rat_str(bound)
        self.write_json("hk-report.json", payload)
        for row in table.rows:
            print(f"e={row.e} q={row.q} length={row.length}")
        for skip in table.skipped:
            print(f"e={skip.e} skipped: {skip.reason}")
        return 3 if table.skipped else 0

    def cmd_gamma(self) -> int:
        e_exact = self._exact_multiplicity()
        if e_exact is None:
            raise GhkError(
                "gamma needs task.e_exact or a closed_form section supplying the "
                "exact multiplicity"
            )
        rspec = self.ring_spec()
        P = self.presentation(rspec)
        table = ghk_table(
            P,
            self.e_max(),
            budget=self.budget(),
            jobs=self.jobs(),
        )
        report = gamma_analysis(table, e_exact)
        self.write_json(
            "gamma-report.json",
            {"table": table.to_json_dict(), "fit": report.to_json_dict()},
        )
        self.write_text("gamma-plot.csv", report.to_csv())
        print(
            f"max |gamma| = "
            + ("n/a" if report.max_abs_gamma is None else rat_str(report.max_abs_gamma))
            + f"; periodicity: {report.periodicity}"
        )
        return 3 if table.skipped else 0

    def cmd_sweep(self) -> int:
        ring = self.problem["ring"]
        family = FamilySpec(
            variables=tuple(ring["variables"]),
            relations=tuple(ring.get("relations", ())),
            generators=tuple(self.ideal_generators()),
            denominators=tuple(self.task.get("denominators", ())),
        )
        report = prime_sweep(
            family,
            self.sweep_primes(),
            self.e_max(),
            budget=self.budget(),
            jobs=self.jobs(),
        )
        self.write_json("sweep-report.json", {"sweep": report.to_json_dict()})
        self.write_text("sweep-summary.csv", report.to_csv())
        for row in report.rows:
            est = "-" if row.estimate is None else rat_str(row.estimate)
            flag = "ok" if row.validated else f"flagged ({row.reason})"
            print(f"p={row.p}: {flag} estimate={est}")
        spread = "n/a" if report.spread is None else rat_str(report.spread)
        print(f"top-half spread: {spread}")
        return 3 if any(row.table and row.table.skipped for row in report.rows) else 0


def _positive_int(text: str) -> int:
    """argparse type for a count N >= 1, the problem file's minimum."""
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer N >= 1, got {text!r}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghk",
        description=(
            "Exact-arithmetic lengths of Frobenius pullbacks of graded modules "
            "over two-dimensional graded rings, with closed-form cross-checks."
        ),
    )
    parser.add_argument("file", help="JSON problem file")
    parser.add_argument(
        "--task",
        choices=COMMANDS,
        help="command to run (falls back to task.command in the problem file)",
    )
    parser.add_argument("--out", help="output directory (default: task.out or '.')")
    parser.add_argument(
        "--budget-gb-degree",
        type=_positive_int,
        metavar="N",
        help="abort any basis computation beyond this degree",
    )
    parser.add_argument(
        "--budget-pairs",
        type=_positive_int,
        metavar="N",
        help="abort any basis computation beyond this many reduced pairs",
    )
    parser.add_argument(
        "--jobs", type=_positive_int, metavar="N", help="parallel worker processes"
    )
    return parser


# built once, at import: building it is start-up work (its first message
# lookup imports locale), not work of each call
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        text = Path(args.file).read_text()
    except OSError as ex:
        print(f"cannot read problem file: {ex}", file=sys.stderr)
        return 2
    try:
        problem = json.loads(text)
    except json.JSONDecodeError as ex:
        print(f"problem file is not valid JSON: {ex}", file=sys.stderr)
        return 2
    rejection = _rejection(problem)
    if rejection:
        print(rejection, file=sys.stderr)
        return 2

    command = args.task or problem.get("task", {}).get("command")
    if not command:
        print("no command: pass --task or set task.command", file=sys.stderr)
        return 2

    cli = _Cli(problem, args)
    try:
        return cli.run(command)
    except BudgetExceededError as ex:
        print(f"budget exceeded: {ex}", file=sys.stderr)
        return 3
    except GhkError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as ex:
        print(f"problem file incomplete or inconsistent: {ex!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
