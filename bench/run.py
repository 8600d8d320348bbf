"""ghk benchmark: closed-loop, one client, one CLI call at a time.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each call runs `ghk.cli.main([...,'--jobs','1'])` in a fresh interpreter
(bench/child.py) on one of the workload's problem files for the seed,
so set-up time and peak memory belong to that call alone. Calls cycle
through the problem files back to back, never two at once, until the
next one would end past S seconds. Every call passes the workload's
correctness gate or counts as failed.

--trace 0 reports the end-to-end metrics wall_s, setup_s, peak_rss_mb:
for each problem the median over its calls, then the mean over the
problems. --trace 1 alternates untraced and traced calls and reports
the per-layer metrics of the traced ones, plus the tracing overhead
(traced minus untraced wall time); it also prints the end-to-end
figures of its untraced calls for reading.

Times are reported in reference seconds: each call's measured seconds
times REFERENCE_BURST_S over that call's median burst time (see
child.py). On an idle machine the two agree; under other tenants' load
the measured figures swing by up to a factor of two within minutes
while the reference figures stay within a few percent. The
human-readable lines also give the seconds as measured.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. With --workload all, every workload runs in turn for S seconds
and metric names are prefixed with the workload name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# no call starts after this many seconds of a run, and none outlives it,
# so a run ends well within 180 s even when a call hangs
RUN_LIMIT_S = 150
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
# child.py's burst takes this long when the machine runs Python at full
# speed (2-vCPU Xeon VM, CPython 3.11.7, no other load); reported times
# are scaled to that speed
REFERENCE_BURST_S = 0.00075
# calls import ghk from cached bytecode, as an installed package does,
# whatever the caller's environment says
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def tail_percentile(values: list):
    """(percentile, value) of the highest percentile that has at least
    ten samples beyond it, or None with fewer than eleven samples."""
    k = len(values) - 10
    if k < 1:
        return None
    return 100 * k / len(values), sorted(values)[k - 1]


def report_digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def call(workload, problem: Path, outdir: Path, spans: Path | None, timeout: float) -> tuple:
    """One CLI call in a fresh interpreter: (child result or None, gate errors)."""
    args = [
        sys.executable,
        str(BENCH / "child.py"),
        str(SRC),
        str(spans) if spans else "-",
        str(problem),
        "--out",
        str(outdir),
        "--jobs",
        "1",
        *workload.cli_flags,
    ]
    try:
        proc = subprocess.run(
            args, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, [f"call still running after {timeout:.0f} s"]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, [f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    if result["error"]:
        return result, [f"ghk.cli.main raised {result['error']}"]
    if result["exit_code"] != 0:
        return result, [f"exit code {result['exit_code']}: {proc.stderr.strip()[-500:]}"]
    try:
        return result, workload.check(outdir)
    except (OSError, KeyError, TypeError, ValueError) as ex:
        return result, [f"unreadable reports: {ex!r}"]


def normalised(result: dict) -> dict:
    """One call's end-to-end figures, times in reference seconds."""
    speed = REFERENCE_BURST_S / result["burst_s"]
    return {
        "wall_s": result["wall_s"] * speed,
        "setup_s": result["setup_s"] * speed,
        "peak_rss_mb": result["peak_rss_mb"],
        "raw_wall_s": result["wall_s"],
        "raw_setup_s": result["setup_s"],
        "speed": speed,
    }


def _mean_of_medians(per_problem: list, value) -> float:
    """Mean over the problems of the median of value(call) over each
    problem's calls."""
    return statistics.fmean(statistics.median(map(value, calls)) for calls in per_problem)


def _counts(layers: dict) -> dict:
    return {k: v for k, (v, unit) in layers.items() if unit == "count"}


class Run:
    """The calls of one workload at one seed, and their gate outcomes.

    The calls cycle through the workload's problems (in trace mode one
    untraced and one traced call per problem in turn). A metric is the
    mean over the problems of its median over that problem's calls, so
    every run weighs each problem alike however many calls it fits.
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.problems = workload.problems(seed)
        n = len(self.problems)
        self.untraced = [[] for _ in range(n)]  # normalised() per call, per problem
        self.traced = [[] for _ in range(n)]  # (normalised(), layer metrics) per call
        self.digests = [None] * n
        self.attempted = 0
        self.failed = 0

    def measure(self, seconds: float, trace: bool, rundir: Path) -> None:
        paths = []
        for i, problem in enumerate(self.problems):
            paths.append(rundir / f"problem{i}.json")
            paths[-1].write_text(json.dumps(problem, indent=2))
        deadline = time.perf_counter() + RUN_LIMIT_S
        # compile ghk's bytecode before timing: users do not pay it per run
        warm = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import ghk.cli"],
            cwd=ROOT,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=RUN_LIMIT_S,
        )
        if warm.returncode != 0:
            self.attempted, self.failed = 1, 1
            print(f"FAIL {self.workload.name}: cannot import ghk: {warm.stderr.strip()[-500:]}", file=sys.stderr)
            return
        start = time.perf_counter()
        durations = []
        while True:
            k = self.attempted
            traced = trace and k % 2 == 1
            i = (k // 2 if trace else k) % len(self.problems)
            outdir = rundir / f"call{k}"
            spans = rundir / f"spans{k}.json" if traced else None
            began = time.perf_counter()
            result, errors = call(self.workload, paths[i], outdir, spans, deadline - began)
            durations.append(time.perf_counter() - began)
            self.attempted += 1
            if not errors:
                digest = report_digest(outdir)
                self.digests[i] = self.digests[i] or digest
                if digest != self.digests[i]:
                    errors = ["reports differ from an earlier call's on the same problem"]
            if errors:
                self.failed += 1
                for err in errors:
                    print(f"FAIL {self.workload.name} seed {self.seed} problem {i}: {err}", file=sys.stderr)
            if result is not None:
                sample = normalised(result)
                if traced:
                    layers = layer_metrics(json.loads(spans.read_text()))
                    layers = {
                        name: (v * sample["speed"] if unit == "s" else v, unit)
                        for name, (v, unit) in layers.items()
                    }
                    seen = self.traced[i]
                    if seen and _counts(layers) != _counts(seen[0][1]):
                        print(
                            f"WARNING {self.workload.name} problem {i}: work counters differ between traced calls",
                            file=sys.stderr,
                        )
                    seen.append((sample, layers))
                else:
                    self.untraced[i].append(sample)
            shutil.rmtree(outdir, ignore_errors=True)
            if spans is not None:
                spans.unlink(missing_ok=True)
            if result is None:
                break  # the interpreter itself failed; repeating cannot help
            elapsed = time.perf_counter() - start
            if time.perf_counter() >= deadline or (
                self.complete(trace) and elapsed + max(durations[-2:]) > seconds
            ):
                break

    def complete(self, trace: bool) -> bool:
        """Every problem has an untraced call, and a traced one if tracing."""
        return all(self.untraced) and (not trace or all(self.traced))

    def end_to_end(self) -> dict:
        return {
            name: (_mean_of_medians(self.untraced, lambda s: s[name]), unit)
            for name, unit in END_TO_END
        }

    def per_layer(self) -> dict:
        out = {}
        for name, (_v, unit) in self.traced[0][0][1].items():
            if unit == "count":  # repeats exactly between calls on one problem
                value = statistics.fmean(calls[0][1][name][0] for calls in self.traced)
            else:
                value = _mean_of_medians(self.traced, lambda c: c[1][name][0])
            out[name] = (value, unit)
        traced_wall = _mean_of_medians(self.traced, lambda c: c[0]["wall_s"])
        out["trace.overhead_s"] = (traced_wall - self.end_to_end()["wall_s"][0], "s")
        return out

    def print_summary(self) -> None:
        print(
            f"{self.workload.name} seed {self.seed}: {self.attempted} calls on "
            f"{len(self.problems)} problems ({sum(map(len, self.traced))} traced), "
            f"{self.failed} failed, fail_rate {self.failed / self.attempted:.4f} fraction"
        )
        if not all(self.untraced):
            return
        pooled = [s for calls in self.untraced for s in calls]
        speed = statistics.median(s["speed"] for s in pooled)
        print(f"  machine speed: median {speed:.4f} of reference")
        for metric, (value, unit) in self.end_to_end().items():
            values = [s[metric] for s in pooled]
            tail = tail_percentile(values)
            tail_text = f"; all calls p{tail[0]:.0f} {tail[1]:.6g} {unit}" if tail else ""
            raw = ""
            if f"raw_{metric}" in pooled[0]:
                raw_median = statistics.median(s[f"raw_{metric}"] for s in pooled)
                raw = f"; as measured, all calls median {raw_median:.6g} {unit}"
            print(f"  {metric}: {value:.6g} {unit} (n={len(values)}){tail_text}{raw}")
        if all(self.traced):
            for metric, (value, unit) in self.per_layer().items():
                print(f"  {metric}: {value:.6g} {unit}")


def run_workload(workload, seed: int, seconds: float, trace: bool) -> Run:
    run = Run(workload, seed)
    rundir = OUT / f"{workload.name}-seed{seed}-{time.time_ns()}"
    rundir.mkdir(parents=True)
    try:
        run.measure(seconds, trace, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    run.print_summary()
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ghk" / "__init__.py").is_file():
        print(f"no ghk sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [
        run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names
    ]
    if not all(r.complete(bool(args.trace)) for r in runs):
        print("some problem has no completed call; no metrics to report", file=sys.stderr)
        return 1
    metrics = {}
    for run in runs:
        values = run.per_layer() if args.trace else run.end_to_end()
        prefix = f"{run.workload.name}." if args.workload == "all" else ""
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r.failed for r in runs)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r.attempted for r in runs),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
