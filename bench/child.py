"""One measured ghk CLI call in a fresh interpreter.

    python3 child.py SRC_DIR SPANS_PATH|- CLI_ARG...

Imports ghk from SRC_DIR (timed: the set-up cost), optionally installs
the tracer (when SPANS_PATH is not "-"), runs ghk.cli.main(CLI_ARG...)
once (timed: the wall time) and prints, as its last stdout line, a JSON
object with setup_s, wall_s, burst_s, peak_rss_mb, the exit code and,
when the call raised, the error.

Other tenants of a shared machine change how fast it runs Python by up
to a factor of two, from one tenth of a second to the next. So a
SpeedSampler runs a fixed burst of pure-Python work every 50 ms all
through the import and the call, from a SIGALRM handler. burst_s is the
median burst time, the machine's speed during this call; setup_s and
wall_s leave out the time spent in bursts.
"""

import json
import resource
import signal
import statistics
import sys
import time

BURST_ITERATIONS = 4000
SAMPLE_INTERVAL_S = 0.05


def _burst() -> None:
    """The engine's kind of work: tuple keys, dict updates, small ints."""
    table = {}
    for i in range(BURST_ITERATIONS):
        key = ((i * 7919) % 211, i & 7)
        table[key] = table.get(key, 0) + i


class SpeedSampler:
    """Times a burst on every tick of a 50 ms interval timer while active."""

    def __init__(self):
        self.bursts = []  # (start, end)
        self.on_burst = None  # called with (start, end) after each burst

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _burst()
        end = time.perf_counter()
        self.bursts.append((start, end))
        if self.on_burst is not None:
            self.on_burst(start, end)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def busy_s(self, start: float, end: float) -> float:
        """Time spent in bursts between start and end."""
        return sum(e - s for s, e in self.bursts if start <= s and e <= end)


def main() -> None:
    src, spans_path, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    sampler = SpeedSampler()
    sampler.sample()  # so that even the shortest call has samples
    tracer = None
    error = None
    code = None
    with sampler:
        import_start = time.perf_counter()
        import ghk.cli

        import_end = time.perf_counter()
        if spans_path != "-":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            sampler.on_burst = tracer.add_burst
        start = time.perf_counter()
        try:
            code = ghk.cli.main(cli_args)
        except Exception as ex:  # a raised call is a failed run, not a crash of the benchmark
            error = f"{type(ex).__name__}: {ex}"
        end = time.perf_counter()
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sampler.sample()
    if tracer is not None:
        tracer.dump(spans_path)
    result = {
        "setup_s": import_end - import_start - sampler.busy_s(import_start, import_end),
        "wall_s": end - start - sampler.busy_s(start, end),
        "burst_s": statistics.median(e - s for s, e in sampler.bursts),
        "peak_rss_mb": peak_rss_mb,
        "exit_code": code,
        "error": error,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
