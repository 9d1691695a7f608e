"""Run one slat benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload ext-random --seed 0 --seconds 10 --trace 0

The library is imported from ``src/`` next to this directory.  With
``--trace 0`` the cases run with tracing off and the end-to-end metrics
are printed; with ``--trace 1`` a fixed number of cases runs untraced
and then again traced, and the per-layer metrics are printed.  Times and
``--seconds`` are CPU seconds of the process.  Output checks run after
the timed phase.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it repeat every metric with its unit and describe the inputs.
Workload sizes and the metric-to-layer map live in ``spec.json``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import WINDOW, SpeedLog

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((BENCH / "spec.json").read_text())
SPANS_DIR = BENCH / "out"
SETUP_REPEATS = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# Every time is CPU time of the benchmark process (CLOCK_PROCESS_CPUTIME_ID),
# so time the process spends waiting for a core does not count.  The end-to-end
# times are then scaled to a reference machine speed: the timed phase by the
# probes of speed.py, set-up by the process's own start-up time (see main).
clock = time.process_time


def import_slat() -> float:
    """Import the library from this checkout's src/; returns the seconds."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = clock()
    try:
        import slat
        from slat import conlat, corpus, expr, freedist, freepairs, pairs, suite  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import slat from {src}: {exc}")
    took = clock() - start
    if Path(slat.__file__).resolve().parent != src.resolve() / "slat":
        sys.exit(f"bench: imported slat from {slat.__file__}, not from {src}")
    return took


def clear_memo_tables():
    """Empty every lru_cache of the library, so a build starts cold."""
    from slat import conlat, corpus, freedist

    from layertrace import memo_table

    for module in (freedist, conlat, corpus):
        for fn in vars(module).values():
            table = memo_table(fn)
            if table is not None:
                table.cache_clear()


def setup_seconds(workload, seed, size, first):
    """Scaled CPU seconds from process start to the end of set-up:
    ``first`` from this process, and one more from each of SETUP_REPEATS - 1
    fresh processes that start, import the library, build the inputs and
    exit.  Each fresh process pays the whole import, so a heavier import
    shows."""
    out = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--size", size, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.exit(f"bench: set-up process exited {proc.returncode}: {proc.stderr[-500:]}")
        out.append(float(proc.stdout.split()[-1]))
    return out


@dataclass
class Phase:
    speed: SpeedLog
    cases: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    stretch_of: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    raw_seconds: float = 0.0  # CPU time of the loop, probes left out
    seconds: float = 0.0  # the same at the reference speed
    stated_size_s: float = 0.0  # scaled seconds to the end of case min_cases
    stated_size_rss_mb: float = 0.0

    def scaled_latencies(self) -> list:
        return [t * self.speed.factor(j) for t, j in zip(self.latencies, self.stretch_of)]


def timed_phase(wl, state, seconds, min_cases, max_cases=None, tracer=None) -> Phase:
    """Run cases one at a time until ``seconds`` of CPU time have passed
    and at least ``min_cases`` are done, or exactly ``max_cases`` when
    given.  Speed probes run between cases, outside every case's time."""
    ph = Phase(SpeedLog(SPEC["reference_probe_s"], clock))
    ph.speed.probe(WINDOW)
    raw = 0.0  # CPU time of the loop up to the last probe
    stated = None
    cases = wl.cases(state)
    for i in itertools.count():
        if max_cases is not None:
            if i >= max_cases:
                break
        elif i >= min_cases and raw + clock() - ph.speed.starts[-1] >= seconds:
            break
        case = next(cases)
        t0 = clock()
        try:
            if tracer is None:
                out = wl.run_case(state, case)
            else:
                tracer.case = i
                with tracer.span("case"):
                    out = wl.run_case(state, case)
        except Exception as exc:  # a failed case is counted, not fatal
            out = None
            ph.errors[i] = f"{type(exc).__name__}: {exc}"
        end = clock()
        ph.latencies.append(end - t0)
        ph.stretch_of.append(ph.speed.stretch)
        ph.cases.append(case)
        ph.outputs.append(out)
        if i + 1 == min_cases:
            stated = (ph.speed.stretch, end)
            ph.stated_size_rss_mb = peak_rss_mb()
        if ph.speed.due():
            raw += clock() - ph.speed.starts[-1]
            ph.speed.probe()
    last = ph.speed.stretch
    ph.speed.probe(WINDOW)
    ph.raw_seconds = raw + ph.speed.stretches[last]
    ph.seconds = ph.speed.scaled(last + 1, ph.speed.starts[last + 1])
    if stated is None:
        ph.stated_size_s, ph.stated_size_rss_mb = ph.seconds, peak_rss_mb()
    else:
        ph.stated_size_s = ph.speed.scaled(*stated)
    return ph


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def check(wl, state, ph):
    res = wl.check(state, ph.cases, ph.outputs)
    res.failed.update(ph.errors)
    for i, err in sorted(ph.errors.items())[:5]:
        res.notes.append(f"FAIL case {i} raised {err}")
    return res


def report(name, seed, mode, ph, res, metrics, units):
    """Human-readable lines, then the JSON result as the last line."""
    print(f"workload {name} seed {seed} {mode}")
    for note in res.notes:
        print(f"check {note}")
    attempted = len(ph.outputs)
    failed = len(res.failed)
    print(f"failed_frac {failed / max(attempted, 1):.6f} ratio ({failed} of {attempted} cases)")
    for key, value in metrics.items():
        print(f"metric {key} {value:.9g} {units[key]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def run_untraced(wl, state, seconds, setups):
    gc.collect()
    min_cases = wl.min_cases(state)
    ph = timed_phase(wl, state, seconds, min_cases)
    res = check(wl, state, ph)
    setup_s = statistics.median(setups)
    lat_ms = [t * 1e3 for t in ph.scaled_latencies()]
    metrics = {
        "setup_s": setup_s,
        "wall_s": setup_s + ph.stated_size_s,
        "cases_per_s": len(lat_ms) / ph.seconds,
        "case_p50_ms": statistics.median(lat_ms),
        "case_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": ph.stated_size_rss_mb,
    }
    res.notes.append(
        f"set-up seconds {' '.join(f'{t:.4f}' for t in setups)} (this process first); "
        f"stated size {min_cases} cases; {len(lat_ms)} latency samples, "
        f"{sum(t > metrics['case_p90_ms'] for t in lat_ms)} beyond p90"
    )
    res.notes.append(
        f"timed phase {ph.raw_seconds:.3f} CPU s unscaled, {ph.seconds:.3f} s scaled "
        f"by {len(ph.speed.probes)} probes"
    )
    return ph, res, metrics, END_TO_END_UNITS


def run_traced(wl, state, size, seed, import_s):
    from layertrace import GcWatch, Tracer, cache_snapshot, layer_metrics, metric_names

    count = size["trace_cases"]
    gc.collect()
    with GcWatch() as gc_watch:
        plain = timed_phase(wl, state, 0, 0, max_cases=count)
    clear_memo_tables()
    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            state = wl.setup(seed, size)
        before = cache_snapshot()
        ph = timed_phase(wl, state, 0, 0, max_cases=count, tracer=tracer)
        after = cache_snapshot()
    finally:
        tracer.uninstall()
    res = check(wl, state, ph)
    metrics = layer_metrics(
        tracer, before, after, import_s, gc_watch, ph.seconds / plain.seconds
    )
    top = sorted((k for k in metrics if k.endswith(".self_s")), key=metrics.get, reverse=True)[:3]
    res.notes.append("largest self_s: " + ", ".join(f"{k} {metrics[k]:.4f} s" for k in top))
    path = SPANS_DIR / f"{wl.name}-seed{seed}.spans.tsv.gz"
    tracer.write(path)
    res.notes.append(
        f"{count} cases untraced {plain.seconds:.3f} s, traced {ph.seconds:.3f} s; "
        f"{len(tracer.span_start)} spans written to {path.relative_to(ROOT)}"
    )
    units = {name: unit for name, unit, _ in metric_names()}
    return ph, res, metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few small cases, for the self-check")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the scaled set-up seconds and exit")
    args = parser.parse_args(argv)
    # Start-up so far (interpreter, the benchmark's own stdlib imports) is
    # work the library cannot change, so it serves as the probe for set-up.
    started = clock()
    import_s = import_slat()
    from workloads import WORKLOADS

    spec = SPEC["workloads"][args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed
    size = spec["sizes"][args.size]
    wl = WORKLOADS[args.workload]
    state = wl.setup(seed, size)
    setup_s = clock() * SPEC["reference_startup_s"] / started
    if args.setup_only:
        print(f"{setup_s:.9f}")
        return 0
    if args.trace:
        ph, res, metrics, units = run_traced(wl, state, size, seed, import_s)
    else:
        setups = setup_seconds(args.workload, seed, args.size, setup_s)
        ph, res, metrics, units = run_untraced(wl, state, args.seconds, setups)
    mode = f"trace {args.trace} size {args.size}"
    report(args.workload, seed, mode, ph, res, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
