"""Self-check of the benchmark at a tiny size.

    python3 bench/selfcheck.py

Runs every workload through run.py at its tiny size, untraced and
traced, and asserts that every metric BENCHMARK.json names is printed
with its unit.  Then corrupts each workload's expected digest or count
in-process, and hides the reference digest file, and asserts that each
shows as failed cases, not as a pass.  Last, runs run.py in a copy
holding only BENCHMARK.json and this directory and asserts that it fails
without printing a result.
Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import BENCH, ROOT, SPEC, SPANS_DIR, clear_memo_tables, import_slat, timed_phase

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(msg):
    sys.exit(f"selfcheck: FAIL {msg}")


def run_tiny(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_printed(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_tiny(workload, trace)
        if proc.returncode != 0:
            fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail(f"{workload} trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            fail(f"{workload} trace {trace}: {lines[-1][:300]}")
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        if printed != declared:
            fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json {key}: "
                 f"{sorted(set(printed) ^ set(declared))}")
        for name, unit in declared.items():
            if not any(ln.startswith(f"metric {name} ") and ln.endswith(f" {unit}") for ln in lines):
                fail(f"{workload} trace {trace}: no 'metric {name} ... {unit}' line")
    print(f"selfcheck: {workload} prints every metric with its unit")


def tiny_run(wl, count=None):
    """The first ``count`` cases (default: the stated size) at tiny size."""
    size = SPEC["workloads"][wl.name]["sizes"]["tiny"]
    clear_memo_tables()
    state = wl.setup(1, size)
    count = wl.min_cases(state) if count is None else count
    return state, timed_phase(wl, state, 0, 0, max_cases=count)


def expect(wl, res, corrupted):
    if bool(res.failed) != corrupted:
        what = "corrupted expectation passed" if corrupted else "clean expectation failed"
        fail(f"{wl.name}: {what}: {res.notes}")


def check_corruption():
    import workloads
    from workloads import WORKLOADS

    wl = WORKLOADS["ext-random"]
    state, ph = tiny_run(wl, 10)
    key = f"{state['size']['names']}:1"
    digests = wl.chunk_digests(ph.outputs, 5)
    expect(wl, wl.check(state, ph.cases, ph.outputs, {"chunk": 5, "digests": {key: digests}}), False)
    bad = [digests[0][::-1]] + digests[1:]
    expect(wl, wl.check(state, ph.cases, ph.outputs, {"chunk": 5, "digests": {key: bad}}), True)
    golden, workloads.GOLDEN = workloads.GOLDEN, SPANS_DIR / "missing.json"
    try:
        expect(wl, wl.check(state, ph.cases, ph.outputs), True)
    finally:
        workloads.GOLDEN = golden

    wl = WORKLOADS["ext-sweep"]
    state, ph = tiny_run(wl)
    ref = wl.reference(state)
    expect(wl, wl.check(state, ph.cases, ph.outputs, ref), False)
    canc = ref["canc"]
    bad = dict(ref, canc=(canc[0], canc[1] + 1) + canc[2:])
    expect(wl, wl.check(state, ph.cases, ph.outputs, bad), True)

    wl = WORKLOADS["con-erosion"]
    state, ph = tiny_run(wl, 5)
    expect(wl, wl.check(state, ph.cases, ph.outputs), False)
    expect(wl, wl.check(state, ph.cases, ph.outputs, len(state["domain"]) + 1), True)

    wl = WORKLOADS["con-large"]
    state, ph = tiny_run(wl, 2)
    expect(wl, wl.check(state, ph.cases, ph.outputs), False)
    counts = [len(o.congruences) for o in ph.outputs]
    expect(wl, wl.check(state, ph.cases, ph.outputs, [n + 1 for n in counts]), True)
    print("selfcheck: corrupted digests and counts show as failed cases")


def check_bare_copy():
    bare = SPANS_DIR / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_tiny("con-large", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"run without src/ exited {proc.returncode} and printed {proc.stdout[-200:]!r}")
    print("selfcheck: without src/ the benchmark fails and prints no result")


def main():
    import_slat()
    for workload in SPEC["workloads"]:
        check_printed(workload)
    check_corruption()
    check_bare_copy()
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
