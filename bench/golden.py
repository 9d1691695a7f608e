"""Regenerate the ext-random reference digests in golden/ext-random.json.

    python3 bench/golden.py

For each of the first SEEDS seeds the digests cover the canonical
serializations of x, y and x v y of the first CASES cases of the
full-size workload, in chunks of CHUNK.  A run compares its completed
chunks against these, so a change that alters any canonical form fails
the run.  Regenerate only when a canonical form is meant to change.
"""

from __future__ import annotations

import json

from run import SPEC, clear_memo_tables, import_slat

CHUNK = 50
SEEDS = 32
CASES = 2000


def main():
    import_slat()
    from slat import expr, freepairs
    from workloads import GOLDEN, ExtRandom

    wl = ExtRandom()
    size = SPEC["workloads"][wl.name]["sizes"]["full"]
    digests = {}
    for seed in range(SEEDS):
        clear_memo_tables()
        state = wl.setup(seed, size)
        outputs = []
        for case, _ in zip(wl.cases(state), range(CASES)):
            x, y = expr.evaluate(case.x), expr.evaluate(case.y)
            outputs.append((x, y, freepairs.join(x, y)))
        key = f"{size['names']}:{seed}"
        digests[key] = wl.chunk_digests(outputs, CHUNK)
        print(f"seed {seed}: {len(digests[key])} chunks", flush=True)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"chunk": CHUNK, "digests": digests}, indent=0) + "\n")


if __name__ == "__main__":
    main()
