"""Record the artifact digests of each workload's pinned reference input.

    python3 bench/record_digests.py

Run from the root of a source checkout whose code is the reference; writes
``bench/digests.json``, which ``run.py`` checks every run against.
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    os.chdir(run.ROOT)
    fs = run.import_flowsteer()
    digests = {}
    for name, workload in run.WORKLOADS.items():
        bench = run.Bench(fs, workload, run.PINNED_SEED, reference=None)
        bench.setup(min_reps=1, min_ns=0)
        bench.run_unit(0)
        if bench.failed:
            print(f"{name}: the reference edit failed", file=sys.stderr)
            return 1
        digests[name] = bench.seen[0]
        shutil.rmtree(bench.work, ignore_errors=True)
    path = run.BENCH_DIR / "digests.json"
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
