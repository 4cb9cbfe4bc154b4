"""Check that the traced run's work counts repeat exactly.

    python3 ssmbench/repeat_counts.py

For each workload, runs the traced benchmark for one second twice on seed
0 and once on seed 1, and compares every count metric (the ``.calls``
metrics and the computed work counts) across those runs.  Exits 1 and
names the metric if any differs.  Self times are not compared.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import COMPUTED  # noqa: E402

WORKLOADS = ("conv_long", "recurrent_short", "train_toy")
SEEDS = (0, 1)
SECONDS = 1


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith(".calls") or name in COMPUTED}


def main():
    ok = True
    for workload in WORKLOADS:
        runs = [(seed, traced_counts(workload, seed))
                for seed in (SEEDS[0],) + SEEDS]
        base_seed, base = runs[0]
        same = True
        for seed, counts in runs[1:]:
            for name in base:
                if counts[name] != base[name]:
                    same = False
                    print(f"{workload}: {name} is {base[name]} at seed {base_seed} "
                          f"but {counts[name]} at seed {seed}")
        print(f"{workload}: {len(base)} counts over {len(runs)} runs "
              f"(seeds {[s for s, _ in runs]}): {'repeat' if same else 'DIFFER'}")
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
