"""Steadiness check: runs the benchmark on several seeds and reports, for each
end-to-end metric, the spread between the first and third quartiles as a
share of the median, beside the bound BENCHMARK.json sets.  A metric is
steady when its spread is at most a third of its bound (WIDE otherwise, and
the exit code is 1).

    python3 perfbench/steady.py --workloads mc-pairs,cli-eval --seeds 1-10

Run it from the root of a checkout.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="also write the runs and spreads here as JSON")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"{wl}: {len(runs)} runs, correct {sum(r['correct'] for r in runs)}, "
              f"failed/attempted {sum(r['failed'] for r in runs)}/"
              f"{sum(r['attempted'] for r in runs)}")
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = spread <= bound / 3
            ok &= steady
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                          "values": values}
            print(f"  {name:12s} median {med:10.4g}  spread {spread:6.3f}  bound {bound:5.3f}"
                  f"  {'ok' if steady else 'WIDE'}")
        summary[wl] = {"runs": runs, "spreads": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
