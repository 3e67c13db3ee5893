#!/usr/bin/env python3
"""Summarize benchmark result records across seeds.

    python3 bench/summarize.py bench/out/results-*.json > summary.json

For each workload and metric: the median and quartiles over the records
(one record per run), the seeds and the sample count, next to the
environment the records were made in.  bench/results/baseline.json was
written this way.
"""

import json
import statistics
import sys
from collections import defaultdict


def main(paths):
    runs = [json.load(open(p, encoding="utf-8")) for p in paths]
    runs = [r for r in runs if not r.get("tiny")]
    if not runs:
        raise SystemExit("no full-size result records given")
    table = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(set)
    for r in runs:
        seeds[r["workload"]].add(r["seed"])
        for name, m in r["metrics"].items():
            table[r["workload"]][name].append((m["value"], m["unit"]))
        if not r["trace"]:
            table[r["workload"]]["failed_ratio"].append((r["failed_ratio"], "ratio"))
            table[r["workload"]]["host_reference_ms"].append((r["host_reference_ms"]["median"], "ms"))
    env_keys = ("nproc", "python", "platform", "git_commit", "src_sha256", "seconds")
    env = {k: sorted({str(r[k]) for r in runs}) for k in env_keys}
    out = {"environment": env, "workloads": {}}
    for workload, metrics in sorted(table.items()):
        out["workloads"][workload] = {"seeds": sorted(seeds[workload]), "metrics": {}}
        for name, values in sorted(metrics.items()):
            xs = sorted(v for v, _ in values)
            q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            out["workloads"][workload]["metrics"][name] = {
                "unit": values[0][1], "median": med, "q1": q1, "q3": q3, "n": len(xs),
                "spread": (q3 - q1) / med if med else None,
            }
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
