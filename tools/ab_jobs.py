#!/usr/bin/env python3
"""Per-job A/B timing of two padicdist checkouts in one process.

    python3 tools/ab_jobs.py BEFORE AFTER [--workload search] [--seed 1]
        [--rounds 21] [--tiny]

BEFORE and AFTER are the roots of two source checkouts.  Each one's
`src/padicdist` is imported under its own module name, so both live in this
process side by side.  The jobs are those of `bench/bench_jobs.py` of the
checkout this script sits in, decoded once per side.  Every round runs each
job on both sides in turn; which side goes first alternates from job to job
and from round to round, so neither side is favoured by warm caches or by a
slow spell of a shared host.  One unmeasured round first checks that both
sides print the same output for every job; a difference stops the script.

It prints, in milliseconds, the median over rounds of each job's time
(copies of one job name are summed within a round), then the same per group
(the part of the name before the first "/") and for the whole cycle, with
the relative change.  A group row also gives the spread of the change from
round to round, as the interquartile range of the per-round changes, and
the number of rounds the AFTER side was faster in: a change within that
spread, or won in about half the rounds, cannot be told from noise.  Only
`sweep`, `search` and `point` run in process; `cli` starts processes and is
measured by `bench/run.py`.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import bench_jobs as bj  # noqa: E402

MAKE = {"sweep": bj.sweep_jobs, "search": bj.search_jobs, "point": bj.point_jobs}


def load(checkout: Path, name: str):
    """The package at checkout/src/padicdist, imported afresh as module `name`."""
    # A package loaded under this name before would lend the new one its
    # submodules, which the new package would then not hold as attributes.
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    package = checkout.resolve() / "src" / "padicdist"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None or not (package / "__init__.py").is_file():
        raise SystemExit(f"no padicdist sources under {checkout}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def decode(pd, jobs):
    # `Library.decode` imports `padicdist.core` for the path jobs: point that
    # name at this side's package while decoding.
    saved = {k: sys.modules.get(k) for k in ("padicdist", "padicdist.core")}
    sys.modules["padicdist"], sys.modules["padicdist.core"] = pd, pd.core
    try:
        lib = bj.Library(pd)
        return lib, [lib.decode(job) for job in jobs]
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before", type=Path)
    ap.add_argument("after", type=Path)
    ap.add_argument("--workload", choices=sorted(MAKE), default="search")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=21)
    ap.add_argument("--tiny", action="store_true", help="the small job set of the smoke tests")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    jobs = MAKE[args.workload](args.seed, tiny=args.tiny)
    sides = [decode(load(path, f"padicdist_ab{i}"), jobs) for i, path in enumerate((args.before, args.after))]

    for i, job in enumerate(jobs):
        outs = [lib.run(job, decoded[i]) for lib, decoded in sides]
        if outs[0] != outs[1]:
            raise SystemExit(f"{job.name}: outputs differ\n  before: {outs[0]}\n  after:  {outs[1]}")

    # times[side][name] is one list of per-round sums.
    times = [defaultdict(list), defaultdict(list)]
    perf = time.perf_counter
    gc.collect()
    for rnd in range(args.rounds):
        round_sums = [defaultdict(float), defaultdict(float)]
        for i, job in enumerate(jobs):
            for s in ((0, 1) if (rnd + i) % 2 == 0 else (1, 0)):
                lib, decoded = sides[s]
                t0 = perf()
                lib.run(job, decoded[i])
                round_sums[s][job.name] += perf() - t0
        for s in (0, 1):
            for name, t in round_sums[s].items():
                times[s][name].append(t)

    def row(label, before, after, spread=""):
        b, a = (statistics.median(x) * 1e3 for x in (before, after))
        print(f"{label:<36} {b:>10.3f} {a:>10.3f} {100 * (a - b) / b:>+8.1f}%{spread}")

    def spread(before, after):
        # The interquartile range of the per-round changes (0 for one round),
        # and the rounds won.
        changes = [100 * (a - b) / b for b, a in zip(before, after)]
        q1, q3 = 0, 0
        if len(changes) > 1:
            q1, _, q3 = statistics.quantiles(changes, n=4, method="inclusive")
        wins = sum(a < b for b, a in zip(before, after))
        return f" {q3 - q1:>8.1f}% {wins:>5}/{len(changes)}"

    print(f"{args.workload} seed {args.seed}, median of {args.rounds} interleaved rounds (ms)")
    print(f"{'job':<36} {'before':>10} {'after':>10} {'change':>9}")
    names = list(times[0])
    for name in names:
        row(name, times[0][name], times[1][name])
    groups = defaultdict(list)
    for name in names:
        groups[name.split("/")[0]].append(name)
    print()
    print(f"{'group':<36} {'before':>10} {'after':>10} {'change':>9} {'IQR':>9} {'won':>8}")
    for group, members in [*groups.items(), ("all", names)]:
        per_round = [[sum(times[s][n][r] for n in members) for r in range(args.rounds)] for s in (0, 1)]
        count = sum(job.name in members for job in jobs)
        row(f"{group} ({count} jobs)", *per_round, spread(*per_round))
    return 0


if __name__ == "__main__":
    sys.exit(main())
