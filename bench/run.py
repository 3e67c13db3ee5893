#!/usr/bin/env python3
"""The padicdist benchmark.

    python3 bench/run.py --workload {sweep,search,point,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/` of that checkout and from nowhere else.  Each workload is a closed
loop with one client and no threads: the next job starts when the previous
one has finished.  The cycle of jobs a seed generates is replayed in whole
passes until the time is up, after one unmeasured warm-up pass whose
outputs the oracle checks in full.  Later outputs must equal the checked
ones byte for byte.

--trace 0 prints the end-to-end metrics, measured with tracing off.  Job
times are each job's fastest run (see fastest_by_job); set-up time is the
median of several fresh processes spread over the measured window.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics.  Human-readable lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  A
self-describing record of the run is written to bench/out/.

`failed` counts jobs whose output was wrong, whose exit code was not the
expected one, that printed a traceback or that passed their time limit;
`correct` is false when any output was wrong.  The cli workload includes
known-bad inputs, which count as failed until the program rejects them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_REPEATS = 11

import bench_cli  # noqa: E402
import bench_jobs as bj  # noqa: E402
from bench_trace import Tracer  # noqa: E402

SETUP_CODE = (
    "import json, sys\n"
    "import padicdist\n"
    "with open(sys.argv[1], encoding='utf-8') as handle:\n"
    "    docs = json.load(handle)\n"
    "for doc in docs:\n"
    "    padicdist.load_document(doc)\n"
)

PER_NODE = bj.NODE_TYPES
VERIFY = ("check_relation", "norm_scan", "check_graft_precondition",
          "check_branch_hypothesis", "distinctness_witness")


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to the program failing)."""


def load_program():
    init = SRC / "padicdist" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no padicdist sources at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import padicdist

    if Path(padicdist.__file__).resolve() != init.resolve():
        raise BenchError(f"imported padicdist from {padicdist.__file__}, not from {SRC}")
    return padicdist


def generate(workload, seed, tiny):
    make = {"sweep": bj.sweep_jobs, "search": bj.search_jobs, "point": bj.point_jobs,
            "cli": bench_cli.cli_jobs}[workload]
    return make(seed, tiny=tiny)


def median_quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def tail(samples):
    """The highest percentile with at least 10 samples beyond it."""
    ordered = sorted(samples)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


# =====================================================================
# Set-up time
# =====================================================================

class SetupTimer:
    """Interpreter start + import padicdist + load_document of the workload's specs.

    Each sample is one fresh process.  The samples are spread over the
    measured window, so they see the same machine conditions as the jobs.
    """

    def __init__(self, workload, jobs, workdir: Path):
        docs = bench_cli.valid_specs(jobs) if workload == "cli" else [d for j in jobs for d in j.docs]
        self.specs = workdir / "specs.json"
        self.specs.write_text(json.dumps(docs), encoding="utf-8")
        self.env = bench_cli.program_env(SRC)
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(self.specs)], env=self.env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise BenchError(f"set-up process failed: {done.stderr.strip()[-500:]}")


# =====================================================================
# Passes over the job cycle
# =====================================================================

class Outcomes:
    """Oracle verdicts per job, keyed by the exact output they judged."""

    def __init__(self):
        self.verdicts: list[dict] = []
        self.wrong = 0
        self.failed = 0
        self.attempted = 0
        self.reasons: dict[str, str] = {}

    def record(self, i, job, output, judge):
        known = self.verdicts[i] if i < len(self.verdicts) else None
        if known is None:
            known = {}
            self.verdicts.append(known)
        if output not in known:
            known[output] = judge()
        return known[output]

    def count(self, job, verdict):
        """verdict: None, or (reason, wrong) with wrong true for a wrong answer."""
        if verdict is None:
            return
        reason, wrong = verdict
        self.failed += 1
        self.wrong += bool(wrong)
        self.reasons.setdefault(job.name, reason)


class InProcess:
    """sweep, search and point: jobs are calls into the imported library."""

    def __init__(self, pd, jobs, seed):
        self.pd = pd
        self.jobs = jobs
        self.lib = bj.Library(pd)
        self.oracle = bj.Oracle(pd, seed)
        self.decoded = [self.lib.decode(job) for job in jobs]
        self.outcomes = Outcomes()
        self.balls: list[int] = []

    def run_pass(self, latencies, count=True, tracer=None):
        """One pass over the cycle; returns (seconds inside jobs, balls)."""
        run = self.lib.run if tracer is None else functools.partial(tracer.run_in_span, "job", self.lib.run)
        busy, balls = 0.0, 0
        first = not self.balls
        perf = time.perf_counter
        for i, job in enumerate(self.jobs):
            decoded = self.decoded[i]
            t0 = perf()
            out = run(job, decoded)
            dt = perf() - t0
            if first:
                self.balls.append(bj.nominal_balls(job, out))
            verdict = self.outcomes.record(i, job, out, lambda: _wrong(self.oracle.check(job, decoded, out)))
            if count:
                latencies.append(dt)
                busy += dt
                balls += self.balls[i]
                self.outcomes.attempted += 1
                self.outcomes.count(job, verdict)
        return busy, balls


class CliProcesses:
    """cli: every job is one padicdist process, run to completion."""

    def __init__(self, pd, jobs, seed, workdir):
        self.pd = pd
        self.jobs = jobs
        self.oracle = bj.Oracle(pd, seed)
        self.argvs = bench_cli.write_files(jobs, workdir)
        self.workdir = workdir
        self.env = bench_cli.program_env(SRC)
        self.outcomes = Outcomes()
        self.balls = [_cli_balls(job) for job in jobs]
        self.startup: list[float] = []

    def run_pass(self, latencies, count=True, tracer=None):
        busy, balls = 0.0, 0
        for i, job in enumerate(self.jobs):
            if tracer is None:
                cmd = bench_cli.base_command() + self.argvs[i]
                limit = (bench_cli.BAD_INPUT_TIME_LIMIT_S if job.params["check"] == "error"
                         else bench_cli.TIME_LIMIT_S)
            else:
                result_file = self.workdir / f"trace{i:02d}.json"
                result_file.unlink(missing_ok=True)
                cmd = [sys.executable, str(HERE / "bench_cli_child.py"), str(result_file)] + self.argvs[i]
                limit = bench_cli.TRACED_TIME_LIMIT_S
            res, t_spawn = bench_cli.run_process(cmd, self.env, limit, ROOT)
            if tracer is not None:
                self._merge_child(tracer, result_file, t_spawn)
            verdict = self.outcomes.record(
                i, job, res.key() if not res.timed_out else "timeout",
                lambda: bench_cli.check(job, res, self.pd, self.oracle))
            if count:
                latencies.append(res.seconds)
                busy += res.seconds
                balls += self.balls[i]
                self.outcomes.attempted += 1
                self.outcomes.count(job, verdict)
        return busy, balls

    def _merge_child(self, tracer, result_file, t_spawn):
        if not result_file.exists():
            return
        child = json.loads(result_file.read_text(encoding="utf-8"))
        for name, n in child["calls"].items():
            tracer.calls[name] += n
        for name, s in child["self_s"].items():
            tracer.self_s[name] += s
        if child["main_enter"] is not None:
            self.startup.append(child["main_enter"] - t_spawn)
        # Span ids are per process; prefix them with the process's job file.
        tag = result_file.stem
        tracer.spans.extend((f"{tag}:{sid}", name, t0, t1, f"{tag}:{parent}")
                            for sid, name, t0, t1, parent in child["spans"])
        result_file.unlink()


def _wrong(reason):
    return None if reason is None else (reason, True)


def _cli_balls(job):
    """Nominal balls of a CLI job, from its inputs and its known answer."""
    prm, p = job.params, job.prime
    cmd = prm["argv"][0]
    if cmd in ("verify", "norms", "dump"):
        return bj.balls_to_depth(p, prm["depth"])
    if cmd == "integrate":
        return bj.balls_to_depth(p, prm["depth"], 1)
    if cmd == "graft-check":
        return (prm["depth"] + 1) * p
    if cmd in ("branch-check", "distinct"):
        kind = "branch" if cmd == "branch-check" else "distinct"
        w = job.expect["witness"]
        answer = json.dumps(w if kind == "branch" else {"ball": w})
        return bj.nominal_balls(bj.Job(job.name, kind, p, [], prm), answer)
    return 1


# =====================================================================
# Measurement
# =====================================================================

def host_reference_ms():
    """Time of a fixed pure-Python loop that does not touch padicdist, in ms.

    It goes into the record next to the metrics, not into them: it shows how
    fast the host ran while the run measured.
    """
    t0 = time.perf_counter()
    x = 0
    for j in range(50_000):
        x += j * j % 7
    return (time.perf_counter() - t0) * 1000.0


def allowed_cpus():
    """The CPUs this process may run on, or [] where the platform cannot tell."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def measure(runner, seconds, traced, setup=None):
    # On a shared host another tenant can slow one CPU for ten seconds or more
    # while the other runs at full speed.  The passes (and the processes they
    # start) take turns on the allowed CPUs, so that each job's fastest pass
    # comes from a CPU that was not slowed at the time.
    cpus = allowed_cpus()
    runner.run_pass([], count=False)            # warm-up: fills caches, checks outputs
    # Every pass does the same work, so the program's peak is reached in the
    # warm-up pass, before the benchmark's sample buffers grow.
    runner.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.collect()
    gc.freeze()
    latencies = array("d")
    passes, traced_passes, spans, host = [], [], [], []
    start = time.perf_counter()
    try:
        while True:
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            if setup and len(setup.times) * seconds / SETUP_REPEATS <= time.perf_counter() - start:
                setup.sample()
            if len(host) <= time.perf_counter() - start:
                host.append(host_reference_ms())
            t0 = time.perf_counter()
            busy, balls = runner.run_pass(latencies)
            passes.append({"wall": time.perf_counter() - t0, "busy": busy, "balls": balls,
                           "jobs": len(runner.jobs), "cpus": sorted(os.sched_getaffinity(0)) if cpus else None})
            if traced:
                tracer = Tracer()
                if isinstance(runner, InProcess):
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    runner.run_pass(array("d"), tracer=tracer)
                finally:
                    tracer.uninstall()
                traced_passes.append({"wall": time.perf_counter() - t0, "balls": balls,
                                      "calls": dict(tracer.calls), "self_s": dict(tracer.self_s)})
                if len(traced_passes) == 1:
                    spans = tracer.spans
            if time.perf_counter() - start >= seconds:
                break
        while setup and len(setup.times) < SETUP_REPEATS:
            setup.sample()
    finally:
        gc.unfreeze()
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
    return latencies, passes, traced_passes, spans, host


def fastest_by_job(jobs, latencies):
    """Each job's fastest run, in seconds.

    A job is a fixed, single-threaded computation, so what varies from run
    to run is interference from the rest of a shared host, and that only
    ever adds time.  The fastest run is the steadiest estimate of what the
    job costs; the medians over passes go to the record next to it.  Copies
    of one job in the cycle (the same inputs) share their fastest run.
    """
    n_jobs = len(jobs)
    keys = [json.dumps([j.kind, j.prime, j.docs, j.params], sort_keys=True, default=str) for j in jobs]
    best = {}
    for i, key in enumerate(keys):
        best[key] = min(best.get(key, float("inf")), min(latencies[i::n_jobs]))
    return [best[key] for key in keys]


def end_to_end(runner, latencies, passes, setup_times, workload):
    if workload == "cli":
        # The largest padicdist process of the run.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        peak_rss_mb = runner.peak_rss_mb
    n_jobs = len(runner.jobs)
    fastest = fastest_by_job(runner.jobs, latencies)
    # Every measured sample, each at its job's fastest time: the latency
    # distribution of the cycle as the passes replayed it.
    lat_ms = [fastest[i % n_jobs] * 1000.0 for i in range(len(latencies))]
    tail_ms, tail_pct = tail(lat_ms)
    cycle_s = sum(fastest)
    per_pass = {
        "jobs_per_s": [p["jobs"] / p["busy"] for p in passes],
        "balls_per_s": [p["balls"] / p["busy"] for p in passes],
    }
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (n_jobs / cycle_s, "1/s"),
        "balls_per_s": (passes[0]["balls"] / cycle_s, "1/s"),
        "job_ms.p50": (statistics.median(lat_ms), "ms"),
        "job_ms.tail": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    spread = {
        "setup_s": median_quartiles(setup_times),
        "jobs_per_s": median_quartiles(per_pass["jobs_per_s"]),
        "balls_per_s": median_quartiles(per_pass["balls_per_s"]),
        "job_ms": median_quartiles([x * 1000.0 for x in latencies]),
    }
    extra = {"job_ms.tail_percentile": tail_pct, "job_ms.samples": len(lat_ms)}
    return metrics, spread, extra


def per_layer(runner, passes, traced_passes, workload):
    calls = [t["calls"] for t in traced_passes]
    repeat = all(c == calls[0] for c in calls)
    first = calls[0]
    balls = traced_passes[0]["balls"]

    def self_s(name):
        return statistics.median(t["self_s"].get(name, 0.0) for t in traced_passes)

    metrics = {}
    for name in ("core.Ball", "core.require_prime"):
        metrics[f"{name}.calls"] = (first.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("core.ball_make", "core.point_to_path", "core.norm"):
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    evals = 0
    for node in PER_NODE:
        name = f"distributions.evaluate.{node}"
        evals += first.get(name, 0)
        metrics[f"distributions.evaluate.calls.{node}"] = (first.get(name, 0), "count")
        metrics[f"distributions.evaluate.self_s.{node}"] = (self_s(name), "s")
    metrics["distributions.evaluate.calls_per_ball"] = (evals / balls, "count/ball")
    metrics["distributions.bernoulli_polynomial.self_s"] = (self_s("distributions.bernoulli_polynomial"), "s")
    fractions = first.get("arith.fraction_new", 0)
    metrics["arith.fraction_new"] = (fractions, "count")
    metrics["arith.fraction_new_per_ball"] = (fractions / balls, "count/ball")
    for checker in VERIFY:
        metrics[f"verify.{checker}.self_s"] = (self_s(f"verify.{checker}"), "s")
    metrics["integrate.riemann_sum.calls"] = (first.get("integrate.riemann_sum", 0), "count")
    metrics["integrate.riemann_sum.self_s"] = (self_s("integrate.riemann_sum"), "s")
    for name in ("serialize.load_document", "serialize.expr_to_json"):
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    startup = getattr(runner, "startup", [])
    metrics["cli.startup_s"] = (statistics.median(startup) if startup else 0.0, "s")
    metrics["cli.main.self_s"] = (self_s("cli.main"), "s")
    metrics["cli.render.self_s"] = (self_s("cli.render"), "s")
    untraced = sum(p["wall"] for p in passes)
    metrics["trace.overhead_ratio"] = (sum(t["wall"] for t in traced_passes) / untraced, "ratio")
    extra = {"counts_repeat": repeat, "traced_passes": len(traced_passes)}
    return metrics, extra


# =====================================================================
# Records
# =====================================================================

def environment():
    commit = None
    # Only this checkout's own history counts, never that of a directory above it.
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "padicdist").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_cycled": allowed_cpus(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def check_digests(workload, seed, tiny, runner):
    """For the default seed, compare outputs with the committed digests."""
    path = HERE / "digests.json"
    if tiny or seed != DEFAULT_SEED or not path.exists():
        return None
    recorded = json.loads(path.read_text(encoding="utf-8")).get(workload)
    if recorded is None:
        return None
    got = output_digests(runner)
    bad = [j.name for j, a, b in zip(runner.jobs, got, recorded) if a != b]
    if len(got) != len(recorded):
        bad.append("(job count)")
    return bad


def output_digests(runner):
    """Digests of the outputs of the checked warm-up pass.

    Known-bad CLI inputs get none: what they must do (exit 2 with one line
    on stderr) is checked directly, and their output today is the defect.
    """
    return [None if job.params.get("check") == "error" else bj.digest(next(iter(v)))
            for job, v in zip(runner.jobs, runner.outcomes.verdicts)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=bj.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny job sizes, for the smoke test")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests (default seed only)")
    args = parser.parse_args(argv)

    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args):
    pd = load_program()
    OUT.mkdir(exist_ok=True)
    jobs = generate(args.workload, args.seed, args.tiny)

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        setup = None if args.trace else SetupTimer(args.workload, jobs, Path(tmp))
        if args.workload == "cli":
            runner = CliProcesses(pd, jobs, args.seed, Path(tmp))
        else:
            runner = InProcess(pd, jobs, args.seed)
        latencies, passes, traced_passes, spans, host = measure(
            runner, args.seconds, bool(args.trace), setup)
    setup_times = setup.times if setup else []

    outcomes = runner.outcomes
    bad_digests = check_digests(args.workload, args.seed, args.tiny, runner)
    if bad_digests:
        outcomes.wrong += len(bad_digests)
        outcomes.failed += len(bad_digests)
        for name in bad_digests:
            outcomes.reasons.setdefault(name, "output differs from the committed digest")
    if args.record_digests:
        record_digests(args, runner)

    if args.trace:
        metrics, extra = per_layer(runner, passes, traced_passes, args.workload)
        summary = None
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}.jsonl", spans)
    else:
        metrics, summary, extra = end_to_end(runner, latencies, passes, setup_times, args.workload)
    failed_ratio = outcomes.failed / max(1, outcomes.attempted)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, **environment(),
        "passes": len(passes), "jobs_per_pass": len(jobs), "pass_log": passes,
        "attempted": outcomes.attempted, "failed": outcomes.failed,
        "failed_ratio": failed_ratio, "wrong": outcomes.wrong,
        "failures": outcomes.reasons, "digests_checked": bad_digests is not None,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "distribution": summary, **extra,
        "host_reference_ms": median_quartiles(host),
        "job_ms_by_job": {
            job.name + f"#{i}": {"median": statistics.median(latencies[i::len(jobs)]) * 1000.0,
                                 "fastest": min(latencies[i::len(jobs)]) * 1000.0}
            for i, job in enumerate(jobs)
        } if latencies else {},
    }
    tag = "-tiny" if args.tiny else ""
    (OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"jobs={outcomes.attempted} failed={outcomes.failed} failed_ratio={failed_ratio:.4f}")
    for name, reason in sorted(outcomes.reasons.items()):
        print(f"  failed: {name}: {reason}")
    for key, value in extra.items():
        print(f"{key} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcomes.wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def write_spans(path, spans):
    """The spans kept from the first traced pass, one JSON object a line."""
    with open(path, "w", encoding="utf-8") as handle:
        for sid, name, t0, t1, parent in spans:
            handle.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


def record_digests(args, runner):
    if args.tiny or args.seed != DEFAULT_SEED:
        raise SystemExit("digests are recorded for the default seed at full size only")
    path = HERE / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    table[args.workload] = output_digests(runner)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
