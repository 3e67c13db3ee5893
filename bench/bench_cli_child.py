"""One traced `padicdist` process, for the traced run of the `cli` workload.

    python3 bench/bench_cli_child.py RESULT.json ARG...

runs `padicdist ARG...` with the benchmark's tracer installed and writes the
per-name counts, self times and shallow spans to RESULT.json when it ends,
also when it ends with an exception.  The parent notes the time just before
it spawns this process; the `cli.main` span's start is when `main` was
entered.  Both clocks are `time.perf_counter`, the system-wide monotonic
clock, so their difference is the start-up time.
"""

import json
import sys

import bench_trace


def run() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    import padicdist.cli as cli

    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        main = next((s for s in tracer.spans if s[1] == "cli.main"), None)
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump({**tracer.totals(), "main_enter": main[2] if main else None,
                       "spans": tracer.spans}, handle)


if __name__ == "__main__":
    sys.exit(run())
