"""The `cli` workload: one `padicdist` process per job, one at a time.

Jobs cover all nine subcommands in text and json form, a dump of about 20k
lines, and the known-bad inputs that should exit 2 with one line on stderr.
Each process is started the way the console script starts it, so
interpreter start-up, import, spec decoding and report rendering all sit on
the blocking path.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import bench_jobs as bj

ENTRY = "import sys; from padicdist.cli import entry_point; entry_point()"
# Known-bad inputs: each should exit 2 with one line on stderr.
PROBE_HUGE_PRIME = 1000000000000000003
PROBE_NESTING = 950
# Every CLI job here finishes in well under a second untraced; the limit
# only bounds the known hang.  A known-bad input is to be refused as soon as
# it is read (process start is about 0.1 s), so it gets a tighter limit, which
# also keeps the hang's share of a pass small.  Traced processes get a longer
# limit.
TIME_LIMIT_S = 1.5
BAD_INPUT_TIME_LIMIT_S = 0.75
TRACED_TIME_LIMIT_S = 6.0


def _nested_lincomb_text(p, depth):
    return ('{"prime": %d, "expr": ' % p + '{"type": "lincomb", "terms": [["1", ' * depth
            + '{"type": "mazur"}' + "]]}" * depth + "}")


def cli_jobs(seed, tiny=False):
    rng = random.Random(f"cli:{seed}")
    search = bj.search_jobs(seed, tiny=tiny)
    jobs = []

    def add(name, argv, files, exit_code, check, prime, expect=None, params=None):
        jobs.append(bj.Job(name, "cli", prime, [], {
            "argv": argv, "files": files, "exit": exit_code, "check": check, **(params or {}),
        }, expect or {}))

    d = lambda depth: 2 if tiny else depth  # noqa: E731

    # eval: a four-deep graft nest at p=5, a regularize nest at p=1000003.
    for fmt, p in (("text", 5), ("json", 1000003)):
        e = bj.point_templates(rng, p)[4 if fmt == "text" else 3]
        n = rng.randint(1, 6)
        a = rng.randrange(p**n)
        add(f"eval/{fmt}", ["eval", "--spec", "{spec}", "--ball", f"{a}/{n}", "--format", fmt],
            {"spec": bj.doc(p, e)}, 0, "eval", p, params={"n": n, "a": a, "fmt": fmt})
    # verify: additive constructors must pass.
    for fmt, node, p, depth in (("text", "Regularize", 5, 4), ("json", "Graft", 3, 6)):
        e = bj.sweep_expr(node, rng, p)
        add(f"verify/{fmt}", ["verify", "--spec", "{spec}", "--depth", str(d(depth)), "--format", fmt],
            {"spec": bj.doc(p, e)}, 0, "verify", p, params={"depth": d(depth), "fmt": fmt})
    # graft-check, branch-check, distinct: reuse the search workload's inputs.
    picks = {
        ("graft", "text"): "graft/nowhere/p5", ("graft", "json"): "graft/deep/p7",
        ("branch", "text"): "branch/shallow/p3/k1", ("branch", "json"): "branch/nowhere/p3/k1",
        ("distinct", "text"): "distinct/deep/p5", ("distinct", "json"): "distinct/nowhere/p3",
    }
    for (kind, fmt), prefix in picks.items():
        job = next(j for j in search if j.name.startswith(prefix))
        cmd = {"graft": "graft-check", "branch": "branch-check", "distinct": "distinct"}[kind]
        argv = [cmd, "--spec", "{spec}", "--depth", str(job.params["depth"]), "--format", fmt]
        files = {"spec": job.docs[0]}
        if kind == "distinct":
            argv[3:3] = ["--other", "{other}"]
            files["other"] = job.docs[1]
        found = bool(job.expect.get("witness")) or bool(job.expect.get("fail_levels"))
        exit_code = (1 if found else 0) if kind == "graft" else (0 if found else 1)
        add(f"{cmd}/{fmt}", argv, files, exit_code, kind, job.prime, job.expect,
            {**job.params, "fmt": fmt})
    # norms and integrate, one text and one json each (norms also as csv).
    for fmt, node, p, depth in (("text", "Bernoulli", 5, 4), ("json", "LinearComb", 7, 3), ("csv", "Mazur", 3, 6)):
        e = bj.sweep_expr(node, rng, p)
        add(f"norms/{fmt}", ["norms", "--spec", "{spec}", "--depth", str(d(depth)), "--format", fmt],
            {"spec": bj.doc(p, e)}, 0, "norms", p, params={"depth": d(depth), "fmt": fmt})
    e = bj.sweep_expr("Mazur", rng, 5)
    poly = [bj.rat(bj.rand_coef(rng)) for _ in range(3)]
    add("integrate/text", ["integrate", "--spec", "{spec}", "--depth", str(d(4)), "--fn",
                           f"{poly[0]} + {poly[1]}*x + {poly[2]}*x^2".replace("+ -", "- "), "--format", "text"],
        {"spec": bj.doc(5, e)}, 0, "integrate", 5, params={"depth": d(4), "poly": poly, "fmt": "text"})
    e = bj.sweep_expr("Regularize", rng, 3)
    step = {"depth": 1, "values": {str(i): bj.rat(bj.rand_coef(rng)) for i in range(3)}}
    add("integrate/json", ["integrate", "--spec", "{spec}", "--depth", str(d(6)), "--step-fn", "{step}",
                           "--format", "json"],
        {"spec": bj.doc(3, e), "step": step}, 0, "integrate", 3, params={"depth": d(6), "fmt": "json"})
    # dump: the same 19,532-line csv dump (Mazur at p=5, depth 6) three times
    # a pass, and a small dot graph.  After the time-limited hang these are
    # the heaviest jobs, so the tail rank falls among samples of this one job
    # however many passes (three to six) fit.
    for fmt, node, p, depth in (("csv", "Mazur", 5, 6),) * 3 + (("dot", "Graft", 3, 3),):
        e = bj.sweep_expr(node, rng, p)
        add(f"dump/{fmt}/{node}", ["dump", "--spec", "{spec}", "--depth", str(d(depth)), "--format", fmt],
            {"spec": bj.doc(p, e)}, 0, "dump", p, params={"depth": d(depth), "fmt": fmt})
    # path: from a point with a comparison, and from digits.
    p = 7
    x, y = bj.rand_point(rng, p), bj.rand_point(rng, p)
    add("path/text", ["path", "--prime", str(p), "--point", bj.rat(x), "--digits", "16",
                      "--compare", bj.rat(y), "--format", "text"],
        {}, 0, "path", p, params={"x": bj.rat(x), "y": bj.rat(y), "fmt": "text"})
    pre, per = bj.rand_path(rng, 11)
    add("path/json", ["path", "--prime", "11", "--preperiod", ",".join(map(str, pre)) or ",",
                      "--period", ",".join(map(str, per)), "--digits", "12", "--format", "json"],
        {}, 0, "path", 11, params={"pre": list(pre), "per": list(per), "fmt": "json"})
    # Known-bad inputs: each must exit 2 with one line on stderr.
    add("bad/huge-prime", ["path", "--prime", str(PROBE_HUGE_PRIME), "--point", "1/3"],
        {}, 2, "error", 5)
    add("bad/nested-950", ["eval", "--spec", "{spec}", "--ball", "1/1"],
        {"spec": _nested_lincomb_text(5, PROBE_NESTING)}, 2, "error", 5)
    add("bad/bool-k", ["eval", "--spec", "{spec}", "--ball", "1/1"],
        {"spec": bj.doc(5, {"type": "bernoulli", "k": True})}, 2, "error", 5)
    add("bad/terms-object", ["eval", "--spec", "{spec}", "--ball", "1/1"],
        {"spec": bj.doc(5, {"type": "lincomb", "terms": {}})}, 2, "error", 5)
    return jobs


def valid_specs(jobs):
    """Spec documents the program must accept (set-up decodes these)."""
    return [f for j in jobs if j.params["exit"] != 2
            for key, f in j.params["files"].items() if key != "step"]


def write_files(jobs, workdir: Path):
    """Write each job's input files; return per-job argv with paths filled in."""
    argvs = []
    for i, job in enumerate(jobs):
        paths = {}
        for key, content in job.params["files"].items():
            path = workdir / f"job{i:02d}-{key}.json"
            path.write_text(content if isinstance(content, str) else json.dumps(content))
            paths[key] = str(path)
        argvs.append([a.format(**paths) if a.startswith("{") else a for a in job.params["argv"]])
    return argvs


class CliResult:
    def __init__(self, code, stdout, stderr, timed_out, seconds):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.timed_out, self.seconds = timed_out, seconds

    def key(self):
        return f"{self.code}\n{self.stdout}"


def run_process(cmd, env, limit, cwd):
    """Run one process to completion or to its time limit; it is always reaped."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                          cwd=cwd, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=limit)
            timed_out = False
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            timed_out = True
    return CliResult(proc.returncode, out, err, timed_out, time.perf_counter() - t0), t0


def program_env(src: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def base_command():
    return [sys.executable, "-c", ENTRY]


# =====================================================================
# Oracle
# =====================================================================

def check(job, res: CliResult, pd, oracle: bj.Oracle):
    """None when the process behaved as expected, else (reason, wrong).

    wrong is true when the process gave a wrong answer, and false when it
    hung, crashed or exited with an unexpected code.
    """
    prm = job.params
    if res.timed_out:
        return "killed at the time limit", False
    if "Traceback (most recent call last)" in res.stderr:
        return "printed a traceback", False
    if res.code != prm["exit"]:
        return f"exit {res.code}, expected {prm['exit']}", False
    if prm["check"] == "error":
        lines = res.stderr.strip().splitlines()
        ok = len(lines) == 1 and lines[0].startswith("error:")
        return None if ok else ("stderr is not one error line", False)
    try:
        reason = globals()["_check_" + prm["check"]](job, res.stdout, pd, oracle)
    except Exception as exc:  # an unparsable output is a wrong output
        reason = f"oracle could not read the output: {type(exc).__name__}: {exc}"
    return None if reason is None else (reason, True)


def _expr(job, pd, key="spec"):
    return pd.load_document(job.params["files"][key])[1]


def _check_eval(job, out, pd, oracle):
    p, prm = job.prime, job.params
    want = bj.ref_value(prm["files"]["spec"]["expr"], p, prm["n"], prm["a"])
    if prm["fmt"] == "json":
        d = json.loads(out)
        value, norm = F(d["value"]), F(d["norm"])
    else:
        m = re.fullmatch(r"(\S+) norm=(\S+)\n", out)
        value, norm = F(m.group(1)), F(m.group(2))
    return None if value == want and norm == bj.padic_norm(want, p) else "wrong value or norm"


def _check_verify(job, out, pd, oracle):
    p, depth = job.prime, job.params["depth"]
    if job.params["fmt"] == "json":
        return oracle._relation(job, None, out)
    want = f"balls_checked={bj.balls_to_depth(p, depth - 1)} violations=0"
    return None if want in out and out.endswith("result: PASS\n") else "additivity check did not pass"


def _check_graft(job, out, pd, oracle):
    if job.params["fmt"] == "json":
        return oracle._graft(job, None, out)
    fails = len(job.expect["fail_levels"])
    ok = f"tail-sum failures: {fails}\n" in out and "on-path agreement failures: 0\n" in out
    return None if ok else "wrong graft precondition report"


def _check_branch(job, out, pd, oracle):
    w = job.expect["witness"]
    if job.params["fmt"] == "json":
        d = json.loads(out)
        got = {k: d[k] for k in ("t", "s", "ball")} if d["found"] else None
        return None if got == w else f"witness {got} != {w}"
    want = (f"witness: t={w['t']} s={w['s']} ball={w['ball']['a']}/{w['ball']['n']}\n" if w
            else f"no witness up to depth {job.params['depth']}\n")
    return None if out == want else "wrong branch witness"


def _check_distinct(job, out, pd, oracle):
    w, p = job.expect["witness"], job.prime
    if job.params["fmt"] == "json":
        d = json.loads(out)
        return None if (d.get("ball") if d["found"] else None) == w else "wrong distinctness witness"
    if w is None:
        return None if out == f"no differing ball up to depth {job.params['depth']}\n" else "wrong answer"
    spec, other = job.params["files"]["spec"]["expr"], job.params["files"]["other"]["expr"]
    left, right = (bj.ref_value(e, p, w["n"], w["a"]) for e in (spec, other))
    want = f"distinct on ball {w['a']}/{w['n']}: {bj.rat(left)} vs {bj.rat(right)}\n"
    return None if out == want else "wrong distinctness witness"


def _check_norms(job, out, pd, oracle):
    fmt = job.params["fmt"]
    if fmt == "json":
        scan = json.loads(out)
    else:
        rows = out.strip().splitlines()
        rows = rows[3:] if fmt == "text" else rows[1:]
        cells = [r.replace(",", " ").split() for r in rows]
        scan = {"entries": [{"depth": int(c[0]), "max_norm": c[1], "argmax": {"a": int(c[2])}}
                            for c in cells]}
    return oracle._check_scan(job, _expr(job, pd), scan)


def _check_integrate(job, out, pd, oracle):
    p, prm = job.prime, job.params
    if prm["fmt"] == "json":
        d = json.loads(out)
    else:
        sums = re.findall(r"^S_\d+ = (\S+)", out, re.M)
        diffs = re.findall(r"\|diff\|_p = (\S+)$", out, re.M)
        d = {"partial_sums": sums, "diff_norms": diffs}
    if "poly" in prm:
        fn = pd.Polynomial(tuple(F(c) for c in prm["poly"]))
    else:
        fn = pd.step_fn_from_json(prm["files"]["step"])
    return oracle._integrate_poly(job, ([_expr(job, pd)], fn), json.dumps(d))


def _check_dump(job, out, pd, oracle):
    p, depth = job.prime, job.params["depth"]
    expr = job.params["files"]["spec"]["expr"]
    lines = out.splitlines()
    balls = bj.balls_to_depth(p, depth)
    if job.params["fmt"] == "csv":
        if lines[0] != "depth,rep,value,norm" or len(lines) != balls + 1:
            return "wrong csv shape"
        for line in oracle.rng.sample(lines[1:], min(40, balls)):
            n, a, value, norm = line.split(",")
            want = bj.ref_value(expr, p, int(n), int(a))
            if F(value) != want or F(norm) != bj.padic_norm(want, p):
                return f"dump line {line!r} is wrong"
        return None
    nodes = [ln for ln in lines if "[label=" in ln]
    edges = [ln for ln in lines if "->" in ln]
    if len(nodes) != balls or len(edges) != balls - 1:
        return "wrong dot shape"
    for line in oracle.rng.sample(nodes, min(20, balls)):
        m = re.search(r'"(\d+)/(\d+)" \[label=".*\\n(\S+)"\]', line)
        if F(m.group(3)) != bj.ref_value(expr, p, int(m.group(2)), int(m.group(1))):
            return f"dot node {line!r} is wrong"
    return None


def _check_path(job, out, pd, oracle):
    p, prm = job.prime, job.params
    if prm["fmt"] == "json":
        d = json.loads(out)
        pre, per = prm["pre"], prm["per"]
        ok = d["preperiod"] == pre and d["period"] == per
        value = F(d["value"])
        want = bj.from_digits(pre, p) + F(bj.from_digits(per, p) * p ** len(pre), 1 - p ** len(per))
        digits = [bj.path_digit(pre, per, i) for i in range(12)]
        ok = ok and value == want and d["digits"] == ",".join(map(str, digits))
        return None if ok else "wrong path"
    fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
    x, y = F(prm["x"]), F(prm["y"])
    dx, dy = bj._digits_of(x, p, 80), bj._digits_of(y, p, 80)
    order = "equal" if dx == dy else ("less" if dx < dy else "greater")
    ok = (F(fields["value"]) == x and fields["digits"] == "".join(map(str, dx[:16]))
          and fields["compare"] == order)
    return None if ok else "wrong path"
