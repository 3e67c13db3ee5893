"""Job generation, execution and output oracles for the padicdist benchmark.

A workload is a fixed cycle of jobs generated from a seed.  The benchmark
replays the cycle in a closed loop with one client, so every pass performs
the same work and per-pass counts repeat exactly.  The seed picks the
parameters of each job (coefficients, alpha, Dirac points, graft paths,
witness placement); the shape of the cycle, and with it the cost of a pass,
is fixed, so figures from different seeds are comparable.

The program under test receives only the generated inputs: spec documents
(decoded with `padicdist.load_document`, as the CLI does), balls, paths and
test functions.  Every job's output is checked outside the timed region by
an oracle that knows the expected answer from how the input was built, or
recomputes it independently (`ref_value` is a reference evaluator written
from the definitions, sharing no code with `padicdist`).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import comb

WORKLOADS = ("sweep", "search", "point", "cli")

NODE_TYPES = (
    "Dirac", "Haar", "Mazur", "Bernoulli", "LinearComb",
    "Restrict", "Regularize", "Graft", "Branch",
)

POINT_PRIMES = (5, 7, 11, 101, 1009, 10007, 100003, 1000003)


@dataclass
class Job:
    """One unit of work: a call into the library, or one CLI process."""

    name: str
    kind: str
    prime: int
    docs: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


# =====================================================================
# Spec documents (canonical JSON forms, as padicdist.expr_to_json writes them)
# =====================================================================

def rat(x) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def dirac(x):
    return {"type": "dirac", "point": rat(x)}


def haar(scale=1):
    return {"type": "haar", "scale": rat(scale)}


def mazur():
    return {"type": "mazur"}


def bernoulli(k):
    return {"type": "bernoulli", "k": k}


def lincomb(*terms):
    return {"type": "lincomb", "terms": [[rat(c), e] for c, e in terms]}


def restrict(a, n, e):
    return {"type": "restrict", "cell": {"a": a, "n": n}, "expr": e}


def regularize(k, alpha, e):
    return {"type": "regularize", "k": k, "alpha": rat(alpha), "expr": e}


def graft(pre, per, left, right):
    return {
        "type": "graft",
        "path": {"preperiod": list(pre), "period": list(per)},
        "left": left,
        "right": right,
    }


def branch(k, children):
    return {"type": "branch", "k": k, "children": {str(t): c for t, c in enumerate(children)}}


def doc(p, e):
    return {"prime": p, "expr": e}


# =====================================================================
# Random inputs
# =====================================================================

def rand_coef(rng):
    return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def rand_point(rng, p):
    """A rational in Z_p with a small denominator prime to p."""
    den = rng.choice([d for d in range(1, 13) if d % p])
    return F(rng.randint(-60, 60), den)


def rand_unit(rng, p, integer=False):
    """alpha != 1 with |alpha|_p = 1."""
    choices = [a for a in range(2, min(2 * p + 2, 30)) if a % p]
    if not integer:
        choices += [F(1, 2), F(-1)]
    return F(rng.choice([a for a in choices if F(a).denominator % p]))


def rand_path(rng, p, middle=False, lengths=None):
    """(preperiod, period); with middle=True every digit has a smaller and a larger neighbour.

    `lengths` fixes (len(preperiod), len(period)); by default the seed picks them.
    """
    lo, hi = (1, p - 2) if middle else (0, p - 1)
    pre = tuple(rng.randint(lo, hi) for _ in range(lengths[0] if lengths else rng.randint(0, 2)))
    per = tuple(rng.randint(lo, hi) for _ in range(lengths[1] if lengths else rng.randint(1, 3)))
    return pre, per


def path_digit(pre, per, i):
    return pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]


def from_digits(digits, p):
    return sum(d * p**i for i, d in enumerate(digits))


def split_pair(rng, p, m, prefix=None, low=None):
    """Two integers agreeing on digits 0..m-1 and differing at digit m.

    With `low`, the smaller of the two digits at m is `low`.
    """
    head = list(prefix) if prefix is not None else [rng.randrange(p) for _ in range(m)]
    if low is None:
        bx, by = rng.sample(range(p), 2)
    else:
        bx, by = low, rng.randrange(low + 1, p)
    tail = [rng.randrange(p) for _ in range(2)]
    return from_digits(head + [bx] + tail, p), from_digits(head + [by] + tail, p)


def balls_to_depth(p, depth, start=0):
    """Number of balls of depth start..depth."""
    return sum(p**n for n in range(start, depth + 1))


def ball_rank(p, start, n, rep):
    """1-based position of ball rep + (p^n) in (depth, rep) order from depth `start`."""
    return balls_to_depth(p, n - 1, start) + rep + 1


# =====================================================================
# sweep: full-enumeration checkers over every node type at p = 3, 5, 7
# =====================================================================

SWEEP_KINDS = ("relation", "norms", "verdict", "integrate_poly", "integrate_step")
_SWEEP_DEPTH = {3: 7, 5: 5, 7: 4}
# Nodes that are cheap per ball go one level deeper at p=3, which puts the
# median job inside a cluster of similar costs rather than between two.
_DEEPER_AT_3 = {"Dirac", "Mazur", "Restrict", "Branch"}
# The flag padicdist.boundedness_flag must give for each template below.
_SWEEP_FLAG = {
    "Dirac": "bounded", "LinearComb": "unknown", "Regularize": "unknown",
}


def sweep_expr(node, rng, p):
    if node == "Dirac":
        return dirac(rand_point(rng, p))
    if node == "Haar":
        return haar(F(rng.randint(1, 9), rng.randint(1, 4)))
    if node == "Mazur":
        return mazur()
    if node == "Bernoulli":
        return bernoulli(3)
    if node == "LinearComb":
        return lincomb(
            (rand_coef(rng), mazur()), (rand_coef(rng), haar(1)),
            (rand_coef(rng), dirac(rand_point(rng, p))),
        )
    if node == "Restrict":
        return restrict(rng.randrange(p), 1, mazur())
    if node == "Regularize":
        return regularize(1, rand_unit(rng, p, integer=True), mazur())
    if node == "Graft":
        # left = Mazur + c*(delta_x - delta_y) with x, y leaving the path into
        # the same child, so the graft precondition holds and the graft is
        # additive, yet its values differ from Mazur's on that subtree.
        # The path's shape and the level x and y leave it are fixed: they set
        # the job's cost, which should not change with the seed.
        pre, per = rand_path(rng, p, lengths=(1, 2))
        m = 1
        head = [path_digit(pre, per, i) for i in range(m)]
        off = rng.choice([b for b in range(p) if b != path_digit(pre, per, m)])
        x, y = split_pair(rng, p, m + 1, head + [off])
        c = rand_coef(rng)
        return graft(pre, per, lincomb((1, mazur()), (c, dirac(x)), (-c, dirac(y))), mazur())
    if node == "Branch":
        children = []
        for t in range(p):
            if t % 3 == 0:
                children.append(mazur())
            elif t % 3 == 1:
                children.append(haar(F(rng.randint(1, 9), rng.randint(1, 4))))
            else:
                children.append(dirac(rand_point(rng, p)))
        return branch(1, children)
    raise ValueError(node)


def sweep_jobs(seed, tiny=False):
    rng = random.Random(f"sweep:{seed}")
    jobs = []
    combos = [(node, p) for node in NODE_TYPES for p in (3, 5, 7)]
    plan = [(node, p, SWEEP_KINDS[i % len(SWEEP_KINDS)], None) for i, (node, p) in enumerate(combos)]
    # The heaviest job, Mazur at p=3 to depth 9 (29,524 balls), twice a pass:
    # whenever six or more passes fit, the tail rank (10 samples beyond it)
    # falls among its samples, so the tail is one job's time and does not
    # jump with the number of passes.
    plan += [("Mazur", 3, "relation", 9)] * 2
    for node, p, kind, depth in plan:
        if depth is None:
            depth = _SWEEP_DEPTH[p] + (p == 3 and node in _DEEPER_AT_3)
        if tiny:
            depth = 2
        e = sweep_expr(node, rng, p)
        params = {"depth": depth}
        if kind == "integrate_poly":
            params["poly"] = [rat(rand_coef(rng)) for _ in range(3)]
        elif kind == "integrate_step":
            sd = min(2, depth - 1)
            params["step"] = {"depth": sd, "values": [rat(rand_coef(rng)) for _ in range(p**sd)]}
        expect = {"flag": _SWEEP_FLAG.get(node, "unbounded")}
        jobs.append(Job(f"{kind}/{node}/p{p}/d{depth}", kind, p, [doc(p, e)], params, expect))
    return jobs


# =====================================================================
# search: checks that can stop early, witness shallow, deep or nowhere
# =====================================================================

# The seed picks digits and values but no shape that sets a job's cost:
# path lengths and failing levels are fixed, so the job costs, and with them
# the median job, stay put from seed to seed.
_SEARCH_PATH = (1, 2)


def _equal_variant(rng, p, e, j):
    """An expression equal in value to e on every ball but different in structure."""
    if j % 3 == 0:
        return lincomb((F(j + 1, j + 2), e), (F(1, j + 2), e))
    if j % 3 == 1:
        # Distinct preperiods keep the grafts of one branch distinct.
        _, per = rand_path(rng, p, lengths=_SEARCH_PATH)
        return graft([j % p, j // p % p], per, e, e)
    return restrict(0, 0, lincomb((F(j + 1, j + 3), e), (F(2, j + 3), e)))


def _search_base(p):
    return {3: mazur(), 5: regularize(1, 2, mazur()), 7: lincomb((2, mazur()), (-1, haar(3)))}[p]


def search_jobs(seed, tiny=False):
    rng = random.Random(f"search:{seed}")
    jobs = []
    # distinctness_witness: shallow witnesses at depth 1, deep at the last
    # depth, or none (the second spec equals the first in value).
    for p, depth in ((3, 7), (5, 5), (7, 4)):
        depth = 2 if tiny else depth
        e = _search_base(p)
        for where in ("shallow", "shallow", "shallow", "deep", "nowhere"):
            if where == "nowhere":
                other = _equal_variant(rng, p, e, p)
                witness = None
            else:
                m = 0 if where == "shallow" else depth - 1
                # A deep witness sits in the middle of the last level, so
                # its rank (and the job's cost) varies little with the seed.
                x, y = split_pair(rng, p, m, low=p // 2)
                c = rand_coef(rng)
                other = lincomb((1, e), (c, dirac(x)), (-c, dirac(y)))
                n = m + 1
                witness = {"a": min(x % p**n, y % p**n), "n": n}
            jobs.append(Job(
                f"distinct/{where}/p{p}/d{depth}", "distinct", p, [doc(p, e), doc(p, other)],
                {"depth": depth}, {"witness": witness},
            ))
    # check_branch_hypothesis: child 0 is the base, the children in between
    # are equal to it in value, and child s (if any) differs from depth m+1 on.
    for p, k, depth in ((3, 1, 6), (5, 1, 3), (3, 2, 4)):
        depth = k + 1 if tiny else depth
        size = p**k
        e = _search_base(p)
        for where in ("shallow", "shallow", "deep", "nowhere"):
            children = [e] + [_equal_variant(rng, p, e, j) for j in range(1, size)]
            expect = {"witness": None}
            if where != "nowhere":
                s = 1 if where == "shallow" else size - 1
                m = 0 if where == "shallow" else depth - 1
                x, y = split_pair(rng, p, m, low=p // 2)
                c = rand_coef(rng)
                children[s] = lincomb((1, e), (c, dirac(x)), (-c, dirac(y)))
                n = max(k, m + 1)
                expect["witness"] = {"t": 0, "s": s, "ball": {"a": min(x % p**n, y % p**n), "n": n}}
            jobs.append(Job(
                f"branch/{where}/p{p}/k{k}/d{depth}", "branch", p, [doc(p, branch(k, children))],
                {"depth": depth, "k": k}, expect,
            ))
    # check_graft_precondition along a long path: the tail sums fail at one
    # level (shallow or deep) or nowhere.
    for p, depth in ((3, 100), (5, 60), (7, 60)):
        depth = 4 if tiny else depth
        for where in ("shallow", "deep", "nowhere"):
            pre, per = rand_path(rng, p, middle=True, lengths=_SEARCH_PATH)
            level = 0 if where != "deep" else depth - 3
            head = [path_digit(pre, per, i) for i in range(level)]
            i_l = path_digit(pre, per, level)
            if where == "nowhere":
                off = rng.choice([b for b in range(p) if b != i_l])
                x, y = split_pair(rng, p, level + 1, head + [off])
            else:
                tail = [rng.randrange(p) for _ in range(3)]
                x = from_digits(head + [rng.randrange(i_l)] + tail, p)
                y = from_digits(head + [rng.randrange(i_l + 1, p)] + tail, p)
            c = rand_coef(rng)
            e = _search_base(p)
            left = lincomb((1, e), (c, dirac(x)), (-c, dirac(y)))
            jobs.append(Job(
                f"graft/{where}/p{p}/d{depth}", "graft", p,
                [doc(p, graft(pre, per, left, e))], {"depth": depth},
                {"fail_levels": [] if where == "nowhere" else [level]},
            ))
    return jobs


# =====================================================================
# point: single-ball evaluate calls and core operations, p up to 1000003
# =====================================================================

def point_templates(rng, p):
    """Expressions nesting 0 to 4 combinators deep."""
    u1, u2 = rand_unit(rng, p), rand_unit(rng, p)
    pre, per = rand_path(rng, p)
    out = [
        mazur(),
        lincomb((rand_coef(rng), mazur()), (rand_coef(rng), haar(rand_coef(rng)))),
        regularize(1, u1, lincomb((rand_coef(rng), mazur()), (1, dirac(rand_point(rng, p))))),
        restrict(rng.randrange(p), 1, regularize(1, u1, regularize(2, u2, mazur()))),
        graft(
            pre, per,
            regularize(1, u1, lincomb((1, mazur()), (rand_coef(rng), restrict(rng.randrange(p), 1, haar(2))))),
            bernoulli(2),
        ),
    ]
    if p <= 11:
        out.append(branch(1, [mazur() if t % 2 else haar(t + 1) for t in range(p)]))
    return out


def _path_doc(rng, p):
    pre, per = rand_path(rng, p)
    return {"preperiod": list(pre), "period": list(per)}


def _full_order_prime(p, start):
    """The least prime q >= start with p of order q-1 mod q: 1/q has period q-1 in Z_p."""
    q = start
    while True:
        if q % p and all(q % d for d in range(2, int(q**0.5) + 1)):
            k, x = 1, p % q
            while x != 1:
                x, k = x * p % q, k + 1
            if k == q - 1:
                return q
        q += 1


def point_jobs(seed, tiny=False):
    rng = random.Random(f"point:{seed}")
    jobs = []
    # Six rounds of light queries keep the heavy query below a sixth of a
    # pass, so few scheduler stalls land on it.
    primes = POINT_PRIMES[:3] if tiny else POINT_PRIMES * 6
    # Sizes (ball depths, digit counts) are fixed per slot and the seed picks
    # the values, so the cost of a pass does not depend on the seed.
    for slot, p in enumerate(primes):
        rnd = slot // len(POINT_PRIMES)
        templates = point_templates(rng, p)
        for i, e in enumerate(templates):
            n = 1 + (i + rnd) % 6
            jobs.append(Job(f"eval/t{i}/p{p}", "eval", p, [doc(p, e)],
                            {"n": n, "a": rng.randrange(p**n)}))
        for n in (2, 4, 6):
            jobs.append(Job(f"ball_make/p{p}", "ball_make", p, [],
                            {"x": rat(rand_point(rng, p)), "n": n}))
        for _ in range(2):
            jobs.append(Job(f"point_to_path/p{p}", "point_to_path", p, [],
                            {"x": rat(rand_point(rng, p))}))
        for _ in range(2):
            jobs.append(Job(f"digit_expand/p{p}", "digit_expand", p, [],
                            {"x": rat(rand_point(rng, p)), "count": 16}))
        for arg in ("ball", "point"):
            path = _path_doc(rng, p)
            params = {"path": path}
            if arg == "ball":
                agree = rnd % 6
                digits = [path_digit(path["preperiod"], path["period"], i) for i in range(agree)]
                digits += [rng.randrange(p) for _ in range(3)]
                params["ball"] = {"a": from_digits(digits, p), "n": len(digits)}
            else:
                params["x"] = rat(rand_point(rng, p))
            jobs.append(Job(f"divergence_index/{arg}/p{p}", "divergence_index", p, [], params))
        for _ in range(2):
            jobs.append(Job(f"path_compare/p{p}", "path_compare", p, [],
                            {"a": _path_doc(rng, p), "b": _path_doc(rng, p)}))
        jobs.append(Job(f"encode/p{p}", "encode", p, [doc(p, templates[-1])]))
    # One heavy query a pass: a digit path with a period of about 1700 digits
    # (about 10 ms), far above scheduler noise, so the tail rank falls on it.
    p = POINT_PRIMES[-1]
    q = _full_order_prime(p, 50 if tiny else 1700)
    jobs.append(Job(f"point_to_path/long-period/p{p}", "point_to_path", p, [],
                    {"x": rat(F(rng.randrange(1, q), q))}))
    return jobs


# =====================================================================
# In-process execution
# =====================================================================

class Library:
    """Runs in-process jobs against an imported padicdist package.

    Every call goes through `self.pd.<name>` at call time, so functions
    wrapped by the tracer after construction are the ones called.
    """

    def __init__(self, pd):
        self.pd = pd

    def decode(self, job):
        """Set-up for one job: decode its inputs as a user of the library would."""
        pd = self.pd
        exprs = [pd.load_document(d)[1] for d in job.docs]
        k = job.kind
        if k == "integrate_poly":
            fn = pd.Polynomial(tuple(pd.parse_rational(c) for c in job.params["poly"]))
            return exprs, fn
        if k == "integrate_step":
            st = job.params["step"]
            return exprs, pd.step_fn_from_json(
                {"depth": st["depth"], "values": {str(i): v for i, v in enumerate(st["values"])}}
            )
        if k in ("divergence_index", "path_compare"):
            from padicdist.core import path_from_json
            if k == "divergence_index":
                return exprs, path_from_json(job.params["path"], job.prime)
            return exprs, (path_from_json(job.params["a"], job.prime),
                           path_from_json(job.params["b"], job.prime))
        if k in ("ball_make", "point_to_path", "digit_expand"):
            return exprs, pd.parse_rational(job.params["x"])
        return exprs, None

    def run(self, job, decoded):
        """The timed part of a job: the library call and rendering its result."""
        pd = self.pd
        exprs, extra = decoded
        p, k, prm = job.prime, job.kind, job.params
        if k == "relation":
            return _dumps(pd.check_relation(exprs[0], p, prm["depth"]).to_json_dict())
        if k == "norms":
            return _dumps(pd.norm_scan(exprs[0], p, prm["depth"]).to_json_dict())
        if k == "verdict":
            return _dumps(pd.boundedness_verdict(exprs[0], p, prm["depth"]).to_json_dict())
        if k in ("integrate_poly", "integrate_step"):
            return _dumps(pd.integrate(exprs[0], extra, p, prm["depth"]).to_json_dict())
        if k == "distinct":
            w = pd.distinctness_witness(exprs[0], exprs[1], p, prm["depth"])
            return _dumps({"ball": None if w is None else {"a": w.rep, "n": w.depth}})
        if k == "branch":
            w = pd.check_branch_hypothesis(exprs[0], p, prm["k"], prm["depth"])
            return _dumps(None if w is None else w.to_json_dict())
        if k == "graft":
            g = exprs[0]
            return _dumps(pd.check_graft_precondition(g.left, g.right, g.path, prm["depth"]).to_json_dict())
        if k == "eval":
            return pd.format_rational(pd.evaluate(exprs[0], pd.ball_make(p, prm["n"], prm["a"])))
        if k == "ball_make":
            return str(pd.ball_make(p, prm["n"], extra).rep)
        if k == "point_to_path":
            path = pd.point_to_path(extra, p)
            return f"{list(path.preperiod)}|{list(path.period)}"
        if k == "digit_expand":
            return str(pd.digit_expand(extra, p, prm["count"]))
        if k == "divergence_index":
            if "ball" in prm:
                b = prm["ball"]
                where = pd.ball_make(p, b["n"], b["a"])
            else:
                where = pd.parse_rational(prm["x"])
            d = pd.divergence_index(where, extra)
            return f"{d.kind.value} {d.index}"
        if k == "path_compare":
            return pd.path_compare(*extra).value
        if k == "encode":
            return _dumps(pd.dump_document(p, exprs[0]))
        raise ValueError(k)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def nominal_balls(job, output) -> int:
    """Balls a job covers, from its inputs and its answer only.

    check_relation, norm_scan (and the verdict) to depth D: sum_{n<=D} p^n;
    integrate: sum_{d=1..D} p^d; a search: the rank of its witness ball, or
    the whole search space when there is none; the graft precondition to
    depth D: (D+1)*p balls (the on-path ball and its p-1 siblings per
    level); everything else is one point query.
    """
    p, prm = job.prime, job.params
    k = job.kind
    if k in ("relation", "norms", "verdict"):
        return balls_to_depth(p, prm["depth"])
    if k in ("integrate_poly", "integrate_step"):
        return balls_to_depth(p, prm["depth"], 1)
    if k == "distinct":
        w = json.loads(output)["ball"]
        return balls_to_depth(p, prm["depth"]) if w is None else ball_rank(p, 0, w["n"], w["a"])
    if k == "branch":
        w = json.loads(output)
        space = balls_to_depth(p, prm["depth"], prm["k"])
        if w is None:
            return comb(p ** prm["k"], 2) * space
        pairs_before = sum(p ** prm["k"] - 1 - t for t in range(w["t"])) + (w["s"] - w["t"] - 1)
        return pairs_before * space + ball_rank(p, prm["k"], w["ball"]["n"], w["ball"]["a"])
    if k == "graft":
        return (prm["depth"] + 1) * p
    return 1


# =====================================================================
# Oracles
# =====================================================================

def padic_norm(x, p) -> F:
    """|x|_p, computed independently of padicdist."""
    x = F(x)
    if x == 0:
        return F(0)
    v, num, den = 0, abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return F(1, p**v) if v >= 0 else F(p ** (-v))


def _bernoulli_numbers(k):
    b = [F(1)]
    for j in range(1, k + 1):
        b.append(-sum(comb(j + 1, i) * b[i] for i in range(j)) / (j + 1))
    return b


def ref_value(e, p, n, a) -> F:
    """Value of a spec expression on the ball a + (p^n), from the definitions."""
    t = e["type"]
    q = p**n
    if t == "dirac":
        x = F(e["point"])
        return F(1) if (x.numerator - a * x.denominator) % q == 0 else F(0)
    if t == "haar":
        return F(e["scale"]) / q
    if t == "mazur":
        return F(a, q) - F(1, 2)
    if t == "bernoulli":
        k = e["k"]
        b = _bernoulli_numbers(k)
        x = F(a, q)
        return p ** (n * (k - 1)) * sum(comb(k, j) * b[j] * x ** (k - j) for j in range(k + 1))
    if t == "lincomb":
        return sum((F(c) * ref_value(s, p, n, a) for c, s in e["terms"]), F(0))
    if t == "restrict":
        ca, cn = e["cell"]["a"], e["cell"]["n"]
        if n >= cn:
            return ref_value(e["expr"], p, n, a) if a % p**cn == ca else F(0)
        return ref_value(e["expr"], p, cn, ca) if ca % q == a else F(0)
    if t == "regularize":
        alpha = F(e["alpha"])
        scaled = alpha.numerator * a * pow(alpha.denominator, -1, q) % q if n else 0
        return ref_value(e["expr"], p, n, a) - alpha ** (-e["k"]) * ref_value(e["expr"], p, n, scaled)
    if t == "graft":
        pre, per = e["path"]["preperiod"], e["path"]["period"]
        r = a
        for j in range(n):
            r, d = divmod(r, p)
            pd_ = path_digit(pre, per, j)
            if d != pd_:
                return ref_value(e["left"] if d < pd_ else e["right"], p, n, a)
        return ref_value(e["left"], p, n, a)
    if t == "branch":
        size = p ** e["k"]
        if n >= e["k"]:
            return ref_value(e["children"][str(a % size)], p, n, a)
        return sum((ref_value(e, p, n + 1, a + b * q) for b in range(p)), F(0))
    raise ValueError(t)


def _digits_of(x, p, count):
    x = F(x)
    out = []
    for _ in range(count):
        d = x.numerator * pow(x.denominator, -1, p) % p
        out.append(d)
        x = (x - d) / p
    return out


def _stream(path, i):
    return path_digit(path["preperiod"], path["period"], i)


class Oracle:
    """Checks job outputs; `check` returns None when correct, else the reason."""

    def __init__(self, pd, seed):
        self.pd = pd
        self.rng = random.Random(f"oracle:{seed}")

    def value(self, expr, p, n, a):
        # Scalar evaluate is the oracle for values reported by the checkers.
        return self.pd.evaluate(expr, self.pd.Ball(p, n, a))

    def check(self, job, decoded, output):
        try:
            return getattr(self, "_" + job.kind)(job, decoded, output)
        except Exception as exc:  # an unparsable output is a wrong output
            return f"oracle could not read the output: {type(exc).__name__}: {exc}"

    # ---- sweep ----------------------------------------------------------

    def _relation(self, job, decoded, out):
        d = json.loads(out)
        p, depth = job.prime, job.params["depth"]
        if d["checked_count"] != balls_to_depth(p, depth - 1):
            return "wrong checked_count"
        # Every sweep constructor guarantees additivity.
        if not d["passed"] or d["total_violations"]:
            return "additivity failed for an additive constructor"
        return None

    def _check_scan(self, job, expr, scan):
        p, depth = job.prime, job.params["depth"]
        if [e["depth"] for e in scan["entries"]] != list(range(depth + 1)):
            return "wrong scan depths"
        for e in scan["entries"]:
            n, best = e["depth"], F(e["max_norm"])
            arg = e["argmax"]["a"]
            if padic_norm(self.value(expr, p, n, arg), p) != best:
                return f"max_norm at depth {n} does not match evaluate"
            for _ in range(4):
                r = self.rng.randrange(p**n)
                v = padic_norm(self.value(expr, p, n, r), p)
                if v > best or (r < arg and v == best):
                    return f"ball {r}/{n} beats the reported argmax"
        return None

    def _norms(self, job, decoded, out):
        return self._check_scan(job, decoded[0][0], json.loads(out))

    def _verdict(self, job, decoded, out):
        d = json.loads(out)
        if d["flag"] != job.expect["flag"]:
            return f"flag {d['flag']} != {job.expect['flag']}"
        return self._check_scan(job, decoded[0][0], d["scan"])

    def _integrate_poly(self, job, decoded, out):
        d = json.loads(out)
        (expr,), fn = decoded
        p, depth = job.prime, job.params["depth"]
        sums = [F(s) for s in d["partial_sums"]]
        if len(sums) != depth:
            return "wrong number of partial sums"
        for n in (1, 2):
            want = sum((fn.value_at(a) * self.value(expr, p, n, a) for a in range(p**n)), F(0))
            if sums[n - 1] != want:
                return f"S_{n} does not match evaluate"
        if [F(x) for x in d["diff_norms"]] != [padic_norm(b - a, p) for a, b in zip(sums, sums[1:])]:
            return "diff_norms do not match the partial sums"
        return None

    _integrate_step = _integrate_poly

    # ---- search ---------------------------------------------------------

    def _distinct(self, job, decoded, out):
        got = json.loads(out)["ball"]
        if got != job.expect["witness"]:
            return f"witness {got} != {job.expect['witness']}"
        if got is not None:
            first, second = decoded[0]
            if self.value(first, job.prime, got["n"], got["a"]) == self.value(second, job.prime, got["n"], got["a"]):
                return "the witness ball does not separate the two"
        return None

    def _branch(self, job, decoded, out):
        got = json.loads(out)
        if got != job.expect["witness"]:
            return f"witness {got} != {job.expect['witness']}"
        return None

    def _graft(self, job, decoded, out):
        d = json.loads(out)
        levels = [f["level"] for f in d["tail_sum_failures"]]
        if d["on_path_agreement"] or levels != job.expect["fail_levels"]:
            return f"graft failures at {levels}, expected {job.expect['fail_levels']}"
        if d["passed"] != (not levels) or d["depth_checked"] != job.params["depth"]:
            return "inconsistent graft report"
        return None

    # ---- point ----------------------------------------------------------

    def _eval(self, job, decoded, out):
        want = ref_value(job.docs[0]["expr"], job.prime, job.params["n"], job.params["a"] % job.prime ** job.params["n"])
        return None if F(out) == want else f"value {out} != {rat(want)}"

    def _ball_make(self, job, decoded, out):
        x, q, rep = F(job.params["x"]), job.prime ** job.params["n"], int(out)
        ok = 0 <= rep < q and (x.numerator - rep * x.denominator) % q == 0
        return None if ok else "ball_make rep is not x mod p^n"

    def _point_to_path(self, job, decoded, out):
        pre, per = (json.loads(s) for s in out.split("|"))
        p = job.prime
        head = sum(d * p**i for i, d in enumerate(pre))
        value = head + F(from_digits(per, p) * p ** len(pre), 1 - p ** len(per))
        return None if per and value == F(job.params["x"]) else "path does not sum to the point"

    def _digit_expand(self, job, decoded, out):
        want = _digits_of(job.params["x"], job.prime, job.params["count"])
        return None if json.loads(out) == want else "digits differ"

    def _divergence_index(self, job, decoded, out):
        p, prm = job.prime, job.params
        path = prm["path"]
        if "ball" in prm:
            n = prm["ball"]["n"]
            digits = [(prm["ball"]["a"] // p**i) % p for i in range(n)]
        else:
            # Both streams are periodic past this horizon, so agreeing this
            # far means agreeing forever.
            x = F(prm["x"])
            horizon = 64 + len(path["preperiod"])
            digits = _digits_of(x, p, horizon)
        want = f"never {len(digits)}"
        for i, d in enumerate(digits):
            if d != _stream(path, i):
                want = "first-digit-differs None" if i == 0 else f"splits-after {i - 1}"
                break
        if "x" in prm and want.startswith("never"):
            return None if out.startswith("never") else f"{out} != {want}"
        return None if out == want else f"{out} != {want}"

    def _path_compare(self, job, decoded, out):
        a, b = job.params["a"], job.params["b"]
        horizon = 8 + max(len(a["preperiod"]), len(b["preperiod"])) + 6 * 6
        want = "equal"
        for i in range(horizon):
            if _stream(a, i) != _stream(b, i):
                want = "less" if _stream(a, i) < _stream(b, i) else "greater"
                break
        return None if out == want else f"{out} != {want}"

    def _encode(self, job, decoded, out):
        return None if json.loads(out) == job.docs[0] else "serialize round trip changed the spec"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
