"""The three benchmark workloads and the checks on their outputs.

Each workload is a fixed list of ops built from the workload seed before any
timing starts.  An op is one call into starpal's public API plus a check of
what the call returned.  The runner in run.py times each call and runs its
check right after it, outside the call's latency.

The workloads reach starpal through module attributes at call time
(``starpal.is_good``, ``starpal.cli.main``, ...), never through references
captured at import, so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import starpal
import starpal.cli


@dataclass
class Op:
    """One timed call and the untimed check of its result.

    ``refusable`` marks ops whose budget refusal is an expected outcome (the
    decider's ``BudgetExceeded``); on any other op a refusal is a failure.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    refusable: bool = False


# ---------------------------------------------------------------- decide

# A refusal costs about 40 ms at this budget.  Near-extremal k=7 blow-ups
# exhaust it, and so do the slowest bad verdicts at k=6..7.
DECIDE_NODE_BUDGET = 250_000

# Frozen small bad palettes: (name, colors, triples, least k it is S_k-bad for).
# S_j-bad implies S_k-bad for k >= j, since S_j is a sub-3-graph of S_k.
DECIDE_BASES = (
    ("q2", 2, "010 101", 3),                                          # 1/4
    ("q3a", 3, "010 012 101 121 210 212", 3),                         # 2/9
    ("q3b", 3, "010 012 020 021 101 102 121 202 210 212", 5),         # 10/27
    ("q3c", 3, "010 012 020 021 101 102 120 121 201 202 210 212", 7),  # 4/9
)
DECIDE_COLORS = (4, 5, 6)
DECIDE_ADDITIONS = (0, 1, 2)
DECIDE_DELETE_P = 0.1
# Items per (base, k, m, additions) cell, 2,655 in all.  The near-extremal
# cells, where the decider runs out of budget, get more items each so that
# refusals stay well above 5% of all ops and op_p95_ms lands among them on
# every seed.  Op cost spreads over two orders of magnitude, so the median op
# moves with the seed's mix of items: over twelve seeds the interquartile
# range of the median op's node count was 18% of it with 531 items and 8%
# with 1,314.  This many items keep that share of op_p50_ms small.
DECIDE_REPS = 20
DECIDE_NEAR_EXTREMAL_REPS = 25
DECIDE_NEAR_EXTREMAL = {("q3b", 6), ("q3b", 7), ("q3c", 7)}


def parse_base(m0: int, text: str) -> starpal.Palette:
    return starpal.Palette(m0, frozenset(tuple(int(c) for c in w) for w in text.split()))


def blow_up(base: starpal.Palette, m: int, rng: random.Random) -> set[tuple[int, int, int]]:
    """Triples of a random m-color blow-up of base, colors randomly relabeled.

    Every base color gets at least one copy.  Projecting a witness coloring of
    the blow-up through the copy map gives a witness for the base, so a
    blow-up of an S_k-bad palette is S_k-bad.
    """
    m0 = base.num_colors
    copy_of = list(range(m0)) + [rng.randrange(m0) for _ in range(m - m0)]
    rng.shuffle(copy_of)
    return {(a, b, c) for a in range(m) for b in range(m) for c in range(m)
            if (copy_of[a], copy_of[b], copy_of[c]) in base.triples}


@dataclass(frozen=True)
class DecideItem:
    palette: starpal.Palette
    k: int
    base: str
    additions: int


def decide_items(seed: int, tiny: bool = False) -> list[DecideItem]:
    """The seeded decide inputs; calls no decider on any of them."""
    rng = random.Random(seed)
    items = []
    for name, m0, text, kmin in DECIDE_BASES:
        base = parse_base(m0, text)
        for k in range(kmin, 5 if tiny else 8):
            near = (name, k) in DECIDE_NEAR_EXTREMAL
            reps = DECIDE_NEAR_EXTREMAL_REPS if near else DECIDE_REPS
            for m in DECIDE_COLORS[:1] if tiny else DECIDE_COLORS:
                for adds in DECIDE_ADDITIONS:
                    for _ in range(1 if tiny else reps):
                        triples = {t for t in blow_up(base, m, rng)
                                   if rng.random() >= DECIDE_DELETE_P}
                        absent = [t for t in starpal.iter_all_triples(m) if t not in triples]
                        triples.update(rng.sample(absent, adds))
                        items.append(DecideItem(starpal.Palette(m, frozenset(triples)),
                                                k, name, adds))
    rng.shuffle(items)
    return items


def check_decide_bases(ks: set[int]) -> None:
    """Untimed sanity check: every frozen base is bad for every k it serves."""
    for name, m0, text, kmin in DECIDE_BASES:
        base = parse_base(m0, text)
        for k in sorted(kk for kk in ks if kk >= kmin):
            if starpal.is_good(base, starpal.make_star(k)) is not None:
                raise RuntimeError(f"frozen base {name} is not S_{k}-bad")


def bad_verdict_holds(p: starpal.Palette, k: int) -> bool:
    """Criterion-6 property of a bad palette: its aux digraph has no loop and no T_k."""
    d = starpal.aux_digraph(p, starpal.AuxPolicy.LITERAL)
    return starpal.has_loop(d) is None and starpal.is_tk_free(d, k)


def decide_ops(seed: int, tiny: bool = False) -> list[Op]:
    items = decide_items(seed, tiny)
    check_decide_bases({it.k for it in items})
    stars = {k: starpal.make_star(k) for k in {it.k for it in items}}
    ops = []
    for it in items:
        star = stars[it.k]

        def call(p=it.palette, star=star):
            return starpal.is_good(p, star, node_budget=DECIDE_NODE_BUDGET)

        def check(w, it=it, star=star):
            if w is not None:
                return it.additions > 0 and starpal.verify_witness(it.palette, star, w)
            return bad_verdict_holds(it.palette, it.k)

        ops.append(Op(f"is_good {it.base} m={it.palette.num_colors} k={it.k} +{it.additions}",
                      call, check, refusable=True))
    return ops


# ---------------------------------------------------------------- extremal

def _search_op(label: str, cfg: starpal.SearchConfig, best: Fraction | None,
               examined: int | None = None) -> Op:
    """An exhaustive search op must return the known certified optimum; a local
    one must return a palette that is really bad."""

    def call():
        return starpal.search(cfg)

    def check(rep) -> bool:
        p = rep.best_palette
        if rep.best_objective != p.density:
            return False
        if best is not None:
            return (rep.exhaustive_certificate and rep.best_objective == best
                    and (examined is None or rep.num_candidates_examined == examined))
        return (not rep.exhaustive_certificate
                and starpal.is_good(p, starpal.make_star(cfg.k)) is None
                and bad_verdict_holds(p, cfg.k))

    return Op(label, call, check)


def extremal_ops(seed: int, tiny: bool = False) -> list[Op]:
    """The four searches of ``starpal search``; they take no random input.

    The local search runs with a fixed seed and 100 iterations: its cost
    moves by +-35% with the seed, and with four ops the seed then set
    op_p50_ms; at 400 iterations seed 0 alone takes 7 s.  So the workload seed
    does not change this job list.
    """
    bfs = dict(num_colors=3, dedup=True, allow_large_exhaustive=True)
    ops = [_search_op("search exhaustive m=2 k=3", starpal.SearchConfig(k=3, num_colors=2),
                      Fraction(1, 4), 256),
           _search_op("search dedup-bfs m=3 k=3", starpal.SearchConfig(k=3, **bfs),
                      Fraction(2, 9))]
    if not tiny:
        ops.append(_search_op("search dedup-bfs m=3 k=5",
                              starpal.SearchConfig(k=5, **bfs), Fraction(10, 27)))
    ops.append(_search_op(
        "search local m=5 k=5",
        starpal.SearchConfig(k=5, num_colors=5, mode="local", seed=0,
                             iteration_budget=20 if tiny else 100), None))
    return ops


# ---------------------------------------------------------------- verify

# Expected `starpal verify --json` results: (lemma, max_n, k) -> (exit code,
# checked, violations).  tk-square at k=4 is the documented false inequality
# (see README): 486 of the 3,622 T4-free digraphs on <= 4 vertices violate it,
# and the CLI must say so with exit code 1.
VERIFY_CLI = {
    ("caro-wei", 4, 3): (0, None, 0),
    ("caro-wei", 4, 4): (0, None, 0),
    ("tk-square", 4, 4): (1, 3622, 486),
    ("brown-harary", 5, 3): (0, 3, 0),
    ("brown-harary", 5, 4): (0, 2, 0),
}
VERIFY_CLI_TINY = {
    ("caro-wei", 3, 3): (0, None, 0),
    ("brown-harary", 4, 3): (0, 2, 0),
}
G_POINTS = 1000
G_KS = range(4, 16)
AUDIT_KS = (5, 6, 7)
AUDIT_3COLOR_PER_K = 10
TRIPARTITE = ((9, Fraction(0), Fraction(1, 4)),
              (30, Fraction(1, 30), Fraction(21, 25)),
              (90, Fraction(1, 90), Fraction(1688, 675)))


def _cli_op(lemma: str, max_n: int, k: int, expect: tuple) -> Op:
    argv = ["verify", "--lemma", lemma, "--max-n", str(max_n), "--k", str(k), "--json"]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = starpal.cli.main(argv)
        return code, out.getvalue()

    def check(result) -> bool:
        code, text = result
        doc = json.loads(text)
        want_code, want_checked, want_violations = expect
        return (code == want_code and doc["violations"] == want_violations
                and (want_checked is None or doc["checked"] == want_checked)
                and doc["all_hold"] == (want_violations == 0))

    return Op(f"cli verify {lemma} n<={max_n} k={k}", call, check)


def _g_op(k: int, xs: list[Fraction]) -> Op:
    # The two equality points of the bound ride along at the end of the list.
    eq = [Fraction(k - 2), Fraction(2, k - 3)]

    def call():
        return starpal.g_inequality_check(k, xs + eq)

    def check(rep) -> bool:
        return (rep.identity_ok and rep.nonneg_ok and len(rep.entries) == len(xs) + 2
                and all(e.residual == 0 for e in rep.entries[-2:]))

    return Op(f"g_inequality_check k={k} points={len(xs) + 2}", call, check)


def _audit_op(p: starpal.Palette, k: int) -> Op:
    target = starpal.target_density(k)

    def call():
        return starpal.audit_chain(p, k)

    def check(rep) -> bool:
        if not rep.step("product_identity").holds:
            return False
        if rep.is_bad and rep.min_degree >= Fraction(1, 4):
            final = rep.step("final_target")
            return final.premise_ok and final.holds and final.rhs == target
        return True

    return Op(f"audit_chain m={p.num_colors} k={k}", call, check)


def _tripartite_op(n: int, eps: Fraction, sum_sq: Fraction) -> Op:
    def call():
        return starpal.tripartite_report(n, eps)

    def check(rep) -> bool:
        return rep.t4_free and rep.sum_sq == sum_sq and rep.equals_closed_form

    return Op(f"tripartite_report n={n}", call, check)


def verify_ops(seed: int, tiny: bool = False) -> list[Op]:
    rng = random.Random(seed)
    ops = [_cli_op(*key, expect) for key, expect in
           (VERIFY_CLI_TINY if tiny else VERIFY_CLI).items()]
    for k in list(G_KS)[:2] if tiny else G_KS:
        xs = [Fraction(rng.randrange(10 ** 6), rng.randrange(1, 10 ** 4))
              for _ in range(10 if tiny else G_POINTS)]
        ops.append(_g_op(k, xs))
    universe = list(starpal.iter_all_triples(2))
    two_color = [starpal.Palette(2, frozenset(t for i, t in enumerate(universe) if bits >> i & 1))
                 for bits in range(1 << 8)]
    for k in AUDIT_KS[:1] if tiny else AUDIT_KS:
        ops.extend(_audit_op(p, k) for p in (two_color[::16] if tiny else two_color))
        # Half random bad 3-color palettes, half random ones (mostly good).
        for i in range(1 if tiny else AUDIT_3COLOR_PER_K):
            if i % 2:
                p = starpal.random_bad_palette(k, 3, rng)
            else:
                dens = rng.uniform(0.1, 0.5)
                p = starpal.Palette(3, frozenset(t for t in starpal.iter_all_triples(3)
                                                 if rng.random() < dens))
            ops.append(_audit_op(p, k))
    ops.extend(_tripartite_op(*args) for args in (TRIPARTITE[:1] if tiny else TRIPARTITE))
    return ops


BUILDERS = {"decide": decide_ops, "extremal": extremal_ops, "verify": verify_ops}
