"""Exact-rational audit of the density bound argument for star-bad palettes.

Everything here recomputes, from first principles, the quantities appearing
in the written chain of inequalities that bounds the density of an S_k-bad
palette with minimum degree at least 1/4, and reports exactly which links
hold for a concrete palette.  Steps whose justification depends on the
auxiliary-digraph rule set are evaluated under both rule sets (AuxPolicy);
the audit records outcomes and never guesses which variant was intended.

Notation used throughout (palette with m colors, e_{i,j}(a) = d_{i,j}(a)/m):
  f1(a) = e_{1,2} e_{1,3} - (e_{1,2} + e_{1,3}) / 2     (all at a)
  f2(a) = e_{2,1} e_{2,3} - (e_{2,1} + e_{2,3}) / 2
  f3(a) = e_{3,1} e_{3,2} - (e_{3,1} + e_{3,2}) / 2
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .digraphs import AuxPolicy, _find_tk, _loop_vertex, _policy_masks
from .errors import _Budget
from .goodness import DEFAULT_NODE_BUDGET, _star_bad
from .palette import (Palette, PaletteStats, _arcs, _aux_masks, _degrees, _projections,
                      compute_stats, remove_color)


def target_density(k: int) -> Fraction:
    """The proved density ceiling (k^2 - 5k + 7) / (k - 1)^2 for S_k-bad palettes."""
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    return Fraction(k * k - 5 * k + 7, (k - 1) ** 2)


def stars_bounds(k: int) -> tuple[Fraction, Fraction]:
    """(lower, upper) density bounds for S_k: the target and ((k-2)/(k-1))^2."""
    return target_density(k), Fraction((k - 2) ** 2, (k - 1) ** 2)


@dataclass(frozen=True)
class XSetCounts:
    """Counts of the three exclusion sets, their pairwise meets, and their union.

    X1 holds the triples (a,b,c) whose (b,c) is not a (2,3)-admissible pair,
    X2 those whose (a,c) is not (1,3)-admissible, X3 those whose (a,b) is not
    (1,2)-admissible.  Every admissible triple avoids all three.
    """

    x1: int
    x2: int
    x3: int
    x12: int
    x13: int
    x23: int
    union: int


def x_sets(p: Palette) -> XSetCounts:
    """Count the exclusion sets from the co-degrees of p, without enumerating C^3.

    Each single set has a closed form and a mirrored one (the two orders of
    its position pair); their disagreement is an internal error
    (RuntimeError), never a report entry.
    """
    return _x_sets(compute_stats(p), _projections(_aux_masks(p.num_colors, p.triples)))


def _x_sets(stats: PaletteStats, rows: tuple[list[int], list[int], list[int]]) -> XSetCounts:
    """x_sets from stats = compute_stats(p) and rows = `_projections` of p's aux masks."""
    m = stats.num_colors
    # Co-degrees m - d_{i,j}, in the POSITION_PAIRS order of adm_degree.
    c12, c13, c21, c23, c31, c32 = ([m - d for d in row] for row in stats.adm_degree)
    for key, form, mirrored in (("x1", c23, c32), ("x2", c13, c31), ("x3", c12, c21)):
        if sum(form) != sum(mirrored):
            raise RuntimeError(f"internal error: |{key}| is {m * sum(form)} by its closed "
                               f"form but {m * sum(mirrored)} by the mirrored one")

    def dot(u: list[int], v: list[int]) -> int:
        return sum(x * y for x, y in zip(u, v))

    # (a, b, c) is outside the union iff (a, b), (a, c) and (b, c) are
    # (1,2)-, (1,3)- and (2,3)-admissible: count the c per (a, b) on the rows.
    r12, r13, r23 = rows
    outside = sum((r13[a] & r23[b]).bit_count() for a, b in _arcs(r12))
    return XSetCounts(m * sum(c23), m * sum(c13), m * sum(c12), dot(c31, c32),
                      dot(c21, c23), dot(c12, c13), m ** 3 - outside)


@dataclass(frozen=True)
class FValues:
    """Per-color values of f1, f2, f3 (exact rationals, indexed by color)."""

    f1: tuple[Fraction, ...]
    f2: tuple[Fraction, ...]
    f3: tuple[Fraction, ...]

    def total(self) -> Fraction:
        return sum(self.f1, Fraction(0)) + sum(self.f2, Fraction(0)) + sum(self.f3, Fraction(0))


def f_values(p: Palette) -> FValues:
    den = 4 * p.num_colors ** 2
    return FValues(*(tuple(Fraction(v, den) for v in f)
                     for f in _f_numerators(compute_stats(p))))


def _f_numerators(stats: PaletteStats) -> tuple[tuple[int, ...], ...]:
    """(f1, f2, f3), each per color as a numerator over 4 m^2.

    With e = d/m, e e' - (e + e')/2 = (4 d d' - 2m (d + d')) / (4 m^2).
    """
    m = stats.num_colors
    d12, d13, d21, d23, d31, d32 = stats.adm_degree  # in POSITION_PAIRS order
    return tuple(tuple(4 * x * y - 2 * m * (x + y) for x, y in zip(u, v))
                 for u, v in ((d12, d13), (d21, d23), (d31, d32)))


@dataclass(frozen=True)
class AuditStep:
    """One audited link, oriented as lhs <= rhs (equality steps note it)."""

    step_id: str
    lhs: Fraction
    rhs: Fraction
    holds: bool
    premise_ok: bool
    note: str = ""

    @property
    def residual(self) -> Fraction:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class ColorRow:
    """Per-color audit data; case 1 means min(e_{2,1}, e_{2,3}) >= 1/2."""

    color: int
    f1: Fraction
    f2: Fraction
    f3: Fraction
    case: int
    s1: Fraction
    s3: Fraction
    e21: Fraction
    e23: Fraction


@dataclass(frozen=True)
class PolicyData:
    """Auxiliary-digraph facts recorded per arc rule set."""

    policy: AuxPolicy
    loop_vertex: Optional[int]
    d_tk_free: bool
    d1_tk_free: bool
    d2_tk_free: bool
    m_d: tuple[Fraction, ...]
    m_d1: tuple[Fraction, ...]
    m_d2: tuple[Fraction, ...]


@dataclass(frozen=True)
class AuditReport:
    k: int
    num_colors: int
    density: Fraction
    min_degree: Fraction
    is_bad: bool
    delta_premise_ok: bool
    x_counts: XSetCounts
    exclusion_bound: int
    ie_bound: int
    color_rows: tuple[ColorRow, ...]
    policies: tuple[PolicyData, ...]
    steps: tuple[AuditStep, ...]

    @property
    def premised_steps_hold(self) -> bool:
        """True when every step whose premises are satisfied holds."""
        return all(s.holds for s in self.steps if s.premise_ok)

    def step(self, step_id: str) -> AuditStep:
        for s in self.steps:
            if s.step_id == step_id:
                return s
        raise KeyError(step_id)


def audit_chain(p: Palette, k: int, *,
                node_budget: int = DEFAULT_NODE_BUDGET) -> AuditReport:
    """Audit the whole bound chain for palette p against the S_k target.

    Every step is evaluated even when its premises fail; failed premises only
    mark the step's premise_ok flag.  Policy-dependent steps carry a
    `.literal` / `.observation` suffix and are computed under both rule sets.

    The chain is evaluated in integers.  A palette degree d gives e = d/n
    and aux-digraph degrees give m = x/(2n) on D and m = y/n on a block,
    so each per-color quantity is an integer over q = 4n^2 and each
    step compares two integers over one positive denominator.  Fractions are
    built only for the reported fields.

    node_budget bounds the whole audit: one budget is charged |P| and one per
    node of the four T_k searches (the blocks D1, D2 and D under each rule set).
    A smaller budget raises BudgetExceeded, and one below 1 ValueError.
    """
    if k < 5:
        raise ValueError(f"the audited chain needs k >= 5, got {k}")
    budget = _Budget(node_budget)
    n = p.num_colors
    stats = compute_stats(p)
    t = len(p.triples)
    budget.spend(t)
    delta_ok = 4 * min(map(min, stats.slice_counts)) >= n * n
    out = _aux_masks(n, p.triples)
    r12, r13, r23 = _projections(out)
    xs = _x_sets(stats, (r12, r13, r23))
    f1, f2, f3 = _f_numerators(stats)
    d12, d13, d21, d23, d31, d32 = stats.adm_degree  # in POSITION_PAIRS order
    # An audit reports about a hundred rationals but only a dozen or two
    # distinct ones, so one cache per audit builds each of them once.
    fr = functools.lru_cache(maxsize=None)(Fraction)

    def agg(step_id: str, items: list[tuple[int, int]], den: int, *,
            premise_ok: bool = True, note: str = "") -> AuditStep:
        """One step from (lhs, rhs) numerators over den > 0: the first pair of
        least residual rhs - lhs is reported, and all pairs hold iff it does."""
        if not items:
            return AuditStep(step_id, fr(0, 1), fr(0, 1), True, premise_ok, note or "vacuous")
        lhs, rhs = min(items, key=lambda pair: pair[1] - pair[0])
        return AuditStep(step_id, fr(lhs, den), fr(rhs, den), lhs <= rhs, premise_ok, note)

    q = 4 * n * n
    cube = n ** 3
    colors = range(n)
    # Slot sums: s1 = sum1/(2n), s3 = sum3/(2n), and (s - 1/2)^2 - 1/4 = s(s - 1).
    sum1 = tuple(x + y for x, y in zip(d12, d13))
    sum3 = tuple(x + y for x, y in zip(d31, d32))
    cases = [1 if 2 * min(x, y) >= n else 2 for x, y in zip(d21, d23)]
    cprime = [a for a in colors if cases[a] == 1]
    cdouble = [a for a in colors if cases[a] == 2]

    rows = tuple(ColorRow(
        color=a,
        f1=fr(f1[a], q), f2=fr(f2[a], q), f3=fr(f3[a], q),
        case=cases[a],
        s1=fr(sum1[a], 2 * n), s3=fr(sum3[a], 2 * n),
        e21=fr(d21[a], n), e23=fr(d23[a], n),
    ) for a in colors)

    exclusion_bound = cube - xs.union
    ie_bound = cube - (xs.x1 + xs.x2 + xs.x3) + (xs.x12 + xs.x13 + xs.x23)
    # 1 + (f1 + f2 + f3 summed over the colors) / n, over 4n^3.
    f_bound = 4 * cube + sum(f1) + sum(f2) + sum(f3)
    steps = [
        agg("exclusion_bound", [(t, exclusion_bound)], 1,
            note="admissible triples avoid all three exclusion sets"),
        agg("bonferroni", [(exclusion_bound, ie_bound)], 1,
            note="union lower-bounded by singles minus pairs"),
        AuditStep("product_identity", fr(ie_bound, cube), fr(f_bound, 4 * cube),
                  4 * ie_bound == f_bound, True,
                  "equality: inclusion-exclusion bound rewritten through f1+f2+f3"),
        agg("density_vs_f_sum", [(4 * t, f_bound)], 4 * cube),
        agg("f1_square", [(f1[a], sum1[a] * (sum1[a] - 2 * n)) for a in colors], q),
        agg("f3_square", [(f3[a], sum3[a] * (sum3[a] - 2 * n)) for a in colors], q),
        agg("mean_premise", [(n, s) for s in sum1 + sum3], 2 * n,
            premise_ok=delta_ok,
            note="slot means at least 1/2; expected from min degree >= 1/4"),
        agg("f2_case1",
            [(f2[a], 2 * (d21[a] * (d21[a] - n) + d23[a] * (d23[a] - n))) for a in cprime], q),
    ]
    case2_premise = all(4 * d21[a] * d23[a] >= n * n for a in cdouble)
    steps.append(agg("f2_case2", [(f2[a], -n * n) for a in cdouble], q,
                     premise_ok=case2_premise and delta_ok,
                     note="needs e21*e23 >= min degree >= 1/4"))

    # 1/4 + 3 (k-3)^2 / (4 (k-1)^2) and the target, over 4 (k-1)^2.
    target = target_density(k)
    assembled_target = (k - 1) ** 2 + 3 * (k - 3) ** 2
    steps.append(AuditStep(
        "target_value_identity", fr(assembled_target, 4 * (k - 1) ** 2), target,
        assembled_target == 4 * (k * k - 5 * k + 7), True,
        "equality: 1/4 + 3 (k-3)^2 / (4 (k-1)^2) equals the target"))

    # D on 2n vertices is `_policy_masks(out, policy)`; its blocks D1 (first n) and
    # D2 (last n) are LITERAL's rows R23 and R12, swapped under OBSERVATION, so each
    # block is searched once and its degrees are its rows' palette degrees.
    blocks = [((d23, d32), _find_tk(r23, k, budget) is None),
              ((d12, d21), _find_tk(r12, k, budget) is None)]
    policy_data = []
    for policy, (((outs1, ins1), tk_d1), ((outs2, ins2), tk_d2)) in (
            (AuxPolicy.LITERAL, blocks), (AuxPolicy.OBSERVATION, blocks[::-1])):
        suffix = policy.value
        d_out = _policy_masks(out, policy)
        outs, ins = _degrees(d_out)
        # m-value numerators: m_d = x/(2n), m_d1 = y1/n, m_d2 = y2/n.
        x, y1, y2 = ([max(o, i) for o, i in zip(*degs)]
                     for degs in ((outs, ins), (outs1, ins1), (outs2, ins2)))
        tk_d = _find_tk(d_out, k, budget) is None
        policy_data.append(PolicyData(
            policy=policy,
            loop_vertex=_loop_vertex(d_out),
            d_tk_free=tk_d, d1_tk_free=tk_d1, d2_tk_free=tk_d2,
            m_d=tuple(fr(v, 2 * n) for v in x),
            m_d1=tuple(fr(v, n) for v in y1),
            m_d2=tuple(fr(v, n) for v in y2),
        ))

        # Which degree identities actually back this rule set on this palette.
        # Two hold by construction per rule set (the block ones under LITERAL,
        # the whole-digraph ones under OBSERVATION); the other two are
        # palette-dependent, so they gate the steps that lean on them as the
        # premise_ok flags of slot1_vs_m, slot3_vs_m, e21_vs_m2 and e23_vs_m1.
        ident_slot1 = outs[:n] == sum1
        ident_slot3 = ins[n:] == sum3
        ident_e21 = ins2 == d21
        ident_e23 = outs1 == d23

        slot1 = agg(f"slot1_vs_m.{suffix}", [(sum1[a], x[a]) for a in colors], 2 * n,
                    premise_ok=ident_slot1,
                    note="backed by the whole-digraph out-degree identity")
        slot3 = agg(f"slot3_vs_m.{suffix}", [(sum3[a], x[n + a]) for a in colors], 2 * n,
                    premise_ok=ident_slot3,
                    note="backed by the whole-digraph in-degree identity")
        # The squared comparison needs the slot mean on the increasing branch,
        # which the min-degree premise supplies.
        f1_dig = agg(f"f1_digraph.{suffix}",
                     [(f1[a], x[a] * (x[a] - 2 * n)) for a in colors], q,
                     premise_ok=delta_ok and slot1.holds)
        f3_dig = agg(f"f3_digraph.{suffix}",
                     [(f3[a], x[n + a] * (x[n + a] - 2 * n)) for a in colors], q,
                     premise_ok=delta_ok and slot3.holds)
        e21_step = agg(f"e21_vs_m2.{suffix}", [(d21[a], y2[a]) for a in cprime], n,
                       premise_ok=ident_e21,
                       note="backed by the second-block in-degree identity")
        e23_step = agg(f"e23_vs_m1.{suffix}", [(d23[a], y1[a]) for a in cprime], n,
                       premise_ok=ident_e23,
                       note="backed by the first-block out-degree identity")
        f2c1_dig = agg(f"f2_case1_digraph.{suffix}",
                       [(f2[a], 2 * (y2[a] * (y2[a] - n) + y1[a] * (y1[a] - n)))
                        for a in cprime], q,
                       premise_ok=e21_step.holds and e23_step.holds)
        steps.extend([slot1, slot3, f1_dig, f3_dig, e21_step, e23_step, f2c1_dig])

        # Squared excesses over q: (m - 1/2)^2 is (x - n)^2 on D, (2y - n)^2 on a block.
        sq_d = sum((v - n) ** 2 for v in x)
        sq_d1 = sum((2 * y1[a] - n) ** 2 for a in cprime)
        sq_d2 = sum((2 * y2[a] - n) ** 2 for a in cprime)
        steps.append(agg(f"f2_sum.{suffix}", [(2 * sum(f2), sq_d1 + sq_d2 - 2 * cube)], 2 * q,
                         premise_ok=case2_premise and delta_ok and e21_step.holds
                         and e23_step.holds))
        # 1/4 + sq_d / (n q) + (sq_d1 + sq_d2) / (2n q), over 8n^3.
        steps.append(agg(f"assembled.{suffix}",
                         [(8 * t, 2 * cube + 2 * sq_d + sq_d1 + sq_d2)], 8 * cube,
                         premise_ok=case2_premise and delta_ok and slot1.holds
                         and slot3.holds and e21_step.holds and e23_step.holds))

        coverage_full = agg(f"coverage_full.{suffix}",
                            [(4 * n, v * (k - 1)) for v in x], 2 * n * (k - 1),
                            premise_ok=delta_ok and slot1.holds and slot3.holds,
                            note="every vertex of the auxiliary digraph reaches the threshold")
        coverage_cprime = agg(f"coverage_cprime.{suffix}",
                              [(2 * n, y1[a] * (k - 1)) for a in cprime]
                              + [(2 * n, y2[a] * (k - 1)) for a in cprime], n * (k - 1),
                              premise_ok=e21_step.holds and e23_step.holds)
        # The lemma bound (k-3)^2 / (4 (k-1)^2) per vertex, over q (k-1)^2.
        lemma = cube * (k - 3) ** 2
        steps.extend([
            coverage_full, coverage_cprime,
            agg(f"square_sum_d.{suffix}", [(sq_d * (k - 1) ** 2, 2 * lemma)], q * (k - 1) ** 2,
                premise_ok=tk_d and coverage_full.holds),
            agg(f"square_sum_d1.{suffix}", [(sq_d1 * (k - 1) ** 2, lemma)], q * (k - 1) ** 2,
                premise_ok=tk_d1 and coverage_cprime.holds),
            agg(f"square_sum_d2.{suffix}", [(sq_d2 * (k - 1) ** 2, lemma)], q * (k - 1) ** 2,
                premise_ok=tk_d2 and coverage_cprime.holds),
        ])

    bad = policy_data[0].loop_vertex is None and policy_data[0].d_tk_free
    steps.append(agg(
        "final_target", [(t * (k - 1) ** 2, cube * (k * k - 5 * k + 7))], cube * (k - 1) ** 2,
        premise_ok=bad and delta_ok,
        note="density against the S_k target; premises: bad palette, min degree >= 1/4"))

    return AuditReport(
        k=k,
        num_colors=n,
        density=p.density,
        min_degree=stats.min_degree,
        is_bad=bad,
        delta_premise_ok=delta_ok,
        x_counts=xs,
        exclusion_bound=exclusion_bound,
        ie_bound=ie_bound,
        color_rows=rows,
        policies=tuple(policy_data),
        steps=tuple(steps),
    )


@dataclass(frozen=True)
class GEntry:
    """One evaluation point of the square-versus-line comparison."""

    x: Fraction
    g: Fraction
    bound: Fraction
    residual: Fraction
    cleared: Fraction
    factored: Fraction
    identity_holds: bool
    in_range: bool
    nonneg_holds: bool


@dataclass(frozen=True)
class GInequalityReport:
    k: int
    entries: tuple[GEntry, ...]
    identity_ok: bool
    nonneg_ok: bool


def g_inequality_check(k: int, xs: Iterable[Fraction]) -> GInequalityReport:
    """Check g(x) = (x/(x+1) - 1/2)^2 against its linear bound at given points.

    The bound is (k-3)/(k-1)^3 * x + (k-3)(k^2-8k+11) / (4 (k-1)^3).  After
    clearing the (x+1)^2 denominator, bound - g(x) is identically
    (x-(k-2))^2 ((k-3)x - 2) / ((k-1)^3 (x+1)^2).  The reported fields are
    g, bound, residual = bound - g, cleared = (x+1)^2 (4(k-3)x +
    (k-3)(k^2-8k+11)) - (k-1)^3 (x-1)^2 and factored = (x-(k-2))^2
    ((k-3)x - 2).

    Each point is evaluated in integers: with x = a/b in lowest terms
    (b > 0) and s = a + b,
      cleared * b^3 = s^2 (4(k-3)a + (k-3)(k^2-8k+11)b) - (k-1)^3 (a-b)^2 b,
      factored * b^3 = (a-(k-2)b)^2 ((k-3)a - 2b).
    These two integers are computed independently of each other, and the
    identity check compares cleared * b^3 with 4 * factored * b^3.  The
    residual is cleared * b^3 / (4 (k-1)^3 b s^2); that denominator is
    positive, so the residual has the sign of cleared * b^3.  Nonnegativity
    is asserted only in range, x >= 2/(k-3), tested as (k-3)a >= 2b.
    Fractions are built only for the reported fields.  x = -1 (s = 0) is a
    pole and is rejected.
    """
    if k < 4:
        raise ValueError(f"k must be at least 4, got {k}")
    q = k - 3
    cube = (k - 1) ** 3
    qc = q * (k * k - 8 * k + 11)
    entries = []
    for x in xs:
        x = Fraction(x)
        a, b = x.numerator, x.denominator
        s = a + b
        if s == 0:
            raise ValueError("x = -1 is a pole of g and cannot be evaluated")
        b3 = b * b * b
        cleared_b3 = s * s * (4 * q * a + qc * b) - cube * (a - b) ** 2 * b
        factored_b3 = (a - (k - 2) * b) ** 2 * (q * a - 2 * b)
        in_range = q * a >= 2 * b
        entries.append(GEntry(
            x=x,
            g=Fraction((a - b) ** 2, 4 * s * s),
            bound=Fraction(4 * q * a + qc * b, 4 * cube * b),
            residual=Fraction(cleared_b3, 4 * cube * b * s * s),
            cleared=Fraction(cleared_b3, b3),
            factored=Fraction(factored_b3, b3),
            identity_holds=cleared_b3 == 4 * factored_b3,
            in_range=in_range,
            nonneg_holds=cleared_b3 >= 0 if in_range else True,
        ))
    return GInequalityReport(
        k=k,
        entries=tuple(entries),
        identity_ok=all(en.identity_holds for en in entries),
        nonneg_ok=all(en.nonneg_holds for en in entries),
    )


def minimality_check(p: Palette) -> Optional[int]:
    """The least color whose removal does not strictly decrease density, or
    None when p is minimal: every color removal strictly decreases density.

    A single-color palette is minimal by convention (no removal is possible).
    """
    if p.num_colors == 1:
        return None
    d = p.density
    for a in range(p.num_colors):
        if remove_color(p, a).density >= d:
            return a
    return None


@dataclass(frozen=True)
class ClaimReport:
    k: int
    delta: Fraction
    rhs: Fraction
    is_minimal: bool
    is_bad: bool
    holds: bool


def claim_check(p: Palette, k: int) -> ClaimReport:
    """Evaluate min_degree >= 3 * density - (2k-3)/(k-1) on p.

    Both sides are exact.  The inequality is only an expectation for palettes
    that are S_k-bad and minimal; the report records those flags and the raw
    verdict regardless.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    stats = compute_stats(p)
    rhs = 3 * p.density - Fraction(2 * k - 3, k - 1)
    bad = _star_bad(p, k)
    return ClaimReport(
        k=k,
        delta=stats.min_degree,
        rhs=rhs,
        is_minimal=minimality_check(p) is None,
        is_bad=bad,
        holds=stats.min_degree >= rhs,
    )


def _flag(b: bool) -> str:
    return "true" if b else "false"


def format_audit_text(report: AuditReport) -> str:
    """Human-oriented table rendering of an audit report."""
    lines = []
    lines.append(f"audit k={report.k} colors={report.num_colors} "
                 f"density={report.density!s} min_degree={report.min_degree!s}")
    lines.append(f"premise bad={_flag(report.is_bad)} "
                 f"min_degree_ok={_flag(report.delta_premise_ok)}")
    xs = report.x_counts
    lines.append(f"xsets x1={xs.x1} x2={xs.x2} x3={xs.x3} "
                 f"x12={xs.x12} x13={xs.x13} x23={xs.x23} union={xs.union}")
    lines.append(f"bounds exclusion={report.exclusion_bound} inclusion_exclusion={report.ie_bound}")
    for pd in report.policies:
        loop = "none" if pd.loop_vertex is None else str(pd.loop_vertex)
        lines.append(f"aux policy={pd.policy.value} loop={loop} "
                     f"tkfree_d={_flag(pd.d_tk_free)} tkfree_d1={_flag(pd.d1_tk_free)} "
                     f"tkfree_d2={_flag(pd.d2_tk_free)}")
    for r in report.color_rows:
        lines.append(f"color {r.color} case={r.case} f1={r.f1!s} f2={r.f2!s} "
                     f"f3={r.f3!s} s1={r.s1!s} s3={r.s3!s} "
                     f"e21={r.e21!s} e23={r.e23!s}")
    for s in report.steps:
        note = f" note={s.note!r}" if s.note else ""
        lines.append(f"step {s.step_id} lhs={s.lhs!s} rhs={s.rhs!s} "
                     f"residual={s.residual!s} holds={_flag(s.holds)} "
                     f"premise={_flag(s.premise_ok)}{note}")
    lines.append(f"result premised_steps_hold={_flag(report.premised_steps_hold)}")
    return "\n".join(lines) + "\n"


def format_audit_kv(report: AuditReport) -> str:
    """Machine-oriented rendering: one `key=value ...` line per step."""
    lines = []
    for s in report.steps:
        lines.append(f"step={s.step_id} lhs={s.lhs!s} rhs={s.rhs!s} "
                     f"residual={s.residual!s} holds={_flag(s.holds)} "
                     f"premise_ok={_flag(s.premise_ok)}")
    return "\n".join(lines) + "\n"


def audit_to_json(report: AuditReport) -> str:
    """The report as one sorted-key JSON document, fractions rendered as `p/q`."""
    return json.dumps({
        "k": report.k,
        "colors": report.num_colors,
        "density": str(report.density),
        "min_degree": str(report.min_degree),
        "is_bad": report.is_bad,
        "min_degree_ok": report.delta_premise_ok,
        "xsets": asdict(report.x_counts),
        "exclusion_bound": report.exclusion_bound,
        "inclusion_exclusion_bound": report.ie_bound,
        "policies": [
            {
                "policy": pd.policy.value,
                "loop_vertex": pd.loop_vertex,
                "tkfree_d": pd.d_tk_free,
                "tkfree_d1": pd.d1_tk_free,
                "tkfree_d2": pd.d2_tk_free,
            }
            for pd in report.policies
        ],
        "colors_detail": [
            {
                "color": r.color, "case": r.case,
                "f1": str(r.f1), "f2": str(r.f2), "f3": str(r.f3),
            }
            for r in report.color_rows
        ],
        "steps": [
            {
                "id": s.step_id,
                "lhs": str(s.lhs),
                "rhs": str(s.rhs),
                "residual": str(s.residual),
                "holds": s.holds,
                "premise_ok": s.premise_ok,
            }
            for s in report.steps
        ],
        "premised_steps_hold": report.premised_steps_hold,
    }, sort_keys=True)
