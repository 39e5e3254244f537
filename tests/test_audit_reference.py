"""Differential test of audit_chain against a Fraction reference audit.

`reference_audit` evaluates every row, step and premise with Fraction
arithmetic straight from the paper's formulas; audit_chain evaluates them in
integers over common denominators.  The two must agree field for field.
"""

import random
from fractions import Fraction

import pytest

import starpal.audit
from starpal import (AuditReport, AuditStep, AuxPolicy, ColorRow, Digraph, FValues, Palette,
                     PolicyData, audit_chain, audit_to_json, aux_digraph, compute_stats,
                     degree_stats, f_values, format_audit_kv, format_audit_text, has_loop,
                     is_good, is_tk_free, iter_all_triples, make_star, random_bad_palette,
                     target_density, x_sets)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def _agg(step_id, items, *, premise_ok=True, note="", ties=None):
    """Fold (lhs, rhs) pairs into one step keeping the first pair of least residual.

    When `ties` is a list, the step id is appended to it whenever two
    different pairs share the least residual.
    """
    if not items:
        return AuditStep(step_id, Fraction(0), Fraction(0), True, premise_ok,
                         note or "vacuous")
    lhs, rhs = min(items, key=lambda t: t[1] - t[0])
    if ties is not None and len({t for t in items if t[1] - t[0] == rhs - lhs}) > 1:
        ties.append(step_id)
    holds = all(l <= r for (l, r) in items)
    return AuditStep(step_id, lhs, rhs, holds, premise_ok, note)


def reference_audit(p, k, ties=None):
    """The audit chain with every quantity a Fraction."""
    n = p.num_colors
    stats = compute_stats(p)
    d = p.density
    delta = stats.min_degree
    delta_ok = delta >= QUARTER
    is_bad = is_good(p, make_star(k)) is None
    xs = x_sets(p)
    tau = Fraction(2, k - 1)
    lemma_coeff = Fraction((k - 3) ** 2, 4 * (k - 1) ** 2)
    def e(i, j, a):
        return Fraction(stats.degree(i, j, a), n)

    def f(i, j1, j2, a):
        x, y = e(i, j1, a), e(i, j2, a)
        return x * y - (x + y) / 2

    fv = [(f(1, 2, 3, a), f(2, 1, 3, a), f(3, 1, 2, a)) for a in range(n)]

    def agg(step_id, items, **kw):
        return _agg(step_id, items, ties=ties, **kw)

    rows = []
    for a in range(n):
        e21, e23 = e(2, 1, a), e(2, 3, a)
        rows.append(ColorRow(
            color=a, f1=fv[a][0], f2=fv[a][1], f3=fv[a][2],
            case=1 if min(e21, e23) >= HALF else 2,
            s1=(e(1, 2, a) + e(1, 3, a)) / 2,
            s3=(e(3, 1, a) + e(3, 2, a)) / 2,
            e21=e21, e23=e23))
    cprime = [r for r in rows if r.case == 1]
    cdouble = [r for r in rows if r.case == 2]

    cube = n ** 3
    exclusion_bound = cube - xs.union
    ie_bound = cube - (xs.x1 + xs.x2 + xs.x3) + (xs.x12 + xs.x13 + xs.x23)
    f_total = sum((r.f1 + r.f2 + r.f3 for r in rows), Fraction(0))
    f_bound = 1 + Fraction(1, n) * f_total
    steps = [
        AuditStep("exclusion_bound", Fraction(p.num_triples), Fraction(exclusion_bound),
                  p.num_triples <= exclusion_bound, True,
                  "admissible triples avoid all three exclusion sets"),
        AuditStep("bonferroni", Fraction(exclusion_bound), Fraction(ie_bound),
                  exclusion_bound <= ie_bound, True,
                  "union lower-bounded by singles minus pairs"),
        AuditStep("product_identity", Fraction(ie_bound, cube), f_bound,
                  Fraction(ie_bound, cube) == f_bound, True,
                  "equality: inclusion-exclusion bound rewritten through f1+f2+f3"),
        AuditStep("density_vs_f_sum", d, f_bound, d <= f_bound, True),
        agg("f1_square", [(r.f1, (r.s1 - HALF) ** 2 - QUARTER) for r in rows]),
        agg("f3_square", [(r.f3, (r.s3 - HALF) ** 2 - QUARTER) for r in rows]),
        agg("mean_premise", [(HALF, r.s1) for r in rows] + [(HALF, r.s3) for r in rows],
            premise_ok=delta_ok,
            note="slot means at least 1/2; expected from min degree >= 1/4"),
        agg("f2_case1", [(r.f2, (r.e21 - HALF) ** 2 / 2 + (r.e23 - HALF) ** 2 / 2 - QUARTER)
                         for r in cprime]),
    ]
    case2_premise = all(r.e21 * r.e23 >= QUARTER for r in cdouble)
    steps.append(agg("f2_case2", [(r.f2, -QUARTER) for r in cdouble],
                     premise_ok=case2_premise and delta_ok,
                     note="needs e21*e23 >= min degree >= 1/4"))
    target = target_density(k)
    assembled_target = QUARTER + 3 * lemma_coeff
    steps.append(AuditStep("target_value_identity", assembled_target, target,
                           assembled_target == target, True,
                           "equality: 1/4 + 3 (k-3)^2 / (4 (k-1)^2) equals the target"))

    policy_data = []
    for policy in (AuxPolicy.LITERAL, AuxPolicy.OBSERVATION):
        suffix = policy.value
        dig = aux_digraph(p, policy)
        dig1 = Digraph.from_masks(n, [mask & ((1 << n) - 1) for mask in dig.out[:n]])
        dig2 = Digraph.from_masks(n, [mask >> n for mask in dig.out[n:]])
        (out_d, in_d), (out_d1, in_d1), (out_d2, in_d2) = map(degree_stats, (dig, dig1, dig2))
        m_d, m_d1, m_d2 = (tuple(Fraction(max(o, i), g.num_vertices) for o, i in zip(outs, ins))
                           for g, outs, ins in ((dig, out_d, in_d), (dig1, out_d1, in_d1),
                                                (dig2, out_d2, in_d2)))
        tk_d, tk_d1, tk_d2 = (is_tk_free(g, k) for g in (dig, dig1, dig2))
        policy_data.append(PolicyData(policy, has_loop(dig), tk_d, tk_d1, tk_d2,
                                      m_d, m_d1, m_d2))
        ident_slot1 = all(out_d[a] == stats.degree(1, 2, a) + stats.degree(1, 3, a)
                          for a in range(n))
        ident_slot3 = all(in_d[n + a] == stats.degree(3, 1, a)
                          + stats.degree(3, 2, a) for a in range(n))
        ident_e21 = all(in_d2[a] == stats.degree(2, 1, a) for a in range(n))
        ident_e23 = all(out_d1[a] == stats.degree(2, 3, a) for a in range(n))

        slot1 = agg(f"slot1_vs_m.{suffix}", [(r.s1, m_d[r.color]) for r in rows],
                    premise_ok=ident_slot1,
                    note="backed by the whole-digraph out-degree identity")
        slot3 = agg(f"slot3_vs_m.{suffix}", [(r.s3, m_d[n + r.color]) for r in rows],
                    premise_ok=ident_slot3,
                    note="backed by the whole-digraph in-degree identity")
        f1_dig = agg(f"f1_digraph.{suffix}",
                     [(r.f1, (m_d[r.color] - HALF) ** 2 - QUARTER) for r in rows],
                     premise_ok=delta_ok and slot1.holds)
        f3_dig = agg(f"f3_digraph.{suffix}",
                     [(r.f3, (m_d[n + r.color] - HALF) ** 2 - QUARTER) for r in rows],
                     premise_ok=delta_ok and slot3.holds)
        e21_step = agg(f"e21_vs_m2.{suffix}", [(r.e21, m_d2[r.color]) for r in cprime],
                       premise_ok=ident_e21,
                       note="backed by the second-block in-degree identity")
        e23_step = agg(f"e23_vs_m1.{suffix}", [(r.e23, m_d1[r.color]) for r in cprime],
                       premise_ok=ident_e23,
                       note="backed by the first-block out-degree identity")
        f2c1_dig = agg(f"f2_case1_digraph.{suffix}",
                       [(r.f2, (m_d2[r.color] - HALF) ** 2 / 2
                         + (m_d1[r.color] - HALF) ** 2 / 2 - QUARTER) for r in cprime],
                       premise_ok=e21_step.holds and e23_step.holds)
        steps.extend([slot1, slot3, f1_dig, f3_dig, e21_step, e23_step, f2c1_dig])

        sum_f2 = sum((r.f2 for r in rows), Fraction(0))
        sq_d2 = sum(((m_d2[r.color] - HALF) ** 2 for r in cprime), Fraction(0))
        sq_d1 = sum(((m_d1[r.color] - HALF) ** 2 for r in cprime), Fraction(0))
        f2_sum_bound = sq_d2 / 2 + sq_d1 / 2 - Fraction(n, 4)
        steps.append(AuditStep(f"f2_sum.{suffix}", sum_f2, f2_sum_bound,
                               sum_f2 <= f2_sum_bound,
                               case2_premise and delta_ok and e21_step.holds
                               and e23_step.holds))
        sq_d = sum(((mv - HALF) ** 2 for mv in m_d), Fraction(0))
        assembled = QUARTER + Fraction(1, n) * sq_d + Fraction(1, 2 * n) * (sq_d2 + sq_d1)
        steps.append(AuditStep(f"assembled.{suffix}", d, assembled, d <= assembled,
                               case2_premise and delta_ok and slot1.holds and slot3.holds
                               and e21_step.holds and e23_step.holds))
        coverage_full = all(mv >= tau for mv in m_d)
        steps.append(agg(f"coverage_full.{suffix}", [(tau, mv) for mv in m_d],
                         premise_ok=delta_ok and slot1.holds and slot3.holds,
                         note="every vertex of the auxiliary digraph reaches the threshold"))
        coverage_cprime = all(m_d1[r.color] >= tau and m_d2[r.color] >= tau for r in cprime)
        steps.append(agg(f"coverage_cprime.{suffix}",
                         [(tau, m_d1[r.color]) for r in cprime]
                         + [(tau, m_d2[r.color]) for r in cprime],
                         premise_ok=e21_step.holds and e23_step.holds))
        for name, lhs, rhs, premise in (
                ("square_sum_d", sq_d, lemma_coeff * (2 * n), tk_d and coverage_full),
                ("square_sum_d1", sq_d1, lemma_coeff * n, tk_d1 and coverage_cprime),
                ("square_sum_d2", sq_d2, lemma_coeff * n, tk_d2 and coverage_cprime)):
            steps.append(AuditStep(f"{name}.{suffix}", lhs, rhs, lhs <= rhs, premise))

    steps.append(AuditStep(
        "final_target", d, target, d <= target, is_bad and delta_ok,
        "density against the S_k target; premises: bad palette, min degree >= 1/4"))
    return AuditReport(k, n, d, delta, is_bad, delta_ok, xs, exclusion_bound, ie_bound,
                       tuple(rows), tuple(policy_data), tuple(steps))


def lower_bound_palette(k):
    """P_k: triples over k-1 colours with a != b, b != c and c != a + 1 (mod k-1)."""
    m = k - 1
    return Palette(m, [(a, b, c) for (a, b, c) in iter_all_triples(m)
                       if a != b and b != c and c != (a + 1) % m])


def _two_colour_palettes():
    universe = list(iter_all_triples(2))
    return [Palette(2, [t for i, t in enumerate(universe) if bits >> i & 1])
            for bits in range(256)]


def _assert_same(p, k, ties=None):
    got, want = audit_chain(p, k), reference_audit(p, k, ties)
    assert got == want, (k, p)
    assert f_values(p) == FValues(*(tuple(getattr(r, f) for r in want.color_rows)
                                    for f in ("f1", "f2", "f3")))
    assert format_audit_text(got) == format_audit_text(want)
    assert format_audit_kv(got) == format_audit_kv(want)
    assert audit_to_json(got) == audit_to_json(want)


@pytest.mark.parametrize("k", [5, 6, 7])
def test_two_colour_palettes_match_reference(k):
    for p in _two_colour_palettes():
        _assert_same(p, k)


def test_random_bad_three_colour_palettes_match_reference():
    rng = random.Random(8)
    for i in range(30):
        k = 5 + i % 3
        p = random_bad_palette(k, 3, rng)
        _assert_same(p, k)


def test_four_colour_palettes_match_reference():
    p5 = lower_bound_palette(5)
    assert p5.density == target_density(5)
    report = audit_chain(p5, 5)
    assert report.is_bad and report.premised_steps_hold
    final = report.step("final_target")
    assert final.lhs == final.rhs
    rng = random.Random(4)
    universe = list(iter_all_triples(4))
    palettes = [p5, Palette.full(4), Palette.empty(4)]
    palettes += [Palette(4, [t for t in universe if rng.random() < dens])
                 for dens in (0.2, 0.45, 0.7)]
    for p in palettes:
        for k in (5, 6):
            _assert_same(p, k)


def test_audit_verdict_matches_is_good_on_reference_set():
    cases = [(p, k) for k in (5, 6, 7) for p in _two_colour_palettes()]
    rng = random.Random(8)
    cases += [(random_bad_palette(5 + i % 3, 3, rng), 5 + i % 3) for i in range(30)]
    rng = random.Random(4)
    universe = list(iter_all_triples(4))
    fours = [lower_bound_palette(5), Palette.full(4), Palette.empty(4)]
    fours += [Palette(4, [t for t in universe if rng.random() < dens])
              for dens in (0.2, 0.45, 0.7)]
    cases += [(p, k) for p in fours for k in (5, 6)]
    verdicts = set()
    for p, k in cases:
        bad = is_good(p, make_star(k)) is None
        assert audit_chain(p, k).is_bad == bad, (k, p)
        verdicts.add(bad)
    assert verdicts == {True, False}


def test_residual_ties_keep_first_pair():
    # In f1_square, colour 0 gives the pair (-1/4, -1/4) and colour 1 gives
    # (0, 0): both have residual 0, and the first one is reported.
    p = Palette(2, [(0, 0, 0)])
    ties = []
    _assert_same(p, 5, ties)
    assert "f1_square" in ties and "slot1_vs_m.literal" in ties
    step = audit_chain(p, 5).step("f1_square")
    assert (step.lhs, step.rhs) == (Fraction(-1, 4), Fraction(-1, 4))


def test_audit_computes_stats_once(monkeypatch):
    calls = []
    original = starpal.audit.compute_stats

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(starpal.audit, "compute_stats", counting)
    p = lower_bound_palette(5)
    audit_chain(p, 5)
    assert calls == [p]
