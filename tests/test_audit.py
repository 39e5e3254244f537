import collections
import importlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starpal import (AuxPolicy, BudgetExceeded, Digraph, Palette, PolicyData, audit_chain,
                     audit_to_json, aux_digraph, claim_check, f_values,
                     find_transitive_tournament, format_audit_kv, format_audit_text,
                     g_inequality_check, is_bad, is_good, iter_all_triples, make_star,
                     minimality_check, serialize_palette, stars_bounds, target_density,
                     x_sets)
from starpal.audit import GEntry
from starpal.cli import main
from starpal.digraphs import _find_tk

small_palettes = st.integers(1, 3).flatmap(
    lambda m: st.builds(
        Palette,
        st.just(m),
        st.frozensets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                                st.integers(0, m - 1))),
    ))

OPTIMUM = Palette(2, [(0, 1, 0), (1, 0, 1)])


def test_target_density_values():
    assert target_density(3) == Fraction(1, 4)
    assert target_density(4) == Fraction(1, 3)
    assert target_density(5) == Fraction(7, 16)
    assert target_density(11) == Fraction(73, 100)
    with pytest.raises(ValueError):
        target_density(2)


def test_stars_bounds_values():
    assert stars_bounds(5) == (Fraction(7, 16), Fraction(9, 16))
    assert stars_bounds(3) == (Fraction(1, 4), Fraction(1, 4))


def test_x_sets_single_triple():
    counts = x_sets(Palette(2, [(0, 0, 1)]))
    assert (counts.x1, counts.x2, counts.x3) == (6, 6, 6)
    assert (counts.x12, counts.x13, counts.x23) == (5, 5, 5)
    assert counts.union == 7


def test_x_sets_empty_palette():
    counts = x_sets(Palette.empty(2))
    assert (counts.x1, counts.x2, counts.x3) == (8, 8, 8)
    assert (counts.x12, counts.x13, counts.x23) == (8, 8, 8)
    assert counts.union == 8


def test_f_values_single_triple():
    f = f_values(Palette(2, [(0, 0, 1)]))
    assert f.f1[0] == Fraction(-1, 4) and f.f1[1] == 0
    assert f.f2[0] == Fraction(-1, 4) and f.f2[1] == 0
    assert f.f3[1] == Fraction(-1, 4) and f.f3[0] == 0


@given(small_palettes)
def test_inclusion_exclusion_matches_f_sum(p):
    n = p.num_colors
    counts = x_sets(p)
    ie = n ** 3 - (counts.x1 + counts.x2 + counts.x3) \
        + (counts.x12 + counts.x13 + counts.x23)
    assert Fraction(ie, n ** 3) == 1 + Fraction(1, n) * f_values(p).total()


@given(small_palettes)
def test_union_bounds(p):
    n = p.num_colors
    counts = x_sets(p)
    assert p.num_triples <= n ** 3 - counts.union
    assert counts.union <= counts.x1 + counts.x2 + counts.x3


def test_audit_chain_on_reference_palette():
    report = audit_chain(OPTIMUM, 5)
    assert report.is_bad
    assert report.density == Fraction(1, 4)
    assert report.min_degree == Fraction(1, 4)
    assert report.delta_premise_ok
    assert report.premised_steps_hold
    final = report.step("final_target")
    assert final.holds and final.rhs == Fraction(7, 16)
    assert report.step("target_value_identity").lhs == Fraction(7, 16)
    for policy in report.policies:
        assert policy.loop_vertex is None
        assert policy.d_tk_free and policy.d1_tk_free and policy.d2_tk_free


def test_audit_builds_each_rational_once(monkeypatch):
    audit = importlib.import_module("starpal.audit")
    fraction, built = audit.Fraction, collections.Counter()

    def counting_fraction(*args):
        built[args] += 1
        return fraction(*args)

    monkeypatch.setattr(audit, "Fraction", counting_fraction)
    m3 = Palette(3, [(0, 1, 0), (0, 1, 2), (0, 2, 0), (0, 2, 1), (1, 0, 1),
                     (1, 0, 2), (1, 2, 1), (2, 0, 2), (2, 1, 0), (2, 1, 2)])
    for p in (OPTIMUM, m3):
        built.clear()
        report = audit.audit_chain(p, 5)
        assert report.premised_steps_hold
        assert len(built) > 10 and max(built.values()) == 1, built.most_common(3)


def test_audit_chain_rejects_small_k():
    with pytest.raises(ValueError):
        audit_chain(OPTIMUM, 4)


def test_audit_chain_low_degree_premise():
    p = Palette(2, [(0, 0, 1)])
    report = audit_chain(p, 5)
    assert not report.delta_premise_ok
    assert report.premised_steps_hold


def _arc_digraphs(p, policy):
    """The aux digraph D and its blocks D1, D2, rebuilt from D's arc set, not its out-masks."""
    n = p.num_colors
    arcs = set(aux_digraph(p, policy).sorted_arcs())
    return (Digraph(2 * n, arcs),
            Digraph(n, [(u, v) for (u, v) in arcs if u < n and v < n]),
            Digraph(n, [(u - n, v - n) for (u, v) in arcs if u >= n and v >= n]))


def _arc_reference(p, policy, k):
    """PolicyData rebuilt from the arc set of the aux digraph, not its out-masks."""
    whole, block1, block2 = _arc_digraphs(p, policy)

    def m_values(d):
        size, arcs = d.num_vertices, d.sorted_arcs()
        return tuple(Fraction(max(sum(u == v for (u, _) in arcs),
                                  sum(w == v for (_, w) in arcs)), size)
                     for v in range(size))

    def tk_free(d):
        return find_transitive_tournament(d, k) is None

    loops = [u for (u, v) in whole.sorted_arcs() if u == v]
    return PolicyData(policy, min(loops) if loops else None,
                      tk_free(whole), tk_free(block1), tk_free(block2),
                      m_values(whole), m_values(block1), m_values(block2))


def _audit_charge(p, k):
    """|P| plus the nodes of the audit's four T_k searches (D1, D2, then D under
    each rule set), counted by a counting spend on digraphs rebuilt from arcs."""
    spent = [len(p.triples)]
    literal, block1, block2 = _arc_digraphs(p, AuxPolicy.LITERAL)
    for d in (block1, block2, literal, _arc_digraphs(p, AuxPolicy.OBSERVATION)[0]):
        _find_tk(d.out, k, spent.append)
    return sum(spent)


def test_audit_budget_bounds_every_tk_search():
    # P_4 and P_5 have no loop, the m = 5 lower-bound palette is good through
    # a T_5, and the full and random palettes have loops; the empty palette is
    # charged its searches alone.
    p4, p5, p6 = ([(a, b, c) for (a, b, c) in iter_all_triples(m)
                   if a != b and b != c and c != (a + 1) % m] for m in (3, 4, 5))
    rng = random.Random(3)
    palettes = [OPTIMUM, Palette(3, p4), Palette(4, p5), Palette(5, p6), Palette.full(2),
                Palette.empty(3)]
    palettes += [Palette(m, [t for t in iter_all_triples(m) if rng.random() < 0.3])
                 for m in (3, 4, 4)]
    verdicts = set()
    for p in palettes:
        for k in (5, 6):
            budget = _audit_charge(p, k)
            report = audit_chain(p, k, node_budget=budget)
            assert report.is_bad == is_bad(p, make_star(k)), (p, k)
            verdicts.add(report.is_bad)
            with pytest.raises(BudgetExceeded):
                audit_chain(p, k, node_budget=budget - 1)
            with pytest.raises(ValueError):
                audit_chain(p, k, node_budget=0)
    assert verdicts == {True, False}


def test_audit_budget_bounds_looped_palette(tmp_path, capsys):
    # The m = 7 lower-bound palette plus a loop triple: good through the loop
    # at |P| = 218 checks, while the audit's T_k searches take 2,127,246 nodes.
    m = 7
    p = Palette(m, [(a, b, c) for (a, b, c) in iter_all_triples(m)
                    if a != b and b != c and c != (a + 1) % m] + [(0, 2, 2)])
    assert is_good(p, make_star(8), node_budget=300) is not None
    with pytest.raises(BudgetExceeded):
        audit_chain(p, 8, node_budget=300)
    path = tmp_path / "looped.pal"
    path.write_text(serialize_palette(p))
    assert main(["audit", str(path), "--star", "8", "--node-budget", "300"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: node budget exhausted")


def test_policy_data_matches_arc_reference():
    two = list(iter_all_triples(2))
    palettes = [Palette(2, [t for i, t in enumerate(two) if bits >> i & 1])
                for bits in range(256)]
    rng = random.Random(23)
    for m in (3, 4):
        universe = list(iter_all_triples(m))
        for _ in range(30):
            keep = rng.random()
            palettes.append(Palette(m, [t for t in universe if rng.random() < keep]))
    # Dense palettes with one coordinate held to a few colors, so that one
    # block can hold a T_k while the other does not.
    for m in (5, 6):
        universe = list(iter_all_triples(m))
        for _ in range(8):
            pos, held = rng.randrange(3), rng.sample(range(m), rng.randint(1, 2))
            palettes.append(Palette(m, [t for t in universe
                                        if t[pos] in held or rng.random() < 0.15]))
    seen = set()
    for k in (5, 6, 7):
        for p in palettes:
            report = audit_chain(p, k)
            assert report.policies == tuple(_arc_reference(p, policy, k)
                                            for policy in AuxPolicy), (k, p)
            lit, obs = report.policies
            assert (obs.m_d1, obs.d1_tk_free, obs.m_d2, obs.d2_tk_free) == (
                lit.m_d2, lit.d2_tk_free, lit.m_d1, lit.d1_tk_free)
            seen.update((pd.loop_vertex is None, pd.d_tk_free, pd.d1_tk_free,
                         pd.d2_tk_free, pd.d1_tk_free != pd.d2_tk_free)
                        for pd in report.policies)
    # Loops, T_k in D, T_k inside each block, and blocks that disagree all
    # occur, so every field is exercised.
    for i in range(5):
        assert {flags[i] for flags in seen} == {True, False}


@given(small_palettes)
def test_audit_identity_steps_hold_for_any_palette(p):
    report = audit_chain(p, 5, node_budget=10 ** 6)
    for step_id in ("product_identity", "density_vs_f_sum",
                    "target_value_identity", "f1_square", "f3_square"):
        assert report.step(step_id).holds


def test_audit_step_lookup_raises():
    report = audit_chain(OPTIMUM, 5)
    with pytest.raises(KeyError):
        report.step("nonexistent")


def test_g_equalities_k5():
    rep = g_inequality_check(5, [Fraction(1), Fraction(3)])
    assert rep.identity_ok and rep.nonneg_ok
    assert rep.entries[0].g == 0 and rep.entries[0].bound == 0
    assert rep.entries[1].residual == 0
    assert rep.entries[1].g == Fraction(1, 16)


def test_g_equalities_k6():
    rep = g_inequality_check(6, [Fraction(2, 3), Fraction(4)])
    assert rep.identity_ok and rep.nonneg_ok
    assert all(e.residual == 0 for e in rep.entries)


def test_g_below_threshold_not_required_nonneg():
    rep = g_inequality_check(5, [Fraction(0)])
    assert not rep.entries[0].in_range
    assert rep.entries[0].nonneg_holds
    assert rep.identity_ok


def test_g_pole_rejected():
    with pytest.raises(ValueError):
        g_inequality_check(5, [Fraction(-1)])
    with pytest.raises(ValueError):
        g_inequality_check(3, [Fraction(1)])


@given(st.integers(4, 12),
       st.fractions(min_value=Fraction(-10), max_value=Fraction(100)))
def test_g_identity_everywhere(k, x):
    if x == -1:
        return
    rep = g_inequality_check(k, [x])
    assert rep.identity_ok
    if x >= Fraction(2, k - 3):
        assert rep.entries[0].residual >= 0


@given(st.integers(4, 15),
       st.fractions(min_value=Fraction(-1000), max_value=Fraction(10000))
       .filter(lambda x: x != -1))
@example(4, Fraction(-3))
@example(5, Fraction(0))
@example(6, Fraction(-1, 2))
@example(15, Fraction(1, 7))
@example(15, Fraction(1, 6))
def test_g_entry_matches_fraction_formulas(k, x):
    """Every reported field equals its direct Fraction formula, in range or not."""
    cube = (k - 1) ** 3
    g = (x / (x + 1) - Fraction(1, 2)) ** 2
    bound = Fraction(k - 3, cube) * x + Fraction((k - 3) * (k * k - 8 * k + 11), 4 * cube)
    cleared = (x + 1) ** 2 * (4 * (k - 3) * x + (k - 3) * (k * k - 8 * k + 11)) \
        - cube * (x - 1) ** 2
    factored = (x - (k - 2)) ** 2 * ((k - 3) * x - 2)
    in_range = x >= Fraction(2, k - 3)
    rep = g_inequality_check(k, [x])
    assert rep.entries == (GEntry(
        x=x, g=g, bound=bound, residual=bound - g,
        cleared=cleared, factored=factored,
        identity_holds=cleared == 4 * factored,
        in_range=in_range,
        nonneg_holds=bound - g >= 0 if in_range else True,
    ),)
    assert rep.identity_ok and rep.nonneg_ok


def test_minimality_examples():
    assert minimality_check(
        Palette(2, [(0, 0, 1), (1, 1, 0), (0, 1, 0), (1, 0, 1)])) is None
    assert minimality_check(Palette(1, [(0, 0, 0)])) is None
    assert minimality_check(Palette(2, [(0, 0, 0)])) == 1


def test_claim_check_reference():
    rep = claim_check(OPTIMUM, 3)
    assert rep.delta == Fraction(1, 4)
    assert rep.rhs == Fraction(-3, 4)
    assert rep.is_minimal and rep.is_bad and rep.holds
    assert minimality_check(OPTIMUM) is None
    with pytest.raises(ValueError):
        claim_check(OPTIMUM, 1)


def test_format_text_and_kv():
    report = audit_chain(OPTIMUM, 5)
    text = format_audit_text(report)
    assert "final_target" in text and "density" in text
    kv = format_audit_kv(report)
    lines = [ln for ln in kv.splitlines() if ln.startswith("step=")]
    assert len(lines) == len(report.steps)


def test_json_roundtrip():
    report = audit_chain(OPTIMUM, 5)
    text = audit_to_json(report)
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True)
    assert [s["id"] for s in doc["steps"]] == [s.step_id for s in report.steps]
    assert [(s["lhs"], s["residual"], s["holds"]) for s in doc["steps"]] == [
        (str(s.lhs), str(s.residual), s.holds) for s in report.steps]
    assert doc["xsets"]["union"] == report.x_counts.union
    assert [pd["policy"] for pd in doc["policies"]] == [pd.policy.value for pd in report.policies]
    assert doc["density"] == "1/4"
    assert doc["k"] == 5
    assert len(doc["steps"]) == len(report.steps)
