import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starpal.goodness
from starpal import (BudgetExceeded, EnumerationCapExceeded, GoodnessWitness,
                     Palette, ThreeGraph, brute_force_is_good, is_bad, is_good,
                     iter_all_triples, make_star, parse_threegraph, permute_colors,
                     serialize_threegraph, star_apex, verify_witness)
from starpal.goodness import relabel_vertices

small_palettes = st.integers(1, 2).flatmap(
    lambda m: st.builds(
        Palette,
        st.just(m),
        st.frozensets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                                st.integers(0, m - 1))),
    ))


def all_palettes(m):
    universe = list(iter_all_triples(m))
    for bits in range(1 << len(universe)):
        yield Palette(m, [t for i, t in enumerate(universe) if bits >> i & 1])


def test_make_star_shape():
    s = make_star(3)
    assert s.num_vertices == 4
    assert s.sorted_edges() == [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
    s2 = make_star(2)
    assert s2.sorted_edges() == [(0, 1, 2)]
    with pytest.raises(ValueError):
        make_star(1)


def test_star_apex_detection():
    assert star_apex(make_star(4)) == 0
    relabeled = ThreeGraph(4, [(1, 2, 3), (0, 2, 3), (0, 1, 3)])
    assert star_apex(relabeled) == 3
    path = ThreeGraph(5, [(0, 1, 2), (2, 3, 4)])
    assert star_apex(path) is None
    assert star_apex(ThreeGraph(3, [])) is None


def test_threegraph_validation():
    with pytest.raises(ValueError):
        ThreeGraph(3, [(0, 1, 3)])
    with pytest.raises(ValueError):
        ThreeGraph(3, [(0, 1, 1)])
    f = ThreeGraph(4, [(2, 1, 0)])
    assert f.sorted_edges() == [(0, 1, 2)]


def test_parse_serialize_threegraph():
    s = make_star(3)
    assert parse_threegraph(serialize_threegraph(s)) == s


def test_single_edge_good_iff_some_triple():
    edge = make_star(2)
    assert is_good(Palette.empty(2), edge) is None
    for t in iter_all_triples(2):
        w = is_good(Palette(2, [t]), edge)
        assert w is not None
        assert verify_witness(Palette(2, [t]), edge, w)


def test_empty_graph_trivially_good():
    f = ThreeGraph(3, [])
    w = is_good(Palette.empty(1), f)
    assert w is not None
    assert verify_witness(Palette.empty(1), f, w)


def test_example_bad_palette():
    p = Palette(2, [(0, 1, 0), (1, 0, 1)])
    assert is_good(p, make_star(3)) is None
    assert brute_force_is_good(p, make_star(3)) is None


def test_full_palette_good():
    p = Palette.full(2)
    s = make_star(4)
    w = is_good(p, s)
    assert w is not None
    assert verify_witness(p, s, w)


def test_matches_brute_force_on_sample():
    s2, s3 = make_star(2), make_star(3)
    universe = list(iter_all_triples(2))
    for bits in range(0, 256, 7):
        p = Palette(2, [t for i, t in enumerate(universe) if bits >> i & 1])
        for star in (s2, s3):
            assert (is_good(p, star) is None) == (brute_force_is_good(p, star) is None)


def test_witness_verification_rejects_tampering():
    p = Palette.full(2)
    s = make_star(2)
    w = is_good(p, s)
    assert verify_witness(p, s, w)
    sparse = Palette(2, [(0, 0, 1)])
    bad = GoodnessWitness(w.ordering, {pair: 1 for pair in w.pair_coloring})
    assert not verify_witness(sparse, s, bad)


def test_witness_shape_errors():
    p = Palette.full(2)
    s = make_star(2)
    w = is_good(p, s)
    with pytest.raises(ValueError):
        verify_witness(p, s, GoodnessWitness((0, 1), w.pair_coloring))
    with pytest.raises(ValueError):
        verify_witness(p, s, GoodnessWitness(w.ordering, {}))
    with pytest.raises(ValueError):
        verify_witness(p, s, GoodnessWitness((0, 0, 1), w.pair_coloring))


@given(small_palettes, st.permutations(list(range(2))))
def test_goodness_is_color_permutation_invariant(p, perm):
    if p.num_colors != len(perm):
        perm = list(range(p.num_colors))
    star = make_star(3)
    q = permute_colors(p, perm)
    assert (is_good(p, star) is None) == (is_good(q, star) is None)


@given(small_palettes)
def test_good_for_larger_star_implies_good_for_smaller(p):
    if is_good(p, make_star(4)) is not None:
        assert is_good(p, make_star(3)) is not None
        assert is_good(p, make_star(2)) is not None


@given(small_palettes)
def test_badness_survives_triple_removal(p):
    star = make_star(3)
    if is_good(p, star) is None and p.num_triples:
        t = p.sorted_triples()[0]
        assert is_good(p.without_triple(t), star) is None


@given(small_palettes)
def test_returned_witness_always_verifies(p):
    star = make_star(3)
    w = is_good(p, star)
    if w is not None:
        assert verify_witness(p, star, w)


def test_node_budget_exhaustion():
    p = Palette.full(3)
    with pytest.raises(BudgetExceeded):
        is_good(p, make_star(5), node_budget=1)


@pytest.mark.parametrize("m, k, nodes", [(4, 5, 633), (5, 6, 6331)])
def test_star_verdict_charges_one_node_per_tk_search_node(m, k, nodes):
    # The lower-bound palette P_k: loopless aux digraph, T_k-free, so bad.
    p = Palette(m, [(a, b, c) for (a, b, c) in iter_all_triples(m)
                    if a != b and b != c and c != (a + 1) % m])
    star = make_star(k)
    assert is_bad(p, star, node_budget=len(p.triples) + nodes)
    with pytest.raises(BudgetExceeded):
        is_bad(p, star, node_budget=len(p.triples) + nodes - 1)


def test_brute_force_cap():
    with pytest.raises(EnumerationCapExceeded):
        brute_force_is_good(Palette.full(3), make_star(5))


def test_non_star_graph():
    two_edges = ThreeGraph(4, [(0, 1, 2), (0, 1, 3)])
    p = Palette(2, [(0, 1, 0), (1, 0, 1)])
    verdict = is_good(p, two_edges)
    brute = brute_force_is_good(p, two_edges)
    assert (verdict is None) == (brute is None)


def _agrees_with_oracle(p, f):
    fast, slow = is_good(p, f), brute_force_is_good(p, f)
    assert (fast is None) == (slow is None), (f.sorted_edges(), p.sorted_triples())
    assert is_bad(p, f) == (slow is None), (f.sorted_edges(), p.sorted_triples())
    if fast is not None:
        assert verify_witness(p, f, fast)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_star_route_matches_brute_force_on_all_two_color_palettes(k):
    star = make_star(k)
    for p in all_palettes(2):
        _agrees_with_oracle(p, star)


@pytest.mark.parametrize("k", [2, 3])
def test_star_route_matches_brute_force_on_random_three_color_palettes(k):
    rng = random.Random(20 + k)
    universe = list(iter_all_triples(3))
    star = make_star(k)
    for _ in range(300):
        p = Palette(3, rng.sample(universe, rng.randrange(0, 12)))
        _agrees_with_oracle(p, star)


def test_star_route_matches_brute_force_on_relabeled_stars():
    rng = random.Random(5)
    for _ in range(200):
        m, k = rng.choice([(2, 3), (2, 4), (3, 3)])
        perm = list(range(k + 1))
        while perm[0] == 0:
            rng.shuffle(perm)
        star = relabel_vertices(make_star(k), perm)
        assert star_apex(star) == perm[0] != 0
        p = Palette(m, rng.sample(list(iter_all_triples(m)), rng.randrange(0, 2 * m * m)))
        _agrees_with_oracle(p, star)


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 7), st.integers(4, 5).flatmap(
    lambda m: st.builds(Palette, st.just(m), st.frozensets(
        st.tuples(*[st.integers(0, m - 1)] * 3), max_size=3 * m * m))))
def test_star_route_good_verdicts_verify(k, p):
    star = make_star(k)
    w = is_good(p, star)
    if w is not None:
        assert verify_witness(p, star, w)


def test_is_bad_on_non_stars_edgeless_graphs_and_empty_palettes():
    two_edges = ThreeGraph(4, [(0, 1, 2), (0, 1, 3)])
    for p in all_palettes(2):
        _agrees_with_oracle(p, two_edges)
        assert is_bad(p, ThreeGraph(3, [])) is False
    for k in (2, 3, 6):
        assert is_bad(Palette.empty(2), make_star(k)) is True
    for p in (Palette.empty(2), Palette.full(2)):
        with pytest.raises(ValueError, match="node budget must be positive"):
            is_bad(p, make_star(3), node_budget=0)


def _outcome(decide, p, f, budget):
    """decide's verdict under budget, or the BudgetExceeded message."""
    try:
        return decide(p, f, node_budget=budget)
    except BudgetExceeded as exc:
        return str(exc)


def test_is_bad_matches_is_good_verdicts_and_budgets():
    rng = random.Random(41)
    refused = verdicts = 0
    for _ in range(2000):
        m, k = rng.randrange(3, 6), rng.randrange(2, 9)
        p = Palette(m, rng.sample(list(iter_all_triples(m)), rng.randrange(0, m ** 3 // 2)))
        f = make_star(k)
        assert is_bad(p, f) == (is_good(p, f) is None)
        budget = rng.randrange(1, 2001)
        good = _outcome(is_good, p, f, budget)
        bad = _outcome(is_bad, p, f, budget)
        if isinstance(good, str):
            assert bad == good
            refused += 1
        else:
            assert bad == (good is None)
            verdicts += 1
    assert refused and verdicts


def test_star_certificate_checks_the_tk_it_returns(monkeypatch):
    # The aux digraph of P_3 has no loop, and its T_2 is (0, 1).  The cross
    # arcs join 0 with 2 and 1 with 3, so the pair (0, 3) misses its arc.
    p = Palette(2, [(0, 1, 0), (1, 0, 1)])
    star = make_star(2)
    assert not is_bad(p, star)
    monkeypatch.setattr(starpal.goodness, "_find_tk", lambda out, n, k, spend=None: (0, 3))
    with pytest.raises(AssertionError):
        is_bad(p, star)
    with pytest.raises(AssertionError):
        is_good(p, star)


def test_deep_non_star_search_does_not_recurse():
    f = ThreeGraph(51, make_star(50).edges | {(1, 2, 3)})
    assert star_apex(f) is None
    p = Palette.full(2)
    w = is_good(p, f)
    assert w is not None
    assert verify_witness(p, f, w)


def test_witness_shape_error_messages():
    p = Palette.full(2)
    s = make_star(2)
    coloring = {(0, 1): 0, (0, 2): 1, (1, 2): 0}
    unsorted = GoodnessWitness((0, 1, 2), {**coloring, (1, 0): 0})
    with pytest.raises(ValueError, match=r"^pair key \(1, 0\) is not sorted$"):
        verify_witness(p, s, unsorted)
    too_big = GoodnessWitness((0, 1, 2), {**coloring, (0, 2): 2})
    with pytest.raises(ValueError, match=r"^color 2 of pair \(0, 2\) out of range$"):
        verify_witness(p, s, too_big)


def _reference_verify(p, f, w):
    """The plain check: sort each edge by rank and look up its three colors."""
    rank = {v: i for i, v in enumerate(w.ordering)}
    for e in f.edges:
        u, v, x = sorted(e, key=rank.__getitem__)
        if (w.color_of(u, v), w.color_of(u, x), w.color_of(v, x)) not in p.triples:
            return False
    return True


def test_verify_witness_matches_reference():
    rng = random.Random(31)
    orders_seen = set()
    verdicts = set()
    for trial in range(600):
        kind = trial % 3
        if kind == 0:
            f = make_star(rng.randrange(2, 6))
        elif kind == 1:
            k = rng.randrange(2, 6)
            perm = list(range(k + 1))
            rng.shuffle(perm)
            f = relabel_vertices(make_star(k), perm)
        else:
            n = rng.randrange(3, 7)
            edges = list(itertools.combinations(range(n), 3))
            f = ThreeGraph(n, rng.sample(edges, rng.randrange(1, min(6, len(edges)) + 1)))
        m = rng.randrange(1, 4)
        ordering = list(range(f.num_vertices))
        rng.shuffle(ordering)
        w = GoodnessWitness(tuple(ordering), {pr: rng.randrange(m)
                                              for pr in f.relevant_pairs()})
        rank = {v: i for i, v in enumerate(ordering)}
        # The triples the witness needs, each dropped with probability 1/4,
        # plus a few random ones, so both verdicts occur.
        needed = set()
        for e in f.edges:
            u, v, x = sorted(e, key=rank.__getitem__)
            orders_seen.add(tuple(sorted(e).index(y) for y in (u, v, x)))
            needed.add((w.color_of(u, v), w.color_of(u, x), w.color_of(v, x)))
        kept = [t for t in sorted(needed) if rng.random() < 0.75]
        p = Palette(m, kept + rng.sample(list(iter_all_triples(m)), rng.randrange(0, m)))
        expected = _reference_verify(p, f, w)
        assert verify_witness(p, f, w) == expected
        verdicts.add(expected)
    assert len(orders_seen) == 6
    assert verdicts == {True, False}
