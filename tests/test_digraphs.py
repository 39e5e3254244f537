import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import starpal.digraphs
from starpal import (AuxPolicy, BudgetExceeded, Digraph, EnumerationCapExceeded, FormatError,
                     Palette, admissible_pairs, audit_chain, aux_digraph,
                     brute_max_arcs, caro_wei_check, degree_stats,
                     find_transitive_tournament, has_loop, is_tk_free, iter_all_triples,
                     iter_loopless_digraphs, parse_digraph, serialize_digraph,
                     tk_square_check, tripartite_construction, tripartite_report,
                     turan_max_arcs)
from starpal.digraphs import (_arc_free_classes, _find_tk, _is_arc_free_colouring,
                              _tk_free_classes)
from starpal.errors import _Budget

small_palettes = st.integers(1, 3).flatmap(
    lambda m: st.builds(
        Palette,
        st.just(m),
        st.frozensets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                                st.integers(0, m - 1))),
    ))

small_digraphs = st.integers(1, 4).flatmap(
    lambda n: st.builds(
        Digraph,
        st.just(n),
        st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
    ))


def bidirected_complete(n):
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def test_digraph_validation_and_degrees():
    d = Digraph(3, [(0, 1), (1, 1), (2, 0)])
    assert len(d.sorted_arcs()) == 3
    assert degree_stats(d) == ((1, 1, 1), (1, 2, 0))
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Digraph(-1, [])
    assert len(Digraph(0, []).sorted_arcs()) == 0


@pytest.mark.parametrize("arcs, message", [
    ([(1.0, 0)], "not an arc"),
    ([("0", 1)], "not an arc"),
    (["01"], "not an arc"),
    ([(0,)], "not an arc"),
    ([(0, 1, 1)], "not an arc"),
    ([(0, 2)], "out of range"),
    ([(-1, 0)], "out of range"),
    ([(0, 0), (True, 2)], "out of range"),
    ((a for a in [(0, 1), (2, 0)]), "out of range"),
    ([(0, 0), (0, 5), ("x", 0)], r"arc \(0, 5\) out of range"),
])
def test_digraph_rejects_bad_arcs(arcs, message):
    with pytest.raises(ValueError, match=message):
        Digraph(2, arcs)


def test_digraph_accepts_bools_and_lists():
    d = Digraph(2, [[True, False], (1, 0), [0, 0]])
    assert d == Digraph(2, [(1, 0), (0, 0)])
    assert d.sorted_arcs() == [(0, 0), (1, 0)]
    assert all(type(a) is tuple for a in set(d.sorted_arcs()))
    assert Digraph(2, (a for a in [(0, 1)])).sorted_arcs() == [(0, 1)]


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
def test_arc_and_mask_constructors_agree(case):
    n, arcs = case
    d = Digraph(n, arcs)
    assert set(d.sorted_arcs()) == set(arcs)
    assert len(d.sorted_arcs()) == len(set(arcs))
    assert d.sorted_arcs() == sorted(set(arcs))
    masks = [sum({1 << v for (u, v) in arcs if u == w}) for w in range(n)]
    e = Digraph.from_masks(n, masks)
    assert e == d and hash(e) == hash(d)
    assert e.out == d.out == tuple(masks)


def test_sorted_arcs_matches_a_double_loop():
    # n < 80 gives masks of up to three 30-bit int digits, past 64 bits;
    # loops are kept, and ANDing 0-3 extra random words varies the density.
    rng = random.Random(2024)
    for _ in range(3000):
        n = rng.randrange(80)
        sparsity = rng.randrange(4)
        out = []
        for _ in range(n):
            mask = rng.getrandbits(n)
            for _ in range(sparsity):
                mask &= rng.getrandbits(n)
            out.append(mask)
        d = Digraph.from_masks(n, out)
        assert d.sorted_arcs() == [(u, v) for u in range(n) for v in range(n)
                                   if out[u] >> v & 1]


@pytest.mark.parametrize("n, masks, message", [
    (2, [0b100, 0], "not ints in"),
    (2, [0, -1], "not ints in"),
    (2, [1.0, 0], "not ints in"),
    (2, ["1", 0], "not ints in"),
    (2, [True, 0], "not ints in"),
    (2, [0], "1 out-masks for 2 vertices"),
    (1, [0, 0], "2 out-masks for 1 vertices"),
    (-1, [], "0 out-masks for -1 vertices"),
    (2.0, [0, 0], "2 out-masks for 2.0 vertices"),
])
def test_from_masks_rejects_bad_masks(n, masks, message):
    with pytest.raises(ValueError, match=message):
        Digraph.from_masks(n, masks)


def test_parse_serialize_digraph():
    d = Digraph(3, [(0, 1), (2, 2)])
    assert parse_digraph(serialize_digraph(d)) == d
    with pytest.raises(FormatError):
        parse_digraph("digraph 2\n0 3\n")
    with pytest.raises(FormatError):
        parse_digraph("graph 2\n0 1\n")


def test_example_aux_digraph_literal():
    p = Palette(2, [(0, 0, 1)])
    d = aux_digraph(p, AuxPolicy.LITERAL)
    assert d.num_vertices == 4
    assert set(d.sorted_arcs()) == {(0, 1), (2, 2), (0, 3), (3, 0)}
    assert has_loop(d) == 2


def test_example_aux_digraph_observation():
    p = Palette(2, [(0, 0, 1)])
    d = aux_digraph(p, AuxPolicy.OBSERVATION)
    assert set(d.sorted_arcs()) == {(0, 0), (2, 3), (0, 3), (3, 0)}
    assert has_loop(d) == 0


def test_aux_digraph_default_policy_is_literal():
    p = Palette(2, [(0, 0, 1)])
    assert aux_digraph(p) == aux_digraph(p, AuxPolicy.LITERAL)


@pytest.mark.parametrize("policy", ["observation", None])
def test_aux_digraph_refuses_non_policy(policy):
    with pytest.raises(ValueError, match="unknown policy"):
        aux_digraph(Palette(2, [(0, 0, 1)]), policy)


def _projection_masks(p, policy):
    """Aux out-masks straight from the three admissible_pairs projections."""
    m = p.num_colors
    block1, block2 = ((2, 3), (1, 2)) if policy is AuxPolicy.LITERAL else ((1, 2), (2, 3))
    out = [0] * (2 * m)
    for (a, b) in admissible_pairs(p, *block1):
        out[a] |= 1 << b
    for (a, b) in admissible_pairs(p, *block2):
        out[m + a] |= 1 << (m + b)
    for (a, b) in admissible_pairs(p, 1, 3):
        out[a] |= 1 << (m + b)
        out[m + b] |= 1 << a
    return out


@pytest.mark.parametrize("policy", list(AuxPolicy))
def test_aux_digraph_masks_match_projections(policy):
    two_color = list(iter_all_triples(2))
    palettes = [Palette(2, [t for i, t in enumerate(two_color) if bits >> i & 1])
                for bits in range(256)]
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randint(3, 5)
        keep = rng.random()
        palettes.append(Palette(m, [t for t in iter_all_triples(m) if rng.random() < keep]))
    for p in palettes:
        assert aux_digraph(p, policy).out == tuple(_projection_masks(p, policy))


@given(small_palettes)
def test_aux_cross_arcs_are_symmetric(p):
    m = p.num_colors
    for policy in AuxPolicy:
        arcs = set(aux_digraph(p, policy).sorted_arcs())
        for (u, v) in arcs:
            if u < m <= v or v < m <= u:
                assert (v, u) in arcs


def _identity_premises(p):
    """The audit's four degree-identity premise flags, per policy."""
    report = audit_chain(p, 5)
    return [{name: report.step(f"{name}.{policy.value}").premise_ok
             for name in ("slot1_vs_m", "slot3_vs_m", "e21_vs_m2", "e23_vs_m1")}
            for policy in (AuxPolicy.LITERAL, AuxPolicy.OBSERVATION)]


def test_degree_identities_each_policy_has_its_own():
    lit, obs = _identity_premises(Palette(3, [(0, 1, 2)]))
    assert lit["e23_vs_m1"] and lit["e21_vs_m2"]
    assert not lit["slot1_vs_m"]
    assert obs["slot1_vs_m"] and obs["slot3_vs_m"]
    assert not obs["e23_vs_m1"]


@given(small_palettes)
def test_degree_identities_hold_policy_wide(p):
    lit, obs = _identity_premises(p)
    assert lit["e23_vs_m1"] and lit["e21_vs_m2"]
    assert obs["slot1_vs_m"] and obs["slot3_vs_m"]


def test_find_transitive_tournament():
    k3 = bidirected_complete(3)
    assert find_transitive_tournament(k3, 3) == (0, 1, 2)
    assert is_tk_free(k3, 4)
    chain = Digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert find_transitive_tournament(chain, 4) == (0, 1, 2, 3)
    cycle = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert find_transitive_tournament(cycle, 3) is None
    assert find_transitive_tournament(cycle, 2) == (0, 1)
    assert find_transitive_tournament(cycle, 1) == (0,)
    with pytest.raises(ValueError, match="k must be positive"):
        find_transitive_tournament(cycle, 0)
    # T_1100 is deeper than the default recursion limit.
    n = 1100
    big = Digraph.from_masks(n, [((1 << n) - 1) ^ ((1 << (v + 1)) - 1) for v in range(n)])
    assert find_transitive_tournament(big, n) == tuple(range(n))


def test_loops_do_not_create_tournaments():
    d = Digraph(2, [(0, 0), (1, 1), (0, 1)])
    assert find_transitive_tournament(d, 2) == (0, 1)
    assert is_tk_free(d, 3)


def _per_node_find_tk(out, k, spend):
    """The ordered DFS with spend(1) called at every search node, the charging
    rule `_find_tk` keeps while counting its nodes locally; the charge oracle."""
    n = len(out)
    if k > n:
        return None
    prefix, cands, untried = [0] * k, [0] * k, [0] * k
    depth, cand = 0, (1 << n) - 1
    while True:
        spend(1)
        if depth == k:
            return tuple(prefix)
        if cand.bit_count() >= k - depth:
            cands[depth] = untried[depth] = cand
        else:
            depth -= 1
        while depth >= 0 and not untried[depth]:
            depth -= 1
        if depth < 0:
            return None
        rest = untried[depth]
        low = rest & -rest
        untried[depth] = rest ^ low
        prefix[depth] = v = low.bit_length() - 1
        cand = cands[depth] & out[v] & ~low
        depth += 1


def _charged(find, out, k, limit, spent):
    """find's answer, or its BudgetExceeded message, and what a budget of
    limit + spent with spent already charged holds afterwards."""
    budget = _Budget(limit + spent)
    budget.spend(spent)
    try:
        return find(out, k, budget), budget.spent
    except BudgetExceeded as exc:
        return str(exc), budget.spent


def test_find_tk_charges_as_the_per_node_search():
    def oracle(out, k, budget):
        return _per_node_find_tk(out, k, budget.spend)

    rng = random.Random(31)
    random_outs = [tuple(rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n))
                   for n in (rng.randint(1, 10) for _ in range(300))]
    outs = itertools.chain((out for n in range(4)
                            for out in itertools.product(range(1 << n), repeat=n)),
                           (d.out for d in iter_loopless_digraphs(4)), random_outs)
    refused = 0
    for out in outs:
        for k in range(len(out) + 2):
            nodes = []
            found = _per_node_find_tk(out, k, nodes.append)
            assert _find_tk(out, k) == found, (out, k)
            assert _charged(_find_tk, out, k, len(nodes) + 1, 0) == (found, len(nodes))
            for limit in range(1, len(nodes) + 2):
                for spent in (0, 3):
                    expected = _charged(oracle, out, k, limit, spent)
                    assert _charged(_find_tk, out, k, limit, spent) == expected, (out, k, limit)
                    refused += isinstance(expected[0], str)
    assert refused


def test_turan_max_arcs_values():
    assert turan_max_arcs(3, 3) == 4
    assert turan_max_arcs(4, 3) == 8
    assert turan_max_arcs(5, 3) == 12
    assert turan_max_arcs(4, 4) == 10
    assert turan_max_arcs(5, 4) == 16
    assert turan_max_arcs(5, 5) == 18
    with pytest.raises(ValueError):
        turan_max_arcs(2, 3)
    with pytest.raises(ValueError):
        turan_max_arcs(3, 2)


def test_brute_max_arcs_small():
    assert brute_max_arcs(3, 3) == 4
    assert brute_max_arcs(4, 4) == 10
    with pytest.raises(EnumerationCapExceeded):
        brute_max_arcs(6, 3)


def _descending_scan_max_arcs(n, k):
    """Reference oracle: every arc subset by descending arc count, the first
    T_k-free one's count (the maximum)."""
    positions = [(u, v) for u in range(n) for v in range(n) if u != v]
    for count in range(len(positions), -1, -1):
        for combo in itertools.combinations(positions, count):
            out = [0] * n
            for u, v in combo:
                out[u] |= 1 << v
            if _find_tk(out, k) is None:
                return count
    return 0


def test_brute_max_arcs_matches_descending_scan():
    cases = [(n, k) for n in range(5) for k in range(1, 7)]
    cases += [(5, k) for k in range(3, 8)]
    for n, k in cases:
        assert brute_max_arcs(n, k) == _descending_scan_max_arcs(n, k), (n, k)
    for n, k, message in ((3, 0, "k must be positive, got 0"),
                          (-1, 3, "n must be nonnegative, got -1"),
                          (6, 0, "k must be positive, got 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            brute_max_arcs(n, k)


def test_brute_max_arcs_extends_only_tk_free_arc_sets(monkeypatch):
    # The descending scan made 156,410 T_3 searches at n = 5.
    calls = []

    def counting(out, k, budget=None):
        calls.append(k)
        return _find_tk(out, k, budget)

    monkeypatch.setattr("starpal.digraphs._find_tk", counting)
    monkeypatch.setattr("starpal.digraphs.turan_max_arcs", None)
    assert brute_max_arcs(5, 3) == 12
    assert 0 < len(calls) <= 2000
    for k in (1, 2):  # the one-arc digraph holds a T_k: answered at the root
        calls.clear()
        assert brute_max_arcs(5, k) == 0
        assert calls == [k]


def test_iter_loopless_digraphs_counts():
    # Reference order: bit i of the subset counter picks the i-th u-major arc.
    for n in range(4):
        positions = [(u, v) for u in range(n) for v in range(n) if u != v]
        reference = [frozenset(a for i, a in enumerate(positions) if bits >> i & 1)
                     for bits in range(1 << len(positions))]
        assert [set(d.sorted_arcs()) for d in iter_loopless_digraphs(n)] == reference
    assert sum(1 for _ in iter_loopless_digraphs(4)) == 4096
    assert all(has_loop(d) is None for d in iter_loopless_digraphs(3))


def test_tk_free_classes_count_isomorphism_classes():
    # With k = n + 1 every digraph is T_k-free: the classes are all
    # isomorphism classes of loopless digraphs (OEIS A000273).
    for n, classes in enumerate((1, 1, 3, 16, 218, 9608)):
        orbits = [orbit for _, orbit in _tk_free_classes(n, n + 1)]
        assert len(orbits) == classes, n
        assert sum(orbits) == 1 << n * (n - 1), n
        assert all(math.factorial(n) % orbit == 0 for orbit in orbits), n


def test_tk_free_class_orbits_partition_the_labelled_sweep():
    # Relabelling each class's member in every way gives each T_k-free
    # labelled digraph in exactly one class, orbit_size times over.
    for n in range(5):
        perms = list(itertools.permutations(range(n)))
        for k in range(1, n + 2):
            labelled = {d.out for d in iter_loopless_digraphs(n) if is_tk_free(d, k)}
            seen = set()
            for out, orbit in _tk_free_classes(n, k):
                d = Digraph.from_masks(n, out)
                orbit_outs = {Digraph(n, [(p[u], p[v]) for u, v in d.sorted_arcs()]).out
                              for p in perms}
                assert len(orbit_outs) == orbit and not orbit_outs & seen, (n, k, out)
                seen |= orbit_outs
            assert seen == labelled, (n, k)


def test_degree_stats_counts_loops_both_ways():
    d = Digraph(2, [(0, 0), (0, 1)])
    outs, ins = degree_stats(d)
    assert outs == (2, 0)
    assert ins == (1, 1)
    assert [Fraction(max(o, i), 2) for o, i in zip(outs, ins)] == [1, Fraction(1, 2)]


@given(st.integers(0, 8).flatmap(lambda n: st.builds(
    Digraph.from_masks, st.just(n), st.lists(st.integers(0, (1 << n) - 1),
                                             min_size=n, max_size=n))))
def test_degree_stats_matches_arc_scan(d):
    outs, ins = degree_stats(d)
    arcs = d.sorted_arcs()
    assert outs == tuple(sum(u == w for u, _ in arcs) for w in range(d.num_vertices))
    assert ins == tuple(sum(v == w for _, v in arcs) for w in range(d.num_vertices))


def test_caro_wei_directed_cycle():
    cycle = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    rep = caro_wei_check(cycle, 3)
    assert rep.tk_free
    assert rep.sum_ratio == Fraction(3, 2)
    assert rep.bound == 3
    assert rep.holds


def test_caro_wei_bidirected_k22_equality():
    d = Digraph(4, [(u, v) for u in (0, 1) for v in (2, 3)]
                + [(v, u) for u in (0, 1) for v in (2, 3)])
    rep = caro_wei_check(d, 3)
    assert rep.tk_free
    assert rep.sum_ratio == rep.bound == 4
    assert rep.holds


def test_caro_wei_full_degree_vertex():
    d = Digraph(1, [(0, 0)])
    rep = caro_wei_check(d, 3)
    assert rep.sum_ratio is None
    assert not rep.holds


def test_caro_wei_rejects_small_k():
    with pytest.raises(ValueError):
        caro_wei_check(Digraph(1, []), 1)


def test_tk_square_default_threshold():
    d = bidirected_complete(3)
    rep = tk_square_check(d, 4)
    assert rep.tau == Fraction(2, 3)
    assert rep.tk_free
    assert rep.vprime == {0, 1, 2}
    assert rep.sum_sq == 3 * Fraction(1, 6) ** 2
    assert rep.bound == Fraction(1, 36) * 3
    assert rep.holds
    with pytest.raises(ValueError):
        tk_square_check(d, 3)


def test_tripartite_balanced():
    d = tripartite_construction(9, Fraction(0))
    assert len(d.sorted_arcs()) == 54
    rep = tripartite_report(9, Fraction(0))
    assert rep.part_sizes == (3, 3, 3)
    assert rep.t4_free
    assert rep.t3_witness == (0, 3, 6)
    assert rep.tau == Fraction(2, 3)
    assert rep.sum_sq == Fraction(1, 4)
    assert rep.equals_closed_form
    assert rep.k4_bound == Fraction(1, 4)
    assert not rep.exceeds_k4_bound
    assert not rep.exceeds_sixteenth


def test_tripartite_shrunk_parts():
    rep = tripartite_report(30, Fraction(1, 30))
    assert rep.part_sizes == (9, 9, 12)
    assert rep.sum_sq == Fraction(21, 25)
    assert rep.equals_closed_form
    assert rep.exceeds_k4_bound
    assert not rep.exceeds_sixteenth


def test_tripartite_exceeds_sixteenth_once_6eps3_exceeds_5_144():
    # The sum is (1/36 + 6 eps^3) n and n/16 is (1/36 + 5/144) n.
    rep = tripartite_report(30, Fraction(1, 5))
    assert rep.sum_sq == Fraction(341, 150) > rep.sixteenth == Fraction(15, 8)
    assert rep.equals_closed_form and rep.exceeds_sixteenth
    rep = tripartite_report(30, Fraction(1, 6))
    assert rep.equals_closed_form and not rep.exceeds_sixteenth


def test_tripartite_rejects_non_integral_parts():
    with pytest.raises(ValueError):
        tripartite_construction(10, Fraction(0))
    with pytest.raises(ValueError):
        tripartite_construction(9, Fraction(1, 2))


@given(small_digraphs)
def test_tk_free_iff_no_witness(d):
    for k in (2, 3):
        witness = find_transitive_tournament(d, k)
        assert is_tk_free(d, k) == (witness is None)
        if witness is not None:
            assert all(
                (witness[i], witness[j]) in set(d.sorted_arcs())
                for i in range(k) for j in range(i + 1, k))


@given(st.integers(3, 6), st.integers(3, 6))
def test_turan_formula_integrality(n, k):
    if n < k:
        n, k = k, n
    value = turan_max_arcs(n, k)
    assert value == int(value)
    assert 0 <= value <= n * (n - 1)


def _vprime_taus():
    return ([Fraction(0), Fraction(-1, 2), Fraction(1, 3)]
            + [Fraction(2, k - 1) for k in range(4, 8)] + [Fraction(1), Fraction(3, 2), 1, 0.5])


def _vprime_digraphs():
    rng = random.Random(14)
    for n in range(4):
        yield from iter_loopless_digraphs(n)
    for n in range(4, 7):
        for _ in range(40):
            yield Digraph.from_masks(n, [rng.getrandbits(n) & ~(1 << u) for u in range(n)])


def test_tk_square_vprime_matches_fraction_reference():
    for d in _vprime_digraphs():
        n = d.num_vertices
        arcs = d.sorted_arcs()
        x = [max(sum(u == v for u, _ in arcs), sum(w == v for _, w in arcs)) for v in range(n)]
        for tau in _vprime_taus():
            vprime = {v for v in range(n) if Fraction(x[v], n) >= tau}
            rep = tk_square_check(d, 4, tau)
            assert rep.tau is tau
            assert rep.vprime == vprime, (d.out, tau)
            assert rep.sum_sq == sum(((Fraction(x[v], n) - Fraction(1, 2)) ** 2 for v in vprime),
                                     Fraction(0))


def test_turan_max_arcs_matches_fraction_formula():
    for k in range(3, 61):
        for n in range(k, 61):
            a = n % (k - 1)
            assert turan_max_arcs(n, k) == Fraction(k - 2, k - 1) * (n * n - a * a) + a * (a - 1)


def test_arc_free_certificate_implies_tk_free():
    certified = set()
    for n in range(5):
        for d in iter_loopless_digraphs(n):
            for k in range(2, 6):
                classes = _arc_free_classes(d.out, k)
                if classes is not None:
                    assert _is_arc_free_colouring(d.out, classes, k)
                    assert _find_tk(d.out, k) is None, (d.out, k)
                    certified.add(k)
    assert certified == {2, 3, 4, 5}
    # First-fit in index order can need more classes than the chromatic number:
    # the path 0-1-3-2 is 2-colourable, but 3 meets both of greedy's classes.
    path = Digraph(4, [(0, 1), (1, 3), (3, 2)]).out
    assert _arc_free_classes(path, 3) is None
    assert _is_arc_free_colouring(path, [0b1001, 0b0110], 3)


def test_arc_free_colouring_rejects_tampered_classes():
    tampered = 0
    for d in iter_loopless_digraphs(3):
        classes = _arc_free_classes(d.out, 4)
        for v in range(3):
            home = next(i for i, cls in enumerate(classes) if cls >> v & 1)
            nbrs = d.out[v] | sum(1 << u for u in range(3) if d.out[u] >> v & 1)
            for i, cls in enumerate(classes):
                if i != home and cls & nbrs:
                    moved = list(classes)
                    moved[home] ^= 1 << v
                    moved[i] |= 1 << v
                    assert not _is_arc_free_colouring(d.out, moved, 4), (d.out, moved)
                    tampered += 1
    assert tampered
    out = Digraph(3, [(0, 1)]).out
    assert _is_arc_free_colouring(out, [0b101, 0b010], 3)
    assert not _is_arc_free_colouring(out, [0b101, 0b010], 2)  # k classes
    assert not _is_arc_free_colouring(out, [0b001, 0b010], 3)  # vertex 2 uncovered
    assert not _is_arc_free_colouring(out, [0b101, 0b110], 3)  # vertex 2 twice


def test_looped_digraph_gets_no_arc_free_certificate():
    for n in range(1, 4):
        for d in iter_loopless_digraphs(n):
            for v in range(n):
                looped = list(d.out)
                looped[v] |= 1 << v
                assert _arc_free_classes(looped, n + 1) is None
                assert not _is_arc_free_colouring(looped, [1 << u for u in range(n)], n + 1)


def _oracle_digraphs():
    """Every out-mask list with n <= 3 (loops included), every loopless digraph
    on 4 vertices, and 2,000 seeded random digraphs with n <= 12."""
    for n in range(4):
        yield from itertools.product(range(1 << n), repeat=n)
    for d in iter_loopless_digraphs(4):
        yield d.out
    rng = random.Random(29)
    for _ in range(2000):
        n = rng.randint(1, 12)
        sparsity = rng.randrange(3)  # AND 0-2 extra random words to vary the density
        out = []
        for _ in range(n):
            mask = rng.getrandbits(n)
            for _ in range(sparsity):
                mask &= rng.getrandbits(n)
            out.append(mask)
        yield tuple(out)


def _undirected_first_fit(out, k):
    """Reference for `_arc_free_classes`: first-fit, vertices in index order,
    over the undirected graph of out, built in full before any vertex is
    coloured.  None on a loop or when a vertex needs a k-th class."""
    adj = list(out)
    for u, v in itertools.product(range(len(out)), repeat=2):
        if out[u] >> v & 1:
            adj[v] |= 1 << u
    classes = []
    for v, nbrs in enumerate(adj):
        if nbrs >> v & 1:
            return None
        for i, cls in enumerate(classes):
            if not nbrs & cls:
                classes[i] = cls | 1 << v
                break
        else:
            if len(classes) >= k - 1:
                return None
            classes.append(1 << v)
    return classes


def test_arc_free_classes_are_undirected_first_fit_class_for_class():
    certified = 0
    for out in _oracle_digraphs():
        for k in range(1, len(out) + 2):
            classes = _arc_free_classes(out, k)
            assert classes == _undirected_first_fit(out, k), (out, k)
            certified += classes is not None
    assert certified


class _CountedMasks:
    """A sequence of out-masks that counts the masks it hands out."""

    def __init__(self, masks):
        self.masks, self.read = masks, 0

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, v):
        self.read += 1
        return self.masks[v]


def test_first_fit_stops_at_the_vertex_that_needs_a_kth_class():
    # Parts 0..89, 90..179 and 180..269: vertex 180 needs a third class.
    masks = _CountedMasks(tripartite_construction(270, 0).out)
    assert _arc_free_classes(masks, 3) is None
    assert masks.read <= 181
    looped = _CountedMasks([0, 0b10, 0, 0])  # vertex 1 carries a loop
    assert _arc_free_classes(looped, 5) is None
    assert looped.read == 2


@pytest.fixture()
def find_tk_calls(monkeypatch):
    """The k of every `_find_tk` call made through `starpal.digraphs`."""
    calls = []

    def counting(out, k, budget=None):
        calls.append(k)
        return _find_tk(out, k, budget)

    monkeypatch.setattr(starpal.digraphs, "_find_tk", counting)
    return calls


def test_find_transitive_tournament_matches_the_plain_search(find_tk_calls):
    # The arc-free colouring answers some cases before the DFS; every answer,
    # witness or None, must be the plain DFS's own.
    cases = certified = 0
    for out in _oracle_digraphs():
        n = len(out)
        d = Digraph.from_masks(n, out)
        for k in range(1, n + 2):
            searched = len(find_tk_calls)
            assert find_transitive_tournament(d, k) == _find_tk(out, k), (out, k)
            cases += 1
            certified += len(find_tk_calls) == searched
    assert 0 < certified < cases


def test_tight_blow_ups_are_decided_without_a_search(find_tk_calls):
    assert tk_square_check(tripartite_construction(90, Fraction(1, 90)), 4).tk_free
    assert find_tk_calls == []
    five_partite = Digraph(30, [(u, v) for u in range(30) for v in range(30) if u % 5 != v % 5])
    assert caro_wei_check(five_partite, 6).tk_free
    assert find_tk_calls == []
    report = tripartite_report(90, Fraction(1, 90))
    assert report.t4_free and report.t3_witness == (0, 29, 58)
    assert find_tk_calls == [3]
