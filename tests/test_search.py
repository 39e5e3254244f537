import importlib
import random
from fractions import Fraction

import pytest

from starpal import (AuxPolicy, BudgetExceeded, Palette, SearchConfig, aux_digraph,
                     brute_force_is_good, canonical_form, compute_stats, has_loop,
                     is_bad, is_good,
                     iter_all_triples, make_star, maximal_bad_extensions,
                     minimality_check, minimalize, random_bad_palette,
                     random_maximal_bad_palette, search)
from starpal.digraphs import _aux_masks, _find_tk
from starpal.palette import _mask_triples, _relabeled_masks
from starpal.goodness import DEFAULT_NODE_BUDGET
from starpal.search import _bad_extension, _extension_keys, _grow

OPTIMUM = Palette(2, [(0, 1, 0), (1, 0, 1)])


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(k=3, num_colors=3, objective="density", mode="exhaustive")
    with pytest.raises(ValueError):
        SearchConfig(k=3, num_colors=3, objective="density", mode="exhaustive",
                     allow_large_exhaustive=True)
    with pytest.raises(ValueError):
        SearchConfig(k=3, num_colors=4, objective="density", mode="exhaustive",
                     dedup=True, allow_large_exhaustive=True)
    with pytest.raises(ValueError):
        SearchConfig(k=3, num_colors=2, objective="size", mode="exhaustive")
    with pytest.raises(ValueError):
        SearchConfig(k=1, num_colors=2, objective="density", mode="exhaustive")
    for knob in ("dedup", "allow_large_exhaustive"):
        with pytest.raises(ValueError):
            SearchConfig(k=3, num_colors=2, objective="density", mode="local", **{knob: True})
    # The knob only lifts the 2-color cap of exhaustive mode to 3 colors.
    for m in (1, 2):
        for dedup in (False, True):
            with pytest.raises(ValueError, match="allow_large_exhaustive"):
                SearchConfig(k=3, num_colors=m, objective="density", mode="exhaustive",
                             dedup=dedup, allow_large_exhaustive=True)


def test_exhaustive_two_colors():
    cfg = SearchConfig(k=3, num_colors=2, objective="density", mode="exhaustive")
    report = search(cfg)
    assert report.best_objective == Fraction(1, 4)
    assert canonical_form(report.best_palette) == canonical_form(OPTIMUM)
    assert report.exhaustive_certificate
    assert report.num_candidates_examined == 256
    assert report.num_bad_found == 4
    assert not report.budget_exhausted


def test_exhaustive_min_degree_objective():
    cfg = SearchConfig(k=3, num_colors=2, objective="min_degree", mode="exhaustive")
    report = search(cfg)
    assert report.best_objective == Fraction(1, 4)


def test_exhaustive_single_color():
    cfg = SearchConfig(k=2, num_colors=1, objective="density", mode="exhaustive")
    report = search(cfg)
    assert report.best_objective == 0
    assert report.best_palette.num_triples == 0
    assert report.num_bad_found == 1
    assert report.num_candidates_examined == 2


@pytest.mark.parametrize("engine, examined", [
    ({"dedup": True}, 2),
    ({"mode": "local", "iteration_budget": 5}, 5),
])
def test_single_color_other_engines(engine, examined):
    cfg = SearchConfig(k=2, num_colors=1, objective="density", **engine)
    report = search(cfg)
    assert report.best_objective == 0
    assert report.best_palette.num_triples == 0
    assert report.num_bad_found == 1
    assert report.num_candidates_examined == examined


def test_exhaustive_three_colors_deduped():
    cfg = SearchConfig(k=3, num_colors=3, objective="density", mode="exhaustive",
                       dedup=True, allow_large_exhaustive=True)
    report = search(cfg)
    assert report.best_objective == Fraction(2, 9)
    assert report.exhaustive_certificate
    assert report.num_candidates_examined == 712
    assert report.num_bad_found == 41
    best = report.best_palette
    assert is_good(best, make_star(3)) is None
    assert brute_force_is_good(best, make_star(3)) is None


def test_exhaustive_three_colors_deduped_k7():
    report = search(SearchConfig(k=7, num_colors=3, objective="density", mode="exhaustive",
                                 dedup=True, allow_large_exhaustive=True))
    assert report.best_objective == Fraction(4, 9)
    assert report.num_candidates_examined == 10992
    assert report.num_bad_found == 720


def test_exhaustive_three_colors_deduped_k5():
    cfg = SearchConfig(k=5, num_colors=3, objective="density", mode="exhaustive",
                       dedup=True, allow_large_exhaustive=True)
    report = search(cfg)
    assert report.best_objective == Fraction(10, 27)
    assert report.num_candidates_examined == 9688
    assert report.num_bad_found == 626
    assert report.best_palette == Palette(3, [
        tuple(int(c) for c in w)
        for w in "010 012 020 021 101 102 121 202 210 212".split()])


def test_local_mode_five_colors_pinned():
    cfg = SearchConfig(k=5, num_colors=5, objective="density", mode="local",
                       seed=0, iteration_budget=100)
    report = search(cfg)
    assert report.best_objective == Fraction(7, 25)
    assert report.num_candidates_examined == 100
    assert report.num_bad_found == 36
    assert is_good(report.best_palette, make_star(5)) is None


def test_dedup_reduces_work_without_changing_answer():
    plain = search(SearchConfig(k=3, num_colors=2, objective="density",
                                mode="exhaustive"))
    deduped = search(SearchConfig(k=3, num_colors=2, objective="density",
                                  mode="exhaustive", dedup=True))
    assert deduped.best_objective == plain.best_objective
    assert canonical_form(deduped.best_palette) == canonical_form(plain.best_palette)
    assert deduped.num_candidates_examined < plain.num_candidates_examined


def test_local_mode_is_deterministic_and_finds_optimum():
    cfg = SearchConfig(k=3, num_colors=2, objective="density", mode="local",
                       seed=7, iteration_budget=300)
    first = search(cfg)
    second = search(cfg)
    assert first.best_palette == second.best_palette
    assert first.num_candidates_examined == second.num_candidates_examined
    assert first.best_objective == Fraction(1, 4)
    assert first.budget_exhausted
    assert not first.exhaustive_certificate


def test_local_mode_seed_changes_trajectory():
    reports = [
        search(SearchConfig(k=3, num_colors=3, objective="density", mode="local",
                            seed=s, iteration_budget=120))
        for s in (0, 1)
    ]
    for report in reports:
        assert is_good(report.best_palette, make_star(3)) is None


@pytest.mark.parametrize("k, m, restarts", [(3, 2, 7), (4, 3, 3), (5, 3, 3)])
def test_local_restarts_are_single_pass_random_maximal_palettes(k, m, restarts):
    # A budget of restarts * m^3 tests fits exactly that many full passes, and
    # each restart consumes the rng as random_maximal_bad_palette does.
    report = search(SearchConfig(k=k, num_colors=m, objective="density", mode="local",
                                 seed=1, iteration_budget=restarts * m ** 3))
    rng = random.Random(1)
    grown = [random_maximal_bad_palette(k, m, rng) for _ in range(restarts)]
    assert report.num_candidates_examined == restarts * m ** 3
    assert report.num_bad_found == 1 + sum(len(p.triples) for p in grown)
    assert report.best_objective == max(p.density for p in grown)


def _assert_maximal_bad(p, star):
    assert is_good(p, star) is None
    for t in iter_all_triples(p.num_colors):
        if t not in p.triples:
            assert is_good(p.with_triple(t), star) is not None, t


def test_maximal_bad_extensions():
    extended = maximal_bad_extensions(Palette.empty(2), 3)
    _assert_maximal_bad(extended, make_star(3))
    assert maximal_bad_extensions(OPTIMUM, 3) == OPTIMUM
    with pytest.raises(ValueError):
        maximal_bad_extensions(Palette.full(2), 3)
    rng = random.Random(5)
    for k in (3, 4, 5):
        star = make_star(k)
        for _ in range(3):
            base = random_bad_palette(k, 3, rng)
            extended = maximal_bad_extensions(base, k)
            assert base.triples <= extended.triples
            _assert_maximal_bad(extended, star)
            order = list(iter_all_triples(3))
            rng.shuffle(order)
            _assert_maximal_bad(_grow(base, order, k, DEFAULT_NODE_BUDGET), star)


def test_minimalize_reference_palette():
    result = minimalize(OPTIMUM, 3)
    assert result == OPTIMUM
    assert minimality_check(result) is None


def test_minimalize_drops_unused_color():
    p = Palette(3, [(0, 1, 0), (1, 0, 1)])
    result = minimalize(p, 3)
    assert minimality_check(result) is None
    assert result.num_colors == 2
    assert result.density == Fraction(1, 4)
    with pytest.raises(ValueError):
        minimalize(Palette.full(2), 3)


def test_minimalize_agrees_with_minimality_check():
    rng = random.Random(5)
    shrunk = 0
    for k in (3, 4, 5):
        for m in range(1, 5):
            for _ in range(3):
                result = minimalize(random_bad_palette(k, m, rng), k)
                assert minimality_check(result) is None
                shrunk += result.num_colors < m
    assert shrunk


def test_random_bad_palettes_are_bad():
    star = make_star(3)
    for seed in range(6):
        rng = random.Random(seed)
        maximal = random_maximal_bad_palette(3, 2, rng)
        assert is_good(maximal, star) is None
        sub = random_bad_palette(3, 2, random.Random(seed))
        assert is_good(sub, star) is None


def test_random_bad_palette_deterministic_per_seed():
    a = random_bad_palette(3, 3, random.Random(11))
    b = random_bad_palette(3, 3, random.Random(11))
    assert a == b


def _palette(m, words):
    return Palette(m, [tuple(int(c) for c in w) for w in words.split()])


def test_exhaustive_three_colors_deduped_min_degree():
    cfg = SearchConfig(k=3, num_colors=3, objective="min_degree", mode="exhaustive",
                       dedup=True, allow_large_exhaustive=True)
    report = search(cfg)
    assert report.best_objective == Fraction(1, 9)
    assert report.num_candidates_examined == 712
    assert report.num_bad_found == 41
    # Five triples, fewer than the density optimum's six: min_degree ties
    # palettes of different sizes, and the least sorted triple list wins.
    assert report.best_palette == _palette(3, "010 012 101 121 210")


def test_exhaustive_two_colors_deduped_counts():
    report = search(SearchConfig(k=3, num_colors=2, objective="density",
                                 mode="exhaustive", dedup=True))
    assert report.best_objective == Fraction(1, 4)
    assert report.num_candidates_examined == 15
    assert report.num_bad_found == 3


def _count_canonical_forms(monkeypatch):
    """Count search's canonical_form calls; returns the growing call list."""
    calls = []

    def counting(p):
        calls.append(p)
        return canonical_form(p)

    # The package's `search` name is the function, so fetch the module itself.
    monkeypatch.setattr(importlib.import_module("starpal.search"), "canonical_form", counting)
    return calls


@pytest.mark.parametrize("cfg, calls", [
    (SearchConfig(k=3, num_colors=2, objective="density", mode="exhaustive"), 0),
    (SearchConfig(k=3, num_colors=2, objective="min_degree", mode="exhaustive"), 0),
    (SearchConfig(k=5, num_colors=2, objective="density", mode="exhaustive"), 0),
    (SearchConfig(k=3, num_colors=3, objective="density", mode="exhaustive",
                  dedup=True, allow_large_exhaustive=True), 0),
    (SearchConfig(k=5, num_colors=3, objective="density", mode="exhaustive",
                  dedup=True, allow_large_exhaustive=True), 0),
    (SearchConfig(k=5, num_colors=5, objective="density", mode="local",
                  seed=0, iteration_budget=100), 1),
], ids=["plain-density", "plain-min-degree", "plain-k5", "dedup-m3", "dedup-m3-k5",
        "local-m5"])
def test_best_palette_is_canonical(monkeypatch, cfg, calls):
    # Exhaustive optima come out canonical from the tie rule alone; local
    # search canonicalizes its winner once, after the search.
    counted = _count_canonical_forms(monkeypatch)
    best = search(cfg).best_palette
    assert len(counted) == calls
    assert best == canonical_form(best)


def test_local_search_runs_above_canonical_colors(monkeypatch):
    counted = _count_canonical_forms(monkeypatch)
    report = search(SearchConfig(k=4, num_colors=9, mode="local", seed=0,
                                 iteration_budget=300))
    assert not counted
    assert report.num_candidates_examined == 300
    assert report.best_objective == report.best_palette.density > 0
    assert is_bad(report.best_palette, make_star(4))


@pytest.mark.parametrize("objective", ["density", "min_degree"])
@pytest.mark.parametrize("m", [1, 2])
def test_exhaustive_best_is_least_optimal_canonical_form(m, objective):
    # The reference rule: among all optimal bad palettes, report the least
    # canonical form (by sorted triple list).
    def value(p):
        return p.density if objective == "density" else compute_stats(p).min_degree

    universe = list(iter_all_triples(m))
    subsets = [Palette(m, [t for i, t in enumerate(universe) if bits >> i & 1])
               for bits in range(1 << len(universe))]
    for k in range(2, 7):
        star = make_star(k)
        bad = [p for p in subsets if is_bad(p, star)]
        top = max(map(value, bad))
        expected = min((canonical_form(p) for p in bad if value(p) == top),
                       key=Palette.sorted_triples)
        for dedup in (False, True):
            report = search(SearchConfig(k=k, num_colors=m, objective=objective,
                                         mode="exhaustive", dedup=dedup))
            assert (report.best_palette, report.best_objective) == (expected, top), (k, dedup)


def test_incremental_keys_match_canonical_form():
    bits = [_relabeled_masks(3, [t]) for t in iter_all_triples(3)]
    rng = random.Random(3)
    for k in (3, 4, 5):
        for _ in range(10):
            base = random_bad_palette(k, 3, rng)
            triples = base.sorted_triples()
            keys = _extension_keys(3, triples, bits)
            assert [t for t, _ in keys] == [t for t in iter_all_triples(3)
                                            if t not in base.triples]
            for t, key in keys:
                expected = canonical_form(base.with_triple(t)).sorted_triples()
                assert _mask_triples(3, key) == expected


def _charge(p, k):
    """What is_bad(p, S_k) charges: |P|, plus one per T_k search node when the
    LITERAL aux digraph has no loop."""
    d = aux_digraph(p, AuxPolicy.LITERAL)
    nodes = []
    if has_loop(d) is None:
        _find_tk(d.out, d.num_vertices, k, nodes.append)
    return len(p.triples) + len(nodes)


def _decided(decide, budget):
    """decide(budget)'s verdict, or the BudgetExceeded message."""
    try:
        return decide(budget)
    except BudgetExceeded as exc:
        return str(exc)


def _assert_extension_matches_is_bad(base, t, k):
    grown = base.with_triple(t)
    out = _aux_masks(base.num_colors, base.triples)
    star = make_star(k)

    def by_masks(budget):
        return _bad_extension(out, len(base.triples), t, k, budget) is not None

    def by_palette(budget):
        return is_bad(grown, star, node_budget=budget)

    need = _charge(grown, k)
    bad = by_palette(need)
    assert (_bad_extension(out, len(base.triples), t, k, need)
            == (_aux_masks(grown.num_colors, grown.triples) if bad else None))
    for budget in {1, len(base.triples), len(base.triples) + 1, need - 1}:
        if budget >= 1:
            assert _decided(by_masks, budget) == _decided(by_palette, budget)
    if need > 1:
        assert isinstance(_decided(by_masks, need - 1), str)
    return bad


def test_bad_extension_matches_is_bad_on_every_two_color_base():
    universe = list(iter_all_triples(2))
    verdicts = set()
    for bits in range(1 << len(universe)):
        base = Palette(2, [t for i, t in enumerate(universe) if bits >> i & 1])
        for t in universe:
            if t not in base.triples:
                for k in range(3, 8):
                    verdicts.add(_assert_extension_matches_is_bad(base, t, k))
    assert verdicts == {True, False}


def test_bad_extension_matches_is_bad_on_seeded_bases():
    rng = random.Random(12)
    verdicts = set()
    for m in (3, 4, 5):
        universe = list(iter_all_triples(m))
        for k in range(3, 8):
            for _ in range(4):
                # Bad bases, as the searches extend, and arbitrary ones.
                bad = random_bad_palette(k, m, rng)
                any_base = Palette(m, rng.sample(universe, rng.randrange(m ** 3 // 3)))
                for base in (bad, any_base):
                    absent = [t for t in universe if t not in base.triples]
                    for t in rng.sample(absent, min(6, len(absent))):
                        verdicts.add(_assert_extension_matches_is_bad(base, t, k))
    assert verdicts == {True, False}


def _reference_grow(p, order, k):
    """One pass over order, asking is_bad of each trial palette."""
    star = make_star(k)
    for t in order:
        if t not in p.triples and is_bad(p.with_triple(t), star):
            p = p.with_triple(t)
    return p


def test_grow_matches_reference_grower():
    rng = random.Random(8)
    for m in (2, 3, 4):
        universe = list(iter_all_triples(m))
        for k in (3, 4, 5, 6):
            for _ in range(3):
                order = universe.copy()
                rng.shuffle(order)
                grown = _reference_grow(Palette.empty(m), order, k)
                starts = [Palette.empty(m),
                          Palette(m, [t for t in grown.triples if rng.random() < 0.5]),
                          Palette(m, rng.sample(universe, m))]
                for start in starts:
                    order = universe.copy()
                    rng.shuffle(order)
                    order = order[:rng.randrange(1, len(order) + 1)]
                    assert (_grow(start, order, k, DEFAULT_NODE_BUDGET)
                            == _reference_grow(start, order, k))
