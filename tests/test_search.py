import importlib
import itertools
import random
from fractions import Fraction

import pytest

from starpal import (AuxPolicy, BudgetExceeded, Palette, SearchConfig, aux_digraph,
                     brute_force_is_good, canonical_form, compute_stats, has_loop,
                     is_bad, is_good,
                     iter_all_triples, make_star, minimality_check, minimalize,
                     random_bad_palette, random_maximal_bad_palette, search)
from starpal.digraphs import (_arc_free_classes, _aux_masks, _find_tk,
                              find_transitive_tournament, tripartite_construction)
from starpal.errors import _Budget
from starpal.goodness import DEFAULT_NODE_BUDGET
from starpal.palette import _mask_triples, permute_colors
from starpal.search import OBJECTIVES, _Best, _bad_extension, _grow, _sorts_before, _verify_bad

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


def test_exhaustive_min_degree_objective():
    cfg = SearchConfig(k=3, num_colors=2, objective="min_degree", mode="exhaustive")
    report = search(cfg)
    assert report.best_objective == Fraction(1, 4)


def test_exhaustive_single_color():
    cfg = SearchConfig(k=2, num_colors=1, objective="density", mode="exhaustive")
    report = search(cfg)
    assert report.best_objective == 0
    assert len(report.best_palette.triples) == 0
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
    assert len(report.best_palette.triples) == 0
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


@pytest.mark.parametrize("k, examined, bad, best", [
    (2, 6, 1, 0), (4, 4623, 287, Fraction(1, 3)), (6, 10923, 713, Fraction(11, 27))])
def test_exhaustive_three_colors_deduped_even_k(k, examined, bad, best):
    report = search(SearchConfig(k=k, num_colors=3, objective="density", mode="exhaustive",
                                 dedup=True, allow_large_exhaustive=True))
    assert report.num_candidates_examined == examined
    assert report.num_bad_found == bad
    assert report.best_objective == best


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
            assert is_good(Palette(p.num_colors, p.triples | {t}), star) is not None, t


def _count_oracle_calls(monkeypatch):
    calls = []
    mod = importlib.import_module("starpal.search")
    oracle = mod.brute_force_is_good

    def counting(p, f):
        calls.append(p)
        return oracle(p, f)

    monkeypatch.setattr(mod, "brute_force_is_good", counting)
    return calls


def test_verify_bad_runs_the_oracle_only_without_a_colouring(monkeypatch):
    calls = _count_oracle_calls(monkeypatch)
    for p, k in ((OPTIMUM, 3), (Palette(3), 2), (Palette(2, [(0, 1, 0)]), 3)):
        _verify_bad(p, k, DEFAULT_NODE_BUDGET)
    assert calls == []
    # {101} is S_3-bad and its aux digraph is the path 0-1-3-2, which is
    # 2-colourable; first-fit colours 0 and 2 alike, so 3 needs a third class.
    # Of the 256 two-color palettes it is the one bad palette at k = 3..5
    # that greedy does not certify.
    lone = Palette(2, [(1, 0, 1)])
    universe = list(iter_all_triples(2))
    uncertified = [
        (p, k) for p in (Palette(2, [t for i, t in enumerate(universe) if bits >> i & 1])
                         for bits in range(1 << len(universe)))
        for k in (3, 4, 5)
        if is_bad(p, make_star(k)) and _arc_free_classes(_aux_masks(2, p.triples), k) is None]
    assert uncertified == [(lone, 3)]
    _verify_bad(lone, 3, DEFAULT_NODE_BUDGET)
    assert calls == [lone]


def test_colouring_certificate_is_checked_in_one_place(monkeypatch):
    # Both callers take their classes from `_arc_free_classes`, which checks
    # them itself and raises rather than asserts, so the check holds under -O.
    monkeypatch.setattr("starpal.digraphs._is_arc_free_colouring", lambda *_: False)
    message = "^internal error: colouring certificate fails its check$"
    with pytest.raises(RuntimeError, match=message):
        find_transitive_tournament(tripartite_construction(9, 0), 4)
    with pytest.raises(RuntimeError, match=message):
        _verify_bad(OPTIMUM, 3, DEFAULT_NODE_BUDGET)


def test_verify_bad_raises_on_good_palettes(monkeypatch):
    calls = _count_oracle_calls(monkeypatch)
    for p, k in ((Palette(2, iter_all_triples(2)), 3),
                 (Palette(OPTIMUM.num_colors, OPTIMUM.triples | {(0, 0, 0)}), 5),
                 (Palette(2, [(0, 1, 0), (1, 0, 0)]), 3)):
        assert is_good(p, make_star(k)) is not None
        with pytest.raises(RuntimeError, match="not bad"):
            _verify_bad(p, k, DEFAULT_NODE_BUDGET)
    assert calls == []


def test_verify_bad_charges_what_is_bad_charges():
    # Every budget up to one past the need: the same BudgetExceeded message
    # as is_bad, and no raise at all exactly where is_bad answers.
    checked = 0
    for m, k, seed in itertools.product(range(2, 5), range(3, 7), range(2)):
        p = random_bad_palette(k, m, random.Random(seed))
        star = make_star(k)
        need = _charge(p, k)
        for budget in range(1, need + 2):
            verdict = _decided(lambda b: is_bad(p, star, node_budget=b), budget)
            assert _decided(lambda b: _verify_bad(p, k, b), budget) == (
                None if verdict is True else verdict)
            checked += verdict is not True
    assert checked > 0


def test_search_builds_no_star_past_the_oracle(monkeypatch):
    # First fit colours 2m aux vertices in at most 2m classes, so k > 2m never
    # reaches the oracle and the k-star (k(k-1)/2 edges) is never built.
    def refuse(k):
        raise AssertionError(f"make_star({k}) called")

    monkeypatch.setattr(importlib.import_module("starpal.search"), "make_star", refuse)
    report = search(SearchConfig(k=2000, num_colors=2))
    assert report.best_objective == Fraction(1, 4)
    assert report.num_candidates_examined == 256
    assert report.num_bad_found == 4


def test_grown_palettes_are_maximal_bad():
    lexicographic = _grow(Palette(2), iter_all_triples(2), 3, DEFAULT_NODE_BUDGET)
    _assert_maximal_bad(lexicographic, make_star(3))
    assert _grow(OPTIMUM, iter_all_triples(2), 3, DEFAULT_NODE_BUDGET) == OPTIMUM
    rng = random.Random(5)
    for k in (3, 4, 5):
        star = make_star(k)
        for m in (2, 3):
            _assert_maximal_bad(random_maximal_bad_palette(k, m, rng), star)
        for _ in range(3):
            base = random_bad_palette(k, 3, rng)
            for order in (list(iter_all_triples(3)), rng.sample(list(iter_all_triples(3)), 27)):
                grown = _grow(base, order, k, DEFAULT_NODE_BUDGET)
                assert base.triples <= grown.triples
                _assert_maximal_bad(grown, star)


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
        minimalize(Palette(2, iter_all_triples(2)), 3)


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


def test_minimalize_and_growth_build_no_star(monkeypatch):
    # Two or three colours give at most 6 aux vertices, so k = 5 and k = 1000
    # have the same bad palettes; the 1000-star has 499,500 edges.
    wide = Palette(3, [(0, 1, 0), (1, 0, 1)])
    extended = random_maximal_bad_palette(5, 2, random.Random(3))
    shrunk = minimalize(wide, 5)

    def refuse(k):
        raise AssertionError(f"make_star({k}) called")

    for name in ("starpal.search", "starpal.goodness"):
        monkeypatch.setattr(importlib.import_module(name), "make_star", refuse)
    assert random_maximal_bad_palette(1000, 2, random.Random(3)) == extended
    assert minimalize(wide, 1000) == shrunk
    assert minimalize(OPTIMUM, 1000) == OPTIMUM
    with pytest.raises(ValueError, match=r"^a star needs at least 2 leaves, got k=1$"):
        minimalize(OPTIMUM, 1)
    with pytest.raises(ValueError, match="palette is not bad"):
        minimalize(Palette(2, iter_all_triples(2)), 1000)


def test_minimalize_raises_when_a_removal_leaves_the_palette_good(monkeypatch):
    # The check is a raise, not an assert, so python -O keeps it.
    verdicts = iter([True, False])
    monkeypatch.setattr(importlib.import_module("starpal.search"), "_star_bad",
                        lambda p, k: next(verdicts))
    message = "^internal error: colour removal made the palette good$"
    with pytest.raises(RuntimeError, match=message):
        minimalize(Palette(3, [(0, 1, 0), (1, 0, 1)]), 5)


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


@pytest.mark.parametrize("k, examined, bad, words", [
    (4, 4623, 287, "010 012 020 101 120 121 201 202 212"),
    (5, 9688, 626, "010 012 020 021 101 102 121 202 210 212"),
    (6, 10923, 713, "010 012 020 021 101 102 120 121 201 202 212")])
def test_exhaustive_three_colors_deduped_min_degree_pinned(k, examined, bad, words):
    report = search(SearchConfig(k=k, num_colors=3, objective="min_degree", dedup=True,
                                 allow_large_exhaustive=True))
    assert report.best_objective == Fraction(1, 3)
    assert (report.num_candidates_examined, report.num_bad_found) == (examined, bad)
    assert report.best_palette == _palette(3, words)


def test_mask_tie_rule_matches_sorted_list_order():
    # Every pair of masks with m <= 2, then random 3-colour pairs, a third of
    # them a mask against one of its prefixes (its highest bits kept).
    pairs = [(1, a, b) for a in range(2) for b in range(2)]
    pairs += [(2, a, b) for a in range(256) for b in range(256)]
    rng = random.Random(8)
    for _ in range(5000):
        a = rng.getrandbits(27)
        b = a & -(1 << rng.randrange(28)) if rng.random() < 1 / 3 else rng.getrandbits(27)
        pairs += [(3, a, b), (3, b, a)]
    lists = {}
    for m, a, b in pairs:
        la, lb = (lists.setdefault((m, x), _mask_triples(m, x)) for x in (a, b))
        assert _sorts_before(a, b) == (la < lb), (m, a, b)
    assert any(_sorts_before(a, b) and a & b == a != b for _, a, b in pairs)


def test_mask_objectives_match_palette_stats():
    # Bad palettes are loop-free (a triple (x, x, z) or (x, y, y) is a loop of
    # the aux digraph), so every subset of the loop-free triples covers them all.
    for m in (1, 2, 3):
        loop_free = [t for t in iter_all_triples(m) if t[0] != t[1] != t[2]]
        density, min_degree = _Best("density", m), _Best("min_degree", m)
        assert (density.den, min_degree.den) == (m ** 3, m * m)
        for bits in range(1 << len(loop_free)):
            p = Palette(m, [t for i, t in enumerate(loop_free) if bits >> i & 1])
            mask = sum(1 << m ** 3 - 1 - (a * m + b) * m - c for a, b, c in p.triples)
            assert _mask_triples(m, mask) == p.sorted_triples()
            assert sum(map(density.bit.__getitem__, p.triples)) == mask
            assert Fraction(density.score(mask), density.den) == p.density
            assert Fraction(min_degree.score(mask), min_degree.den) == compute_stats(p).min_degree


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
    for k in range(2, 9):
        star = make_star(k)
        bad = [p for p in subsets if is_bad(p, star)]
        top = max(map(value, bad))
        expected = min((canonical_form(p) for p in bad if value(p) == top),
                       key=Palette.sorted_triples)
        for dedup in (False, True):
            report = search(SearchConfig(k=k, num_colors=m, objective=objective,
                                         mode="exhaustive", dedup=dedup))
            assert (report.best_palette, report.best_objective) == (expected, top), (k, dedup)
            if dedup:  # relabeling classes
                assert report.num_bad_found == len(set(map(canonical_form, bad))), k
            else:  # palettes
                assert report.num_candidates_examined == len(subsets) == 2 ** m ** 3
                assert report.num_bad_found == len(bad), k


def _reference_class_sweep(m, k):
    """The class sweep from canonical_form and is_bad alone: the number of
    classes examined and every bad class's canonical form, level by level."""
    star = make_star(k)
    universe = list(iter_all_triples(m))
    level = [Palette(m)]
    examined, bad = 1, list(level)
    while level:
        verdicts = {}
        for base in level:
            for t in universe:
                if t not in base.triples:
                    grown = canonical_form(Palette(base.num_colors, base.triples | {t}))
                    if grown not in verdicts:
                        verdicts[grown] = is_bad(grown, star)
        examined += len(verdicts)
        level = [p for p, verdict in verdicts.items() if verdict]
        bad += level
    return examined, bad


@pytest.mark.parametrize("m, k", [(m, k) for m in (1, 2, 3) for k in range(2, 9)])
def test_class_sweep_matches_reference_sweep(m, k):
    examined, bad = _reference_class_sweep(m, k)
    for objective in OBJECTIVES:
        def value(p):
            return p.density if objective == "density" else compute_stats(p).min_degree

        top = max(map(value, bad))
        expected = min((p for p in bad if value(p) == top), key=Palette.sorted_triples)
        report = search(SearchConfig(k=k, num_colors=m, objective=objective, dedup=True,
                                     allow_large_exhaustive=m == 3))
        assert (report.num_candidates_examined, report.num_bad_found) == (examined, len(bad))
        assert (report.best_objective, report.best_palette) == (top, expected), objective
    if m <= 2:  # palettes: each class counts its distinct relabelings
        plain = search(SearchConfig(k=k, num_colors=m))
        assert plain.num_candidates_examined == 2 ** m ** 3
        assert plain.num_bad_found == sum(
            len({permute_colors(p, perm) for perm in itertools.permutations(range(m))})
            for p in bad)


@pytest.mark.parametrize("m, k, budget", [(2, 5, 2), (3, 7, 12)])
def test_sweep_charges_each_base_its_loop_forcing_decisions(m, k, budget):
    # Every base of `budget` triples has only loop-forcing extensions left to
    # decide, so the |base| + 1 those decisions charge is what exhausts the budget.
    for dedup in (True, False) if m == 2 else (True,):
        with pytest.raises(BudgetExceeded, match=rf"^node budget exhausted "
                                                 rf"\({budget + 1} checks, budget {budget}\)$"):
            search(SearchConfig(k=k, num_colors=m, dedup=dedup, allow_large_exhaustive=m == 3,
                                node_budget=budget))


def _charge(p, k):
    """What is_bad(p, S_k) charges: |P|, plus one per T_k search node when the
    LITERAL aux digraph has no loop."""
    d = aux_digraph(p, AuxPolicy.LITERAL)
    budget = _Budget(DEFAULT_NODE_BUDGET)
    if has_loop(d) is None:
        _find_tk(d.out, k, budget)
    return len(p.triples) + budget.spent


def _decided(decide, budget):
    """decide(budget)'s verdict, or the BudgetExceeded message."""
    try:
        return decide(budget)
    except BudgetExceeded as exc:
        return str(exc)


def _assert_extension_matches_is_bad(base, t, k):
    grown = Palette(base.num_colors, base.triples | {t})
    out = _aux_masks(base.num_colors, base.triples)
    star = make_star(k)
    size = len(base.triples)
    # The decision without the base's node count, and with it when the base is bad.
    counts = {None, _charge(base, k) - size} if is_bad(base, star) else {None}

    def by_palette(budget):
        return is_bad(grown, star, node_budget=budget)

    need = _charge(grown, k)
    bad = by_palette(need)
    for nodes in counts:
        def by_masks(budget):
            return _bad_extension((out, nodes), size, t, k, budget) is not None

        assert (_bad_extension((out, nodes), size, t, k, need)
                == ((_aux_masks(grown.num_colors, grown.triples), need - size - 1)
                    if bad else None))
        for budget in {1, size, size + 1, need - 1}:
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
        if t not in p.triples and is_bad(Palette(p.num_colors, p.triples | {t}), star):
            p = Palette(p.num_colors, p.triples | {t})
    return p


def test_grow_matches_reference_grower():
    rng = random.Random(8)
    for m in (2, 3, 4):
        universe = list(iter_all_triples(m))
        for k in (3, 4, 5, 6):
            for _ in range(3):
                order = universe.copy()
                rng.shuffle(order)
                grown = _reference_grow(Palette(m), order, k)
                starts = [Palette(m),
                          Palette(m, [t for t in grown.triples if rng.random() < 0.5]),
                          Palette(m, rng.sample(universe, m))]
                for start in starts:
                    order = universe.copy()
                    rng.shuffle(order)
                    order = order[:rng.randrange(1, len(order) + 1)]
                    assert (_grow(start, order, k, DEFAULT_NODE_BUDGET)
                            == _reference_grow(start, order, k))


def _assert_covered_rule_is_the_arc_test(p, rng):
    """`_bad_extension` takes a triple as covered, returning the base's own
    masks and node count unsearched, exactly when the triple adds no aux arc."""
    out = _aux_masks(p.num_colors, p.triples)
    nodes = rng.randrange(100)
    for t in iter_all_triples(p.num_colors):
        if t[0] != t[1] != t[2]:
            found = _bad_extension((out, nodes), len(p.triples), t, 4, DEFAULT_NODE_BUDGET)
            covered = found is not None and found[0] is out
            assert covered == (_aux_masks(p.num_colors, [t], out=out) == out)
            assert not covered or found[1] == nodes


def test_covered_rule_is_the_arc_test():
    rng = random.Random(32)
    for m in (1, 2):
        universe = list(iter_all_triples(m))
        for bits in range(1 << len(universe)):
            _assert_covered_rule_is_the_arc_test(
                Palette(m, [t for i, t in enumerate(universe) if bits >> i & 1]), rng)
    for m in (3, 4, 5):
        universe = list(iter_all_triples(m))
        for _ in range(40):
            _assert_covered_rule_is_the_arc_test(
                Palette(m, rng.sample(universe, rng.randrange(len(universe) // 2))), rng)


def test_grow_runs_no_tk_search_for_a_covered_triple(monkeypatch):
    goodness = importlib.import_module("starpal.goodness")
    searched = []

    def counting(out, k, budget=None):
        searched.append(list(out))
        return _find_tk(out, k, budget)

    monkeypatch.setattr(goodness, "_find_tk", counting)
    # (2,1,0), (0,1,2) and (0,2,0) give (0,1,0)'s arcs 1 -> 0, 3 -> 4 and 0 -> 3.
    base = [(2, 1, 0), (0, 1, 2), (0, 2, 0)]
    grown = _grow(Palette(3), [*base, (0, 1, 0)], 4, DEFAULT_NODE_BUDGET)
    assert grown == Palette(3, [*base, (0, 1, 0)])
    assert len(searched) == 3
    # On a seeded pass, one search per loop-free decision that adds an arc.
    universe = list(iter_all_triples(5))
    random.Random(4).shuffle(universe)
    p, expected, covered = Palette(5), 0, 0
    for t in universe:
        if t[0] != t[1] != t[2] and t not in p.triples:
            adds = _aux_masks(5, p.triples | {t}) != _aux_masks(5, p.triples)
            expected += adds
            covered += not adds
            if is_bad(Palette(5, p.triples | {t}), make_star(6)):
                p = Palette(5, p.triples | {t})
    assert covered > 0
    searched.clear()
    assert _grow(Palette(5), universe, 6, DEFAULT_NODE_BUDGET) == p
    assert len(searched) == expected
