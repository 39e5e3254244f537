"""Searches for extremal S_k-bad palettes.

Badness is closed under removing triples and colors, so only maximal bad
palettes can carry the best objective value.  Exhaustive mode has one
engine, the breadth-first sweep of one palette per color-relabeling class,
and counts classes with dedup or palettes without it; the local engine
restarts randomized greedy growth.  Every maximal bad palette is grown by
`_grow`, one pass over a triple order.  The sweep and `_grow` decide a bad
base plus one triple by `_bad_extension`, from the base's aux masks with the
triple's four arcs OR-ed in, so a candidate builds no Palette and no aux
digraph.  A triple (x, x, z) or (x, y, y) puts a loop in the aux digraph:
`_grow` rejects it unbuilt; the sweep decides none, counts their classes
once each as stabilizer orbits and charges each base |base| + 1 once.  The
engines offer sorted triple lists to `_Best`, and no search loop calls
`canonical_form`.  Reported optima are re-verified bad: by their star
decision, then by a checked colouring of the aux digraph into k-1 arc-free
classes, or, where greedy finds none, by the brute-force oracle within its cap.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import or_
from typing import Callable, Iterable, Optional, Sequence

from .audit import minimality_check
from .errors import EnumerationCapExceeded
from .digraphs import _arc_free_classes, _aux_masks, _is_arc_free_colouring
from .goodness import (DEFAULT_NODE_BUDGET, _Budget, _star_bad, _star_certificate,
                       brute_force_is_good, make_star)
from .palette import (MAX_CANONICAL_COLORS, Palette, Triple, _mask_triples,
                      _relabeled_masks, canonical_form, compute_stats, iter_all_triples,
                      remove_color)

OBJECTIVES = ("density", "min_degree")
MODES = ("exhaustive", "local")

# Exhaustive mode takes up to 2 colors, or 3 with dedup behind an explicit
# override; the class sweep's cost follows the number of bad classes, not 2^(m^3).
MAX_PLAIN_EXHAUSTIVE_COLORS = 2


@dataclass(frozen=True)
class SearchConfig:
    k: int
    num_colors: int
    objective: str = "density"
    mode: str = "exhaustive"
    seed: int = 0
    iteration_budget: int = 2000
    node_budget: int = DEFAULT_NODE_BUDGET
    dedup: bool = False
    allow_large_exhaustive: bool = False

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if self.num_colors < 1:
            raise ValueError(f"num_colors must be positive, got {self.num_colors}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.iteration_budget < 1 or self.node_budget < 1:
            raise ValueError("budgets must be positive")
        if self.mode == "local" and (self.dedup or self.allow_large_exhaustive):
            raise ValueError("dedup and allow_large_exhaustive apply to exhaustive mode only")
        if self.allow_large_exhaustive and self.num_colors != 3:
            raise ValueError("allow_large_exhaustive applies to 3-color exhaustive mode only")
        if self.mode == "exhaustive" and self.num_colors > MAX_PLAIN_EXHAUSTIVE_COLORS:
            if not (self.num_colors == 3 and self.dedup and self.allow_large_exhaustive):
                raise ValueError(
                    "exhaustive mode supports at most 2 colors; 3 colors need "
                    "dedup=True and allow_large_exhaustive=True")


@dataclass(frozen=True)
class SearchReport:
    best_palette: Palette
    best_objective: Fraction
    num_candidates_examined: int
    num_bad_found: int
    exhaustive_certificate: bool


def _objective_fn(name: str, m: int) -> Callable[[list[Triple]], Fraction]:
    if name == "density":
        return lambda triples: Fraction(len(triples), m ** 3)
    return lambda triples: compute_stats(Palette(m, frozenset(triples))).min_degree


class _Best:
    """Incumbent: the greatest objective value, ties broken toward the
    lexicographically least sorted triple list, taken as offered.

    The exhaustive sweep offers each class's canonical form, the least
    sorted triple list among its relabelings, so it keeps the least optimal
    palette overall.  Lists, not masks: min_degree ties palettes of
    different sizes.
    """

    def __init__(self, objective: Callable[[list[Triple]], Fraction]):
        self.objective = objective
        self.value: Optional[Fraction] = None
        self.triples: Optional[list[Triple]] = None

    def offer(self, triples: list[Triple]) -> None:
        """Consider the palette with these triples, sorted lexicographically."""
        value = self.objective(triples)
        if (self.value is None or value > self.value
                or (value == self.value and triples < self.triples)):
            self.value = value
            self.triples = triples


def search(cfg: SearchConfig) -> SearchReport:
    """Run the configured search and return a verified, reproducible report.

    Exhaustive best palettes are canonical (see `_Best`); local ones are
    canonicalized once, up to MAX_CANONICAL_COLORS colors, and above it are a
    representative of their class.  Exhaustive runs carry a certificate;
    local runs never do, and they spend their whole budget.
    """
    m = cfg.num_colors
    best = _Best(_objective_fn(cfg.objective, m))
    best.offer([])  # the empty palette is S_k-bad
    exhaustive = cfg.mode == "exhaustive"
    if not exhaustive:
        examined, bad_found = _search_local(cfg, best)
    else:
        examined, sizes = _sweep_canonical(cfg, best)
        bad_found = len(sizes)
        if not cfg.dedup:  # count palettes: a bad class holds its orbit of relabelings
            examined, bad_found = 2 ** m ** 3, sum(sizes)
    best_palette = Palette(m, frozenset(best.triples))
    if not exhaustive and m <= MAX_CANONICAL_COLORS:
        best_palette = canonical_form(best_palette)
    _verify_bad(best_palette, cfg.k, cfg.node_budget)
    return SearchReport(
        best_palette=best_palette,
        best_objective=best.value,
        num_candidates_examined=examined,
        num_bad_found=bad_found,
        exhaustive_certificate=exhaustive,
    )


def _verify_bad(p: Palette, k: int, node_budget: int) -> None:
    """Raise RuntimeError unless p is S_k-bad by its star decision and by an
    independent check: k-1 arc-free classes of its aux digraph, else (first
    fit needs at most 2m classes, so only at k <= 2m) the brute-force oracle."""
    out = _aux_masks(p.num_colors, p.triples)
    if _star_certificate(out, len(p.triples), k, _Budget(node_budget)) is not None:
        raise RuntimeError("internal error: reported optimum is not bad")
    classes = _arc_free_classes(out, k)
    if classes is not None:
        if not _is_arc_free_colouring(out, classes, k):
            raise RuntimeError("internal error: colouring certificate fails its check")
        return
    try:
        oracle = brute_force_is_good(p, make_star(k))
    except EnumerationCapExceeded:
        return
    if oracle is not None:
        raise RuntimeError("internal error: brute-force oracle disagrees on reported optimum")


def _sweep_canonical(cfg: SearchConfig, best: _Best) -> tuple[int, list[int]]:
    """Breadth-first sweep of canonical bad palettes, one per relabeling class.

    Each bad palette is a smaller bad one plus a triple, so growing every
    canonical bad palette by every absent triple reaches every class; good
    ones are pruned.  A level maps each class's canonical mask to its
    relabeled masks (identity first) and sorted triples.  Bases and triples
    ascend, so a class is first reached as its canonical form (an earlier
    base + t would sort before it) and keeps base + t's masks.  Extensions by
    a loop-forcing triple are good; their classes are the orbits of the
    base's stabilizer, counted once each by Burnside and never decided, and
    the base pays once the |base| + 1 that deciding them would charge.
    Returns the classes examined and every bad class's orbit size, the empty palette's first.
    """
    m = cfg.num_colors
    # Loop-forcing triples a relabeling fixes: (x, x, z), (x, y, y) on its f fixed colors.
    loops = [2 * f * f - f for f in (sum(c == x for c, x in enumerate(perm))
                                     for perm in itertools.permutations(range(m)))]
    loop_free = [(t, _relabeled_masks(m, [t])) for t in iter_all_triples(m)
                 if t[0] != t[1] != t[2]]
    examined, sizes = 1, [1]  # the empty palette is bad
    level = {0: ([0] * len(loops), [])}
    while level:
        next_level: dict[int, tuple[list[int], list[Triple]]] = {}
        seen_good: set[int] = set()  # a key's popcount is its level: none recur later
        for key in sorted(level, reverse=True):  # one size: ascending triple lists
            masks, base = level[key]
            _Budget(cfg.node_budget).spend(len(base) + 1)
            stabilizer = [loops[i] for i, mask in enumerate(masks) if mask == key]
            examined += sum(stabilizer) // len(stabilizer)
            out = _aux_masks(m, base)
            for t, tbits in loop_free:
                if masks[0] & tbits[0]:
                    continue
                ckey = max(map(or_, masks, tbits))
                if ckey in next_level or ckey in seen_good:
                    continue
                examined += 1
                if _bad_extension(out, len(base), t, cfg.k, cfg.node_budget) is None:
                    seen_good.add(ckey)
                    continue
                triples = _mask_triples(m, ckey)
                next_level[ckey] = (list(map(or_, masks, tbits)), triples)
                best.offer(triples)
        sizes += [len(set(masks)) for masks, _ in next_level.values()]
        level = next_level
    return examined, sizes


def _bad_extension(out: Sequence[int], size: int, t: Triple, k: int,
                   node_budget: int) -> Optional[list[int]]:
    """The aux masks of base + t when that palette is S_k-bad, else None.

    out holds the LITERAL aux masks of a base of `size` triples and t is
    absent from it.  The verdict and its charge (a fresh budget, |base| + 1
    and one per T_k node) are those of `is_bad` on base + t and S_k.
    A triple (x, x, z) or (x, y, y) gives the loop m+x -> m+y or y -> z, so
    it is rejected after the |base| + 1 charge alone, with no masks built.
    node_budget must be positive.
    """
    x, y, z = t
    if x == y or y == z:
        _Budget(node_budget).spend(size + 1)
        return None
    trial = _aux_masks(len(out) // 2, [t], out=out)
    if _star_certificate(trial, size + 1, k, _Budget(node_budget)) is None:
        return trial
    return None


def _grow(p: Palette, order: Iterable[Triple], k: int, node_budget: int) -> Palette:
    """One pass over order: add each absent triple that keeps p S_k-bad.

    The grown palette's aux masks are kept and each trial is decided from
    them by `_bad_extension`; the result is built as a Palette once.  When
    order holds every triple the result is maximal bad: a rejected triple
    stays rejected (supersets of good palettes are good), so no second pass.
    """
    triples = set(p.triples)
    out = _aux_masks(p.num_colors, triples)
    for t in order:
        if t not in triples:
            trial = _bad_extension(out, len(triples), t, k, node_budget)
            if trial is not None:
                triples.add(t)
                out = trial
    return Palette(p.num_colors, frozenset(triples))


def _search_local(cfg: SearchConfig, best: _Best) -> tuple[int, int]:
    """Randomized greedy growth with restarts.

    Each restart grows the empty palette in one pass over the shuffled
    triples, reaching a maximal bad palette unless the budget cuts the pass
    short.  The iteration budget counts badness tests, each accepted one a
    bad palette found.
    """
    rng = random.Random(cfg.seed)
    universe = list(iter_all_triples(cfg.num_colors))
    empty = Palette.empty(cfg.num_colors)
    examined, bad_found = 0, 1
    while examined < cfg.iteration_budget:
        order = universe.copy()
        rng.shuffle(order)
        order = order[:cfg.iteration_budget - examined]
        grown = _grow(empty, order, cfg.k, cfg.node_budget)
        examined += len(order)
        bad_found += len(grown.triples)
        best.offer(grown.sorted_triples())
    return examined, bad_found


def minimalize(p: Palette, k: int) -> Palette:
    """Repeatedly remove colors whose removal does not strictly decrease density.

    Each pass removes the color `minimality_check` returns.  Badness is
    preserved under color removal (any witness for the smaller palette lifts
    to the larger one); each removal asserts it as a cross-check.  Returns
    the palette it ends at, which is minimal: it has one color, or every
    removal strictly decreases density.  Raises ValueError when p is not
    S_k-bad.
    """
    if not _star_bad(p, k):
        raise ValueError("palette is not bad; minimalize expects a bad palette")
    current = p
    while (a := minimality_check(current)) is not None:
        current = remove_color(current, a)
        assert _star_bad(current, k)
    return current


def random_maximal_bad_palette(k: int, num_colors: int, rng: random.Random) -> Palette:
    """Grow the empty palette by shuffled insertions until maximal bad."""
    triples = list(iter_all_triples(num_colors))
    rng.shuffle(triples)
    return _grow(Palette.empty(num_colors), triples, k, DEFAULT_NODE_BUDGET)


def random_bad_palette(k: int, num_colors: int, rng: random.Random) -> Palette:
    """A random subset of a random maximal bad palette (subsets stay bad)."""
    base = random_maximal_bad_palette(k, num_colors, rng)
    kept = frozenset(t for t in base.sorted_triples() if rng.random() < 0.75)
    return Palette(num_colors, kept)
