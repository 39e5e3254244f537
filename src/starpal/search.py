"""Searches for extremal S_k-bad palettes.

Badness is closed under removing triples and colors, so only maximal bad
palettes can carry the best objective value.  The exhaustive engine sweeps
every palette on a fixed color count (optionally deduplicating by canonical
form: one palette per color-relabeling class); the local engine restarts
randomized greedy growth.  Every maximal bad palette is grown by `_grow`,
one pass over a triple order.  The breadth-first sweep and `_grow` decide a
bad base plus one triple by `_bad_extension`, from the base's aux masks with
the triple's four arcs OR-ed in, so a candidate builds no Palette and no aux
digraph.  The engines offer sorted triple lists to `_Best`, and no search
loop calls `canonical_form`.  Reported optima are re-verified bad, by brute
force within its cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import or_
from typing import Callable, Iterable, Optional, Sequence

from .audit import minimality_check
from .errors import EnumerationCapExceeded
from .digraphs import _aux_masks
from .goodness import (DEFAULT_ENUM_CAP, DEFAULT_NODE_BUDGET, ThreeGraph, _Budget,
                       _star_certificate, brute_force_is_good, is_bad, make_star)
from .palette import (MAX_CANONICAL_COLORS, Palette, Triple, _mask_triples,
                      _relabeled_masks, canonical_form, compute_stats, iter_all_triples,
                      remove_color)

OBJECTIVES = ("density", "min_degree")
MODES = ("exhaustive", "local")

# Exhaustive sweeps above 2 colors explode (2^27 palettes at m=3); the m=3
# sweep exists behind an explicit override and requires canonical dedup.
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
    config: SearchConfig
    best_palette: Palette
    best_objective: Fraction
    num_candidates_examined: int
    num_bad_found: int
    exhaustive_certificate: bool
    budget_exhausted: bool


def _objective_fn(name: str, m: int) -> Callable[[list[Triple]], Fraction]:
    if name == "density":
        return lambda triples: Fraction(len(triples), m ** 3)
    return lambda triples: compute_stats(Palette(m, frozenset(triples))).min_degree


class _Best:
    """Incumbent: the greatest objective value, ties broken toward the
    lexicographically least sorted triple list, taken as offered.

    The plain sweep offers every relabeling of every bad palette and the
    deduplicating sweep each class's canonical form, so both keep the least
    optimal canonical form.  Lists, not masks: min_degree ties palettes of
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
    star = make_star(cfg.k)
    m = cfg.num_colors
    best = _Best(_objective_fn(cfg.objective, m))
    best.offer([])  # the empty palette is S_k-bad
    exhaustive = cfg.mode == "exhaustive"
    engine = _search_exhaustive if exhaustive else _search_local
    examined, bad_found = engine(cfg, best)
    best_palette = Palette(m, frozenset(best.triples))
    if not exhaustive and m <= MAX_CANONICAL_COLORS:
        best_palette = canonical_form(best_palette)
    _verify_bad(best_palette, star, cfg.node_budget)
    return SearchReport(
        config=cfg,
        best_palette=best_palette,
        best_objective=best.value,
        num_candidates_examined=examined,
        num_bad_found=bad_found,
        exhaustive_certificate=exhaustive,
        budget_exhausted=not exhaustive,
    )


def _verify_bad(p: Palette, star: ThreeGraph, node_budget: int) -> None:
    if not is_bad(p, star, node_budget=node_budget):
        raise RuntimeError("internal error: reported optimum is not bad")
    try:
        oracle = brute_force_is_good(p, star, cap=DEFAULT_ENUM_CAP)
    except EnumerationCapExceeded:
        return
    if oracle is not None:
        raise RuntimeError("internal error: brute-force oracle disagrees on reported optimum")


def _search_exhaustive(cfg: SearchConfig, best: _Best) -> tuple[int, int]:
    if cfg.dedup:
        return _sweep_canonical(cfg, best)
    m = cfg.num_colors
    universe = list(iter_all_triples(m))
    examined = bad_found = 0
    for bits in range(1 << len(universe)):
        chosen = [universe[i] for i in range(len(universe)) if (bits >> i) & 1]
        examined += 1
        if _star_certificate(_aux_masks(m, chosen), len(chosen), cfg.k,
                             _Budget(cfg.node_budget)) is None:
            bad_found += 1
            best.offer(chosen)
    return examined, bad_found


def _sweep_canonical(cfg: SearchConfig, best: _Best) -> tuple[int, int]:
    """Breadth-first sweep of canonical bad palettes, one per relabeling class.

    Badness is closed downward, so every bad palette with t+1 triples is a
    bad t-triple palette plus one triple; growing each canonical bad palette
    by every absent triple and canonicalizing reaches every class exactly
    once.  Good extensions are pruned (supersets of good palettes are good).
    Classes are canonical masks (see `canonical_form`), and each bad class is
    offered as its canonical triple list.  Each base's aux masks are built
    once and every extension is decided from them by `_bad_extension`, so no
    candidate builds a Palette.
    """
    m = cfg.num_colors
    examined, bad_found = 1, 1  # the empty palette is bad
    bits = [_relabeled_masks(m, [t]) for t in iter_all_triples(m)]
    level = {0}  # the empty palette's mask
    seen_good: set[int] = set()
    while level:
        next_level: set[int] = set()
        for key in sorted(level, reverse=True):  # one size: ascending triple lists
            base = _mask_triples(m, key)
            out = _aux_masks(m, base)
            for t, ckey in _extension_keys(m, base, bits):
                if ckey in next_level or ckey in seen_good:
                    continue
                examined += 1
                if _bad_extension(out, len(base), t, cfg.k, cfg.node_budget) is not None:
                    next_level.add(ckey)
                    bad_found += 1
                    best.offer(_mask_triples(m, ckey))
                else:
                    seen_good.add(ckey)
        level = next_level
    return examined, bad_found


def _extension_keys(m: int, base: list[Triple],
                    bits: list[list[int]]) -> list[tuple[Triple, int]]:
    """Each triple t absent from base, with the canonical mask of base plus t.

    bits[i] holds the i-th triple's masks under every relabeling, as
    `_relabeled_masks` orders them.  The base's relabeled masks are computed
    once, so each extension's key is m! integer ORs and a max.
    """
    masks = _relabeled_masks(m, base)
    return [(t, max(map(or_, masks, tbits)))
            for t, tbits in zip(iter_all_triples(m), bits) if not masks[0] & tbits[0]]


def _bad_extension(out: Sequence[int], size: int, t: Triple, k: int,
                   node_budget: int) -> Optional[list[int]]:
    """The aux masks of base + t when that palette is S_k-bad, else None.

    out holds the LITERAL aux masks of a base of `size` triples and t is
    absent from it.  The verdict and its charge (a fresh budget, |base| + 1
    and one per T_k node) are those of `is_bad(base.with_triple(t), S_k)`.
    """
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


def maximal_bad_extensions(p: Palette, k: int, *,
                           node_budget: int = DEFAULT_NODE_BUDGET) -> Palette:
    """Greedily extend a bad palette to a maximal bad palette.

    Triples are tried once each, in lexicographic order (see `_grow`).
    Raises ValueError when p is not S_k-bad.
    """
    star = make_star(k)
    if not is_bad(p, star, node_budget=node_budget):
        raise ValueError("palette is not bad; nothing to extend")
    return _grow(p, iter_all_triples(p.num_colors), k, node_budget)


def minimalize(p: Palette, k: int, *,
               node_budget: int = DEFAULT_NODE_BUDGET) -> Palette:
    """Repeatedly remove colors whose removal does not strictly decrease density.

    Each pass removes the color `minimality_check` returns.  Badness is
    preserved under color removal (any witness for the smaller palette lifts
    to the larger one); each removal asserts it as a cross-check.  Returns
    the palette it ends at, which is minimal: it has one color, or every
    removal strictly decreases density.  Raises ValueError when p is not
    S_k-bad.
    """
    star = make_star(k)
    if not is_bad(p, star, node_budget=node_budget):
        raise ValueError("palette is not bad; minimalize expects a bad palette")
    current = p
    while (a := minimality_check(current)) is not None:
        current = remove_color(current, a)
        assert is_bad(current, star, node_budget=node_budget)
    return current


def random_maximal_bad_palette(k: int, num_colors: int, rng: random.Random, *,
                               node_budget: int = DEFAULT_NODE_BUDGET) -> Palette:
    """Grow the empty palette by shuffled insertions until maximal bad."""
    triples = list(iter_all_triples(num_colors))
    rng.shuffle(triples)
    return _grow(Palette.empty(num_colors), triples, k, node_budget)


def random_bad_palette(k: int, num_colors: int, rng: random.Random, *,
                       node_budget: int = DEFAULT_NODE_BUDGET) -> Palette:
    """A random subset of a random maximal bad palette (subsets stay bad)."""
    base = random_maximal_bad_palette(k, num_colors, rng, node_budget=node_budget)
    kept = frozenset(t for t in base.sorted_triples() if rng.random() < 0.75)
    return Palette(num_colors, kept)
