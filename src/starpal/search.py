"""Searches for extremal S_k-bad palettes.

Badness is closed under removing triples and colors, so only maximal bad
palettes can carry the best objective value.  Exhaustive mode sweeps one
palette per color-relabeling class and counts classes with dedup or palettes
without it; the local engine restarts randomized greedy growth.  Every
maximal bad palette is grown by `_grow`, one pass over a triple order.  The
sweep and `_grow` decide a bad base plus one triple by `_bad_extension`, from
the base's aux masks with the triple's four arcs OR-ed in, so a candidate
builds no Palette and no aux digraph; one that adds no arc runs no T_k
search and is charged the base's node count.  Each base carries a status:
counted bad, uncounted bad, or unknown (only a nonempty `_grow` start).
Where the budget cannot bind, an extension of a known-bad base is bad when
first-fit splits it into k-1 arc-free classes, else good exactly when it
holds a T_k through one of its new arcs.  The engines offer triple masks to
`_Best`, which scores them in integers, and no search loop decodes a mask,
builds a Fraction or calls `canonical_form`.
Reported optima are re-verified bad: by their star decision, then by a
checked colouring of the aux digraph into k-1 arc-free classes, or, where
greedy finds none, by the brute-force oracle within its cap.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .audit import minimality_check
from .errors import EnumerationCapExceeded, _Budget
from .digraphs import _arc_free_classes, _find_new_tk
from .goodness import (DEFAULT_NODE_BUDGET, _star_bad, _star_certificate,
                       brute_force_is_good, make_star)
from .palette import (MAX_CANONICAL_COLORS, Palette, Triple, _aux_masks, _mask_triples,
                      _orbit_sweep, _relabeled_masks, canonical_form, iter_all_triples,
                      remove_color)

OBJECTIVES = ("density", "min_degree")
MODES = ("exhaustive", "local")

# Exhaustive mode takes up to 2 colors, or 3 with dedup behind an explicit
# override; the class sweep's cost follows the number of bad classes, not 2^(m^3).
MAX_PLAIN_EXHAUSTIVE_COLORS = 2

# A palette's LITERAL aux masks and its status: the T_k search node count of a
# bad palette that was searched, _UNCOUNTED for a bad one that was not, or
# None when it is not known to be bad (a nonempty `_grow` start).
_Base = tuple[Sequence[int], Optional[int]]
_UNCOUNTED = -1


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


def _sorts_before(a: int, b: int) -> bool:
    """Whether triple mask a sorts before b as a sorted triple list: at the top
    bit where they differ, the mask holding it does (see `canonical_form`),
    unless the other one has no bit below it and so is its proper prefix."""
    h = 1 << (a ^ b).bit_length() >> 1  # 0 when a == b
    return bool(b & h - 1) if a & h else bool(b & h) and not a & h - 1


class _Best:
    """Incumbent: the greatest objective value, ties broken toward the
    lexicographically least sorted triple list, taken as offered.

    Palettes are offered as triple masks (triple t at bit `bit[t]`, see
    `canonical_form`) and scored in integers over `den`: density counts the
    triples over m^3, min_degree takes the least slice, the triples with
    color a at position i, over m^2.  Ties go by `_sorts_before`, since
    min_degree ties palettes of different sizes.  The exhaustive sweep offers
    each class's canonical form, the least sorted triple list among its
    relabelings, so it keeps the least optimal palette overall.
    """

    def __init__(self, objective: str, m: int):
        self.value, self.mask = -1, 0
        self.bit = {t: 1 << m ** 3 - 1 - j for j, t in enumerate(iter_all_triples(m))}
        if objective == "density":
            self.score, self.den = int.bit_count, m ** 3
        else:
            slices = [sum(b for t, b in self.bit.items() if t[i] == a)
                      for a in range(m) for i in range(3)]
            self.score, self.den = (lambda key: min((key & s).bit_count() for s in slices)), m * m

    def offer(self, mask: int) -> None:
        """Consider the palette with this triple mask."""
        value = self.score(mask)
        if value > self.value or (value == self.value and _sorts_before(mask, self.mask)):
            self.value, self.mask = value, mask


def search(cfg: SearchConfig) -> SearchReport:
    """Run the configured search and return a verified, reproducible report.

    Exhaustive best palettes are canonical (see `_Best`); local ones are
    canonicalized once, up to MAX_CANONICAL_COLORS colors, and above it are a
    representative of their class.  Exhaustive runs carry a certificate;
    local runs never do, and they spend their whole budget.
    """
    m = cfg.num_colors
    best = _Best(cfg.objective, m)
    best.offer(0)  # the empty palette is S_k-bad
    exhaustive = cfg.mode == "exhaustive"
    if not exhaustive:
        examined, bad_found = _search_local(cfg, best)
    else:
        examined, sizes = _sweep_canonical(cfg, best)
        bad_found = len(sizes)
        if not cfg.dedup:  # count palettes: a bad class holds its orbit of relabelings
            examined, bad_found = 2 ** m ** 3, sum(sizes)
    best_palette = Palette(m, frozenset(_mask_triples(m, best.mask)))
    if not exhaustive and m <= MAX_CANONICAL_COLORS:
        best_palette = canonical_form(best_palette)
    _verify_bad(best_palette, cfg.k, cfg.node_budget)
    return SearchReport(
        best_palette=best_palette,
        best_objective=Fraction(best.value, best.den),
        num_candidates_examined=examined,
        num_bad_found=bad_found,
        exhaustive_certificate=exhaustive,
    )


def _verify_bad(p: Palette, k: int, node_budget: int) -> None:
    """Raise RuntimeError unless p is S_k-bad by its star decision and by an
    independent check: k-1 arc-free classes of its aux digraph, else (first
    fit needs at most 2m classes, so only at k <= 2m) the brute-force oracle."""
    if not _star_bad(p, k, node_budget):
        raise RuntimeError("internal error: reported optimum is not bad")
    if _arc_free_classes(_aux_masks(p.num_colors, p.triples), k) is not None:
        return
    try:
        oracle = brute_force_is_good(p, make_star(k))
    except EnumerationCapExceeded:
        return
    if oracle is not None:
        raise RuntimeError("internal error: brute-force oracle disagrees on reported optimum")


def _sweep_canonical(cfg: SearchConfig, best: _Best) -> tuple[int, list[int]]:
    """`_orbit_sweep` of the bad palettes over the loop-free triples, one
    canonical palette per relabeling class, each carrying its `_Base`.

    An extension is accepted when `_bad_extension` finds it bad.  Bases and
    triples ascend, so a class is first reached as its canonical form (an
    earlier base + t would sort before it).  Extensions by a loop-forcing
    triple are good; their classes are the orbits of the base's stabilizer,
    counted once each by Burnside and never decided, and the base pays once
    the |base| + 1 that deciding them would charge.  Returns the classes
    examined and every bad class's orbit size, the empty palette's first.
    """
    m = cfg.num_colors
    # Loop-forcing triples a relabeling fixes: (x, x, z), (x, y, y) on its f fixed colors.
    loops = [2 * f * f - f for f in (sum(c == x for c, x in enumerate(perm))
                                     for perm in itertools.permutations(range(m)))]
    loop_free = [t for t in iter_all_triples(m) if t[0] != t[1] != t[2]]
    examined, sizes = 1, []  # the empty palette is bad

    def accept(base: _Base, i: int, key: int) -> Optional[_Base]:
        nonlocal examined
        examined += 1
        return _bad_extension(base, key.bit_count() - 1, loop_free[i], cfg.k, cfg.node_budget)

    images = [_relabeled_masks(m, [t]) for t in loop_free]
    for key, masks, _ in _orbit_sweep(images, len(loops), ([0] * (2 * m), 0), accept):
        _Budget(cfg.node_budget).spend(key.bit_count() + 1)
        stabilizer = [loops[i] for i, mask in enumerate(masks) if mask == key]
        examined += sum(stabilizer) // len(stabilizer)
        sizes.append(len(set(masks)))
        best.offer(key)
    return examined, sizes


def _bad_extension(base: _Base, size: int, t: Triple, k: int,
                   node_budget: int) -> Optional[_Base]:
    """The `_Base` of base + t when that palette is S_k-bad, else None.

    base is a palette of `size` triples without t.  The verdict, and a
    BudgetExceeded with its message, are those of `is_bad` on base + t and
    S_k, which charges a fresh budget |base| + 1 and one per T_k node.  A
    triple (x, x, z) or (x, y, y) gives the loop m+x -> m+y or y -> z, so it
    is rejected after the |base| + 1 charge alone, with no masks built.  A
    covered t adds no aux arc: its trial masks equal a counted base's, so the
    T_k search is as it was.  base is returned, charged the nodes up to where
    that search stops, and no search runs.  Where |base| + 1 +
    `_tk_node_bound(2m, k)` fits the budget, `_find_tk` cannot outrun it, so
    `is_bad` cannot raise and shows only its verdict.  There a trial of a base
    known to be bad, so free of loops and T_k, is decided uncounted: bad when
    first-fit splits it into k-1 arc-free classes (`_arc_free_classes`), else
    good exactly when `_find_new_tk` finds a T_k through one of its new arcs.
    node_budget must be positive.
    """
    x, y, z = t
    budget = _Budget(node_budget)
    if x == y or y == z:
        budget.spend(size + 1)
        return None
    out, nodes = base
    trial = _aux_masks(len(out) // 2, [t], out=out)
    if trial == out and nodes is not None and nodes >= 0:
        budget.spend(size + 1)
        budget.spend(min(nodes, budget.limit - budget.spent + 1))
        return base
    if nodes is not None and size + 1 + _tk_node_bound(len(out), k) <= node_budget:
        if _arc_free_classes(trial, k) is None and _find_new_tk(out, trial, k) is not None:
            return None
        return trial, _UNCOUNTED
    if _star_certificate(trial, size + 1, k, budget) is None:
        return trial, budget.spent - size - 1
    return None


@functools.lru_cache(maxsize=None)
def _tk_node_bound(n: int, k: int) -> int:
    """Most nodes `_find_tk` visits on n vertices: the root and each ordered tuple of <= k."""
    return sum(math.perm(n, d) for d in range(min(n, k) + 1))


def _grow(p: Palette, order: Iterable[Triple], k: int, node_budget: int) -> Palette:
    """One pass over order: add each absent triple that keeps p S_k-bad.

    When order holds every triple the result is maximal bad: a rejected
    triple stays rejected (supersets of good palettes are good).
    """
    triples = set(p.triples)
    base = _aux_masks(p.num_colors, triples), None if triples else 0
    for t in order:
        if t not in triples:
            trial = _bad_extension(base, len(triples), t, k, node_budget)
            if trial is not None:
                triples.add(t)
                base = trial
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
    empty = Palette(cfg.num_colors)
    examined, bad_found = 0, 1
    while examined < cfg.iteration_budget:
        order = universe.copy()
        rng.shuffle(order)
        order = order[:cfg.iteration_budget - examined]
        grown = _grow(empty, order, cfg.k, cfg.node_budget)
        examined += len(order)
        bad_found += len(grown.triples)
        best.offer(sum(map(best.bit.__getitem__, grown.triples)))
    return examined, bad_found


def minimalize(p: Palette, k: int) -> Palette:
    """Repeatedly remove colors whose removal does not strictly decrease density.

    Each pass removes the color `minimality_check` returns.  Badness is
    preserved under color removal (any witness for the smaller palette lifts
    to the larger one); each removal checks it, raising RuntimeError.  Returns
    the minimal palette it ends at; raises ValueError when p is not S_k-bad.
    """
    if not _star_bad(p, k):
        raise ValueError("palette is not bad; minimalize expects a bad palette")
    current = p
    while (a := minimality_check(current)) is not None:
        current = remove_color(current, a)
        if not _star_bad(current, k):
            raise RuntimeError("internal error: colour removal made the palette good")
    return current


def random_maximal_bad_palette(k: int, num_colors: int, rng: random.Random) -> Palette:
    """Grow the empty palette by shuffled insertions until maximal bad."""
    triples = list(iter_all_triples(num_colors))
    rng.shuffle(triples)
    return _grow(Palette(num_colors), triples, k, DEFAULT_NODE_BUDGET)


def random_bad_palette(k: int, num_colors: int, rng: random.Random) -> Palette:
    """A random subset of a random maximal bad palette (subsets stay bad)."""
    base = random_maximal_bad_palette(k, num_colors, rng)
    kept = frozenset(t for t in base.sorted_triples() if rng.random() < 0.75)
    return Palette(num_colors, kept)
