"""3-uniform graphs and the palette goodness decision.

A palette P is good for a 3-graph F when some total order of V(F) and some
coloring of the vertex pairs puts every edge's ordered color triple inside A:
for an edge {u, v, w} with u before v before w, the triple
(color(uv), color(uw), color(vw)) must be admissible.

Two independent deciders live here.  A star S_k is decided once, by
`_star_certificate`: P is S_k-good exactly when
`aux_digraph(P, AuxPolicy.LITERAL)` has a loop or contains a transitive
tournament T_k.  Each leaf-leaf pair of S_k lies in exactly one edge, so its
color projects away: two leaves before the apex need (2,3)-admissibility of
their apex-pair colors, two leaves after it need (1,2), and a straddling pair
needs (1,3).  These are the block-1, block-2 and cross arcs.  Cross arcs are
bidirected, so any T_k can be reordered with its block-1 vertices first; a
loop lets every leaf take its color on one side of the apex.  That loop or
T_k, read from the out-masks, is the certificate: `is_bad` stops there, and
`is_good` builds and verifies a witness from it.  Any other 3-graph goes to
a sweep over all orderings with a backtracking pair-coloring search.
`brute_force_is_good`, a cap-guarded full enumeration, is the oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .digraphs import _find_tk, _loop_vertex
from .errors import EnumerationCapExceeded, FormatError, _Budget
from .palette import Palette, _aux_masks, _read_records

Edge = tuple[int, int, int]
Pair = tuple[int, int]

DEFAULT_NODE_BUDGET = 10 ** 8
DEFAULT_ENUM_CAP = 10 ** 7


@dataclass(frozen=True)
class ThreeGraph:
    """An immutable 3-uniform graph on vertices 0..n-1."""

    num_vertices: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not isinstance(self.num_vertices, int) or self.num_vertices < 0:
            raise ValueError(f"num_vertices must be a nonnegative integer, got {self.num_vertices!r}")
        norm = []
        for e in self.edges:
            e = tuple(sorted(e))
            if len(e) != 3 or len(set(e)) != 3:
                raise ValueError(f"edge must have three distinct vertices: {e!r}")
            if not all(0 <= v < self.num_vertices for v in e):
                raise ValueError(f"edge {e} out of range for {self.num_vertices} vertices")
            norm.append(e)
        object.__setattr__(self, "edges", frozenset(norm))

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def relevant_pairs(self) -> tuple[Pair, ...]:
        """Vertex pairs that occur inside at least one edge, sorted."""
        return self._pairs

    # Computed once per instance: the deciders ask for both on every call.
    @cached_property
    def _pairs(self) -> tuple[Pair, ...]:
        return tuple(sorted({pr for e in self.edges for pr in itertools.combinations(e, 2)}))

    @cached_property
    def _apex(self) -> Optional[int]:
        if not self.edges:
            return None
        common = set.intersection(*map(set, self.edges))
        # Distinct edges through one vertex number C(n-1, 2) exactly when they are all of them.
        if common and len(self.edges) == math.comb(self.num_vertices - 1, 2):
            return min(common)
        return None


def make_star(k: int) -> ThreeGraph:
    """The k-star S_k: apex vertex 0, leaves 1..k, edges {0, i, j} for i < j."""
    if k < 2:
        raise ValueError(f"a star needs at least 2 leaves, got k={k}")
    edges = [(0, i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    return ThreeGraph(k + 1, frozenset(edges))


def star_apex(f: ThreeGraph) -> Optional[int]:
    """The least vertex making f a star with that apex, or None if f is no star."""
    return f._apex


def parse_threegraph(text: str) -> ThreeGraph:
    """Parse the `threegraph <n>` header plus `<u> <v> <w>` edge lines."""
    n, records = _read_records(text, "threegraph", 3)
    try:
        return ThreeGraph(n, frozenset(e for _, e in records))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


@dataclass(frozen=True)
class GoodnessWitness:
    """A certifying total order (position = rank) plus a pair coloring.

    pair_coloring maps each relevant pair (u, v) with u < v to a color; pairs
    not occurring in any edge are unconstrained and carry no entry.
    """

    ordering: tuple[int, ...]
    pair_coloring: Mapping[Pair, int]


def verify_witness(p: Palette, f: ThreeGraph, w: GoodnessWitness) -> bool:
    """Check a witness against palette and 3-graph.

    Shape violations (ordering is not a permutation of V(F), missing pair,
    color out of range) raise ValueError; the return value is reserved for
    the actual admissibility verdict.
    """
    if sorted(w.ordering) != list(range(f.num_vertices)):
        raise ValueError(f"ordering is not a permutation of 0..{f.num_vertices - 1}")
    col = w.pair_coloring
    for pr in f.relevant_pairs():
        if pr not in col:
            raise ValueError(f"pair coloring misses pair {pr}")
    for pr, c in col.items():
        if tuple(sorted(pr)) != tuple(pr):
            raise ValueError(f"pair key {pr} is not sorted")
        if not (0 <= c < p.num_colors):
            raise ValueError(f"color {c} of pair {pr} out of range")
    rank = {v: i for i, v in enumerate(w.ordering)}
    triples = p.triples
    for a, b, c in f.edges:  # sorted, so (a, b), (a, c), (b, c) are the keys
        ab, ac, bc = col[a, b], col[a, c], col[b, c]
        ra, rb, rc = rank[a], rank[b], rank[c]
        if ra < rb:
            if rb < rc:
                t = (ab, ac, bc)  # a b c
            elif ra < rc:
                t = (ac, ab, bc)  # a c b
            else:
                t = (ac, bc, ab)  # c a b
        elif ra < rc:
            t = (ab, bc, ac)  # b a c
        elif rb < rc:
            t = (bc, ab, ac)  # b c a
        else:
            t = (bc, ac, ab)  # c b a
        if t not in triples:
            return False
    return True


def _checked(p: Palette, f: ThreeGraph, w: GoodnessWitness) -> GoodnessWitness:
    """w once `verify_witness` accepts it; a raise, not an assert, so it holds under -O."""
    if not verify_witness(p, f, w):
        raise RuntimeError("internal error: witness fails its check")
    return w


def is_good(p: Palette, f: ThreeGraph, *,
            node_budget: int = DEFAULT_NODE_BUDGET) -> Optional[GoodnessWitness]:
    """Decide goodness of p for f; return a verified witness or None (bad).

    A star's witness is built from its `_star_certificate`; any other
    3-graph goes to the ordering sweep, whose per-ordering backtracking
    search prunes with per-pair candidate sets.

    node_budget bounds the elementary checks: on the star route |P| for the
    projection scan plus one per T_k search node, on the sweep |P| per
    constraint propagation.  Exceeding it raises BudgetExceeded rather than
    returning a verdict; a budget below 1 raises ValueError on every input.
    """
    budget = _Budget(node_budget)
    if not f.edges:
        return GoodnessWitness(tuple(range(f.num_vertices)), {})
    apex = star_apex(f)
    if apex is not None:
        verts = _star_certificate(_aux_masks(p.num_colors, p.triples), len(p.triples),
                                  f.num_vertices - 1, budget)
        return None if verts is None else _checked(p, f, _star_witness(p, f, apex, verts))
    if not p.triples:  # bad under every ordering: skip the n! sweep
        return None
    triples = p.sorted_triples()
    for ordering in itertools.permutations(range(f.num_vertices)):
        coloring = _solve_ordering(p, f, ordering, triples, budget)
        if coloring is not None:
            return _checked(p, f, GoodnessWitness(ordering, coloring))
    return None


def is_bad(p: Palette, f: ThreeGraph, *, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """`is_good(p, f) is None`, decided and charged as there; a star's verdict
    is `_star_bad`'s and builds no witness."""
    if star_apex(f) is not None:
        return _star_bad(p, f.num_vertices - 1, node_budget)
    return is_good(p, f, node_budget=node_budget) is None


def _star_bad(p: Palette, k: int, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """`is_bad(p, make_star(k))`, decided and charged as there, with no star built:
    a fresh budget pays |P| and one per T_k search node (see `_star_certificate`)."""
    if k < 2:
        raise ValueError(f"a star needs at least 2 leaves, got k={k}")
    return _star_certificate(_aux_masks(p.num_colors, p.triples), len(p.triples), k,
                             _Budget(node_budget)) is None


def _star_certificate(out: Sequence[int], size: int, k: int,
                      budget: _Budget) -> Optional[tuple[int, ...]]:
    """Aux vertices for a star's k leaves, None when the palette is S_k-bad.

    out holds the LITERAL aux out-masks of a palette of `size` triples (see
    `_aux_masks`).  The empty palette is bad at no charge.  Otherwise charges
    size, then returns a loop k times or a T_k block-1 first, arcs checked;
    the T_k search charges one per node.
    """
    if not size:
        return None
    budget.spend(size)
    loop = _loop_vertex(out)
    if loop is not None:
        return (loop,) * k
    tk = _find_tk(out, k, budget)
    if tk is None:
        return None
    m = len(out) // 2
    verts = tuple(sorted(tk, key=lambda v: v >= m))
    if len(verts) != k or not all(out[u] >> v & 1 for u, v in itertools.combinations(verts, 2)):
        raise RuntimeError("internal error: T_k certificate fails its check")
    return verts


def _star_witness(p: Palette, f: ThreeGraph, apex: int,
                  verts: tuple[int, ...]) -> GoodnessWitness:
    """Star f's witness from its certificate: leaf i takes aux vertex verts[i].

    Leaves on block-1 vertices precede the apex, the rest follow it; each
    apex-pair color is the vertex mod m, each leaf-leaf color the least one
    completing a triple that realises the pair's projection.
    """
    m = p.num_colors
    leaves = [v for v in range(f.num_vertices) if v != apex]
    r = sum(1 for v in verts if v < m)
    triples = p.triples
    coloring = {_key(apex, leaf): v % m for leaf, v in zip(leaves, verts)}
    for i, j in itertools.combinations(range(len(leaves)), 2):
        a, b = verts[i] % m, verts[j] % m
        if j < r:  # both leaves precede the apex: (2,3)-projection
            free = next(c for c in range(m) if (c, a, b) in triples)
        elif i >= r:  # both follow it: (1,2)-projection
            free = next(c for c in range(m) if (a, b, c) in triples)
        else:  # the pair straddles it: (1,3)-projection
            free = next(c for c in range(m) if (a, c, b) in triples)
        coloring[(leaves[i], leaves[j])] = free  # leaves increase, so the key is sorted
    return GoodnessWitness(tuple(leaves[:r] + [apex] + leaves[r:]), coloring)


def _solve_ordering(p: Palette, f: ThreeGraph, ordering: tuple[int, ...],
                    triples: list[tuple[int, int, int]],
                    budget: _Budget) -> Optional[dict[Pair, int]]:
    """Find a pair coloring valid under one fixed ordering, or None."""
    m = p.num_colors
    rank = {v: i for i, v in enumerate(ordering)}
    pairs = f.relevant_pairs()
    pidx = {pr: i for i, pr in enumerate(pairs)}
    cons: list[tuple[int, int, int]] = []
    for e in f.sorted_edges():
        u, v, x = sorted(e, key=rank.__getitem__)
        cons.append((pidx[_key(u, v)], pidx[_key(u, x)], pidx[_key(v, x)]))
    var_cons: list[list[int]] = [[] for _ in pairs]
    for ci, c in enumerate(cons):
        for var in c:
            var_cons[var].append(ci)

    full = (1 << m) - 1

    def propagate(doms: list[int], queue: list[int]) -> bool:
        pending = set(queue)
        order = list(queue)
        while order:
            ci = order.pop()
            pending.discard(ci)
            v1, v2, v3 = cons[ci]
            d1, d2, d3 = doms[v1], doms[v2], doms[v3]
            s1 = s2 = s3 = 0
            budget.spend(len(triples))
            for (c1, c2, c3) in triples:
                if (d1 >> c1) & 1 and (d2 >> c2) & 1 and (d3 >> c3) & 1:
                    s1 |= 1 << c1
                    s2 |= 1 << c2
                    s3 |= 1 << c3
            if not (s1 and s2 and s3):
                return False
            for var, new in ((v1, s1), (v2, s2), (v3, s3)):
                if new != doms[var]:
                    doms[var] = new
                    for cj in var_cons[var]:
                        if cj != ci and cj not in pending:
                            pending.add(cj)
                            order.append(cj)
        return True

    def branch_var(doms: list[int]) -> int:
        """The first undecided pair of smallest domain, or -1 when all are decided."""
        best_var = -1
        best_size = m + 1
        for i, d in enumerate(doms):
            size = d.bit_count()
            if 1 < size < best_size:
                best_var, best_size = i, size
        return best_var

    def backtrack(doms: list[int]) -> Optional[list[int]]:
        """Depth-first search over colors, least first, with an explicit stack."""
        var = branch_var(doms)
        if var < 0:
            return doms
        # Frames: (domains, branching pair, colors of that pair still to try).
        stack = [(doms, var, doms[var])]
        while stack:
            doms, var, rest = stack[-1]
            if not rest:
                stack.pop()
                continue
            low = rest & -rest
            stack[-1] = (doms, var, rest ^ low)
            trial = doms.copy()
            trial[var] = low
            if propagate(trial, var_cons[var]):
                nxt = branch_var(trial)
                if nxt < 0:
                    return trial
                stack.append((trial, nxt, trial[nxt]))
        return None

    doms = [full] * len(pairs)
    if not propagate(doms, list(range(len(cons)))):
        return None
    solution = backtrack(doms)
    if solution is None:
        return None
    return {pairs[i]: d.bit_length() - 1 for i, d in enumerate(solution)}


def _key(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


def brute_force_is_good(p: Palette, f: ThreeGraph) -> Optional[GoodnessWitness]:
    """Oracle goodness decision by full enumeration of orderings and colorings.

    Refuses (EnumerationCapExceeded) when m^q * n! exceeds DEFAULT_ENUM_CAP,
    with q the number of relevant pairs.  Shares no search machinery with
    is_good.
    """
    n, m = f.num_vertices, p.num_colors
    pairs = f.relevant_pairs()
    q = len(pairs)
    cost = (m ** q) * math.factorial(n)
    if cost > DEFAULT_ENUM_CAP:
        raise EnumerationCapExceeded(f"enumeration size {cost} exceeds cap "
                                     f"{DEFAULT_ENUM_CAP} (m={m}, pairs={q}, n={n})")
    if not f.edges:
        return GoodnessWitness(tuple(range(n)), {})
    pidx = {pr: i for i, pr in enumerate(pairs)}
    tset = p.triples
    for ordering in itertools.permutations(range(n)):
        rank = {v: i for i, v in enumerate(ordering)}
        cons = []
        for e in f.sorted_edges():
            u, v, x = sorted(e, key=rank.__getitem__)
            cons.append((pidx[_key(u, v)], pidx[_key(u, x)], pidx[_key(v, x)]))
        for coloring in itertools.product(range(m), repeat=q):
            if all((coloring[a], coloring[b], coloring[c]) in tset for (a, b, c) in cons):
                return _checked(p, f, GoodnessWitness(ordering, dict(zip(pairs, coloring))))
    return None
