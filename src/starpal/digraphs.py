"""Digraphs derived from palettes and the degree inequalities used on them.

The auxiliary digraph of a palette has one vertex per color in each of two
blocks; arcs encode pairwise admissibility.  Two rule sets are supported (see
AuxPolicy).  The rest of the module is generic digraph machinery: transitive
tournament detection, exact extremal arc counts, and the exact-rational
degree inequalities (Caro-Wei style ratio sum, squared-excess sum), plus the
bidirected tripartite construction that shows where the squared-excess
threshold is tight.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .errors import EnumerationCapExceeded
from .palette import Palette, _all_in_range, _read_records

Arc = tuple[int, int]

# brute_max_arcs enumerates arc subsets: 2^(n(n-1)) must stay within 2^20.
MAX_BRUTE_ARC_POSITIONS = 20


@dataclass(frozen=True)
class Digraph:
    """An immutable digraph on vertices 0..n-1; loops allowed, no multi-arcs."""

    num_vertices: int
    arcs: frozenset[Arc] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        n = self.num_vertices
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"num_vertices must be a nonnegative integer, got {n!r}")
        items = list(map(tuple, self.arcs))
        arcs = frozenset(items)
        if not _all_in_range(arcs, 2, n):
            # The slow loop accepts int subclasses and names the first bad arc.
            for a in items:
                if len(a) != 2 or not all(isinstance(v, int) for v in a):
                    raise ValueError(f"not an arc: {a!r}")
                if not all(0 <= v < n for v in a):
                    raise ValueError(f"arc {a} out of range for {n} vertices")
        object.__setattr__(self, "arcs", arcs)

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def sorted_arcs(self) -> list[Arc]:
        return sorted(self.arcs)


def out_masks(d: Digraph) -> list[int]:
    """Out-neighborhoods as bitmasks, loops kept.

    Every degree, loop and T_k question about a digraph is answered from this
    list by the private helpers below; the public functions only adapt.
    """
    out = [0] * d.num_vertices
    for (u, v) in d.arcs:
        out[u] |= 1 << v
    return out


def parse_digraph(text: str) -> Digraph:
    """Parse the `digraph <n>` header plus `<u> <v>` arc lines."""
    n, records = _read_records(text, "digraph", 2)
    return Digraph(n, frozenset(arc for _, arc in records))


def serialize_digraph(d: Digraph) -> str:
    lines = [f"digraph {d.num_vertices}"]
    lines.extend(f"{u} {v}" for (u, v) in d.sorted_arcs())
    return "\n".join(lines) + "\n"


class AuxPolicy(enum.Enum):
    """Arc rule set for the auxiliary digraph of a palette.

    LITERAL: first-block arc a->b from (2,3)-admissibility of (a, b),
    second-block arc a->b from (1,2)-admissibility; this is the rule set as
    originally written.  OBSERVATION: blocks swapped (first block from (1,2),
    second from (2,3)), the variant under which the whole-digraph degree
    identities d+(first-block a) = d_{1,2}(a) + d_{1,3}(a) and
    d-(second-block a) = d_{3,1}(a) + d_{3,2}(a) hold.  Cross arcs are the
    same in both: a(first)->b(second) and b(second)->a(first) whenever (a, b)
    is (1,3)-admissible.
    """

    LITERAL = "literal"
    OBSERVATION = "observation"


def aux_out_masks(p: Palette, policy: AuxPolicy = AuxPolicy.LITERAL) -> list[int]:
    """Out-neighborhood bitmasks of the auxiliary digraph, loops kept.

    One pass over the triples: a triple (x, y, z) gives the block arcs of its
    (2,3) and (1,2) projections (which block gets which is the policy) and
    both cross arcs of its (1,3) projection.
    """
    m = p.num_colors
    out = [0] * (2 * m)
    if policy is AuxPolicy.LITERAL:
        for (x, y, z) in p.triples:
            out[y] |= 1 << z
            out[m + x] |= 1 << (m + y)
            out[x] |= 1 << (m + z)
            out[m + z] |= 1 << x
    elif policy is AuxPolicy.OBSERVATION:
        for (x, y, z) in p.triples:
            out[x] |= 1 << y
            out[m + y] |= 1 << (m + z)
            out[x] |= 1 << (m + z)
            out[m + z] |= 1 << x
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return out


def aux_digraph(p: Palette, policy: AuxPolicy = AuxPolicy.LITERAL) -> Digraph:
    """Auxiliary digraph on 2m vertices: colors 0..m-1 twice.

    Vertex a in the first block is index a; in the second block, index m + a.
    Its arcs are those of `aux_out_masks(p, policy)`.
    """
    out = aux_out_masks(p, policy)
    n = len(out)
    return Digraph(n, frozenset((u, v) for u in range(n) for v in range(n)
                                if out[u] >> v & 1))


def _least_loop(out: list[int]) -> Optional[int]:
    """The least vertex on its own out-mask, or None."""
    return next((v for v, mask in enumerate(out) if mask >> v & 1), None)


def has_loop(d: Digraph) -> Optional[int]:
    """The least vertex carrying a loop, or None."""
    return _least_loop(out_masks(d))


def _find_tk(out: list[int], n: int, k: int,
             spend: Optional[Callable[[int], None]] = None) -> Optional[tuple[int, ...]]:
    """Ordered DFS for k distinct vertices with every forward arc present.

    Loops in out are ignored: a chosen vertex leaves the candidate set.
    Vertices are tried in increasing index so the first witness is
    deterministic.  spend, when given, is called with 1 at every search node.
    """
    if k > n:
        return None
    prefix: list[int] = []

    def rec(cand: int) -> bool:
        if spend is not None:
            spend(1)
        if len(prefix) == k:
            return True
        if cand.bit_count() < k - len(prefix):
            return False
        m = cand
        while m:
            low = m & -m
            m ^= low
            prefix.append(low.bit_length() - 1)
            if rec(cand & out[prefix[-1]] & ~low):
                return True
            prefix.pop()
        return False

    if rec((1 << n) - 1):
        return tuple(prefix)
    return None


def _tk_witness(out: list[int], k: int) -> Optional[tuple[int, ...]]:
    """`_find_tk` over the whole out-mask list; k must be positive."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return _find_tk(out, len(out), k)


def find_transitive_tournament(d: Digraph, k: int) -> Optional[tuple[int, ...]]:
    """An ordered k-tuple (v_1..v_k) with all arcs v_i -> v_j for i < j, or None.

    Backward arcs are permitted and loops are irrelevant: containment only
    asks for the forward arcs.
    """
    return _tk_witness(out_masks(d), k)


def is_tk_free(d: Digraph, k: int) -> bool:
    return _tk_witness(out_masks(d), k) is None


def turan_max_arcs(n: int, k: int) -> int:
    """Exact maximum arc count of a T_k-free loopless digraph on n vertices.

    Closed form (k-2)/(k-1) * (n^2 - a^2) + a*(a-1) with a = n mod (k-1);
    this is the arc count of the balanced complete bidirected (k-1)-partite
    digraph.  Requires n >= k >= 3.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    if n < k:
        raise ValueError(f"n must be at least k, got n={n} < k={k}")
    a = n % (k - 1)
    value = Fraction(k - 2, k - 1) * (n * n - a * a) + a * (a - 1)
    assert value.denominator == 1, f"non-integral extremal count for n={n}, k={k}"
    return int(value)


def brute_max_arcs(n: int, k: int) -> int:
    """Oracle for turan_max_arcs: enumerate loopless digraphs on n vertices.

    Scans arc subsets by descending arc count and returns the first count
    admitting a T_k-free digraph, which is exactly the maximum.  Refuses
    n(n-1) > 20 arc positions (n <= 5).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    positions = [(u, v) for u in range(n) for v in range(n) if u != v]
    if len(positions) > MAX_BRUTE_ARC_POSITIONS:
        raise EnumerationCapExceeded(
            f"{len(positions)} arc positions exceed cap {MAX_BRUTE_ARC_POSITIONS} (n={n})")
    for count in range(len(positions), -1, -1):
        for combo in itertools.combinations(range(len(positions)), count):
            out = [0] * n
            for i in combo:
                u, v = positions[i]
                out[u] |= 1 << v
            if _find_tk(out, n, k) is None:
                return count
    return 0


def iter_loopless_digraphs(n: int) -> Iterator[Digraph]:
    """All loopless digraphs on n vertices, in arc-subset bitmask order."""
    positions = [(u, v) for u in range(n) for v in range(n) if u != v]
    if len(positions) > MAX_BRUTE_ARC_POSITIONS:
        raise EnumerationCapExceeded(
            f"{len(positions)} arc positions exceed cap {MAX_BRUTE_ARC_POSITIONS} (n={n})")
    for bits in range(1 << len(positions)):
        arcs = frozenset(positions[i] for i in range(len(positions)) if (bits >> i) & 1)
        yield Digraph(n, arcs)


@dataclass(frozen=True)
class DegreeStats:
    """Exact normalized degree data of one digraph.

    m_values[v] = max(out_degree, in_degree) / num_vertices; vprime collects
    the vertices with m_values[v] >= tau.
    """

    num_vertices: int
    out_degrees: tuple[int, ...]
    in_degrees: tuple[int, ...]
    m_values: tuple[Fraction, ...]
    tau: Fraction
    vprime: frozenset[int]

    def m_ratio(self, v: int) -> Optional[Fraction]:
        """m(v) / (1 - m(v)), or None when m(v) = 1."""
        mv = self.m_values[v]
        if mv == 1:
            return None
        return mv / (1 - mv)


def _degree_stats(out: list[int], tau: Fraction) -> DegreeStats:
    """DegreeStats by popcount of out-masks; a loop counts once toward each side."""
    n = len(out)
    outs = tuple(mask.bit_count() for mask in out)
    ins = tuple(sum(mask >> v & 1 for mask in out) for v in range(n))
    m_values = tuple(Fraction(max(o, i), n) for o, i in zip(outs, ins))
    vprime = frozenset(v for v, mv in enumerate(m_values) if mv >= tau)
    return DegreeStats(n, outs, ins, m_values, tau, vprime)


def degree_stats(d: Digraph, tau: Fraction) -> DegreeStats:
    return _degree_stats(out_masks(d), tau)


@dataclass(frozen=True)
class CaroWeiReport:
    """Sum of m(v)/(1-m(v)) against the bound (k-2) * n for a T_k-free digraph."""

    num_vertices: int
    k: int
    tk_free: bool
    finite: bool
    sum_ratio: Optional[Fraction]
    bound: Fraction
    holds: bool


def caro_wei_check(d: Digraph, k: int) -> CaroWeiReport:
    """Evaluate the degree-ratio inequality on d.

    A vertex with m(v) = 1 makes the sum infinite; the report then carries
    finite=False and holds=False by convention.  T_k-freeness of d is checked
    and recorded but the sums are evaluated either way.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    out = out_masks(d)
    stats = _degree_stats(out, Fraction(0))
    tk_free = _tk_witness(out, k) is None
    bound = Fraction((k - 2) * d.num_vertices)
    total = Fraction(0)
    finite = True
    for v in range(d.num_vertices):
        ratio = stats.m_ratio(v)
        if ratio is None:
            finite = False
            break
        total += ratio
    if not finite:
        return CaroWeiReport(d.num_vertices, k, tk_free, False, None, bound, False)
    return CaroWeiReport(d.num_vertices, k, tk_free, True, total, bound, total <= bound)


@dataclass(frozen=True)
class TkSquareReport:
    """Sum of (m(v) - 1/2)^2 over vertices with m(v) >= tau, against its bound."""

    num_vertices: int
    k: int
    tau: Fraction
    tk_free: bool
    vprime: frozenset[int]
    sum_sq: Fraction
    bound: Fraction
    holds: bool


def tk_square_check(d: Digraph, k: int, tau: Optional[Fraction] = None) -> TkSquareReport:
    """Evaluate the stated squared-excess inequality on d.

    The inequality, with the default threshold tau = 2/(k-1), is
    sum over V' = {v : m(v) >= tau} of (m(v) - 1/2)^2 <= (k-3)^2 / (4 (k-1)^2) * n.
    The report says whether it holds for d and, separately, whether d is
    T_k-free; nothing here assumes the inequality is true.  It is false for
    T_k-free digraphs at k = 4: n = 4 with arcs
    {(0,1),(0,2),(0,3),(1,0),(1,2),(1,3)} is T_4-free, V' = {0,1}, and the
    sum 1/8 exceeds the bound 1/9 (the README's known failing criterion,
    acceptance criterion 5).  Per the README it holds when V' covers every
    vertex, and for k >= 7.  Requires k >= 4.
    """
    if k < 4:
        raise ValueError(f"k must be at least 4, got {k}")
    if tau is None:
        tau = Fraction(2, k - 1)
    out = out_masks(d)
    stats = _degree_stats(out, tau)
    tk_free = _tk_witness(out, k) is None
    half = Fraction(1, 2)
    total = sum(((stats.m_values[v] - half) ** 2 for v in sorted(stats.vprime)), Fraction(0))
    bound = Fraction((k - 3) ** 2, 4 * (k - 1) ** 2) * d.num_vertices
    return TkSquareReport(d.num_vertices, k, tau, tk_free, stats.vprime,
                          total, bound, total <= bound)


def tripartite_construction(n: int, eps: Fraction) -> Digraph:
    """Bidirected complete tripartite digraph with parts (1/3-eps)n, (1/3-eps)n, rest.

    All arcs run both ways between distinct parts; no arcs inside a part, no
    loops.  Errors when (1/3 - eps) * n is not a nonnegative integer.
    """
    eps = Fraction(eps)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    size = (Fraction(1, 3) - eps) * n
    if size.denominator != 1 or size < 0:
        raise ValueError(f"(1/3 - eps) * n = {size} is not a nonnegative integer")
    s = int(size)
    if 2 * s > n:
        raise ValueError(f"parts of size {s} do not fit into {n} vertices")
    part = [0] * n
    for v in range(s, 2 * s):
        part[v] = 1
    for v in range(2 * s, n):
        part[v] = 2
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and part[u] != part[v]]
    return Digraph(n, frozenset(arcs))


@dataclass(frozen=True)
class TripartiteReport:
    """Exact squared-excess data of the tripartite construction.

    The sum over all vertices (threshold tau = 2/3 - 2 eps picks up every
    vertex) is exactly 2 (1/3-eps) (1/6+eps)^2 n + (1/3+2 eps) (1/6-2 eps)^2 n,
    which simplifies to (1/36 + 6 eps^3) n.  That exceeds the squared-excess
    bound for k = 4, (1/36) n, for every eps > 0 (the threshold 2/(k-1) is
    tight), but never reaches n/16: exceeds_sixteenth stays False.
    """

    n: int
    eps: Fraction
    part_sizes: tuple[int, int, int]
    t4_free: bool
    t3_witness: Optional[tuple[int, ...]]
    tau: Fraction
    sum_sq: Fraction
    closed_form: Fraction
    equals_closed_form: bool
    k4_bound: Fraction
    exceeds_k4_bound: bool
    sixteenth: Fraction
    exceeds_sixteenth: bool


def tripartite_report(n: int, eps: Fraction) -> TripartiteReport:
    """Build the construction and audit its squared-excess sum exactly."""
    eps = Fraction(eps)
    d = tripartite_construction(n, eps)
    s = int((Fraction(1, 3) - eps) * n)
    tau = Fraction(2, 3) - 2 * eps
    report = tk_square_check(d, 4, tau)
    closed = (2 * (Fraction(1, 3) - eps) * (Fraction(1, 6) + eps) ** 2 * n
              + (Fraction(1, 3) + 2 * eps) * (Fraction(1, 6) - 2 * eps) ** 2 * n)
    k4_bound = Fraction(1, 36) * n
    sixteenth = Fraction(n, 16)
    return TripartiteReport(
        n=n,
        eps=eps,
        part_sizes=(s, s, n - 2 * s),
        t4_free=report.tk_free,
        t3_witness=find_transitive_tournament(d, 3),
        tau=tau,
        sum_sq=report.sum_sq,
        closed_form=closed,
        equals_closed_form=report.sum_sq == closed,
        k4_bound=k4_bound,
        exceeds_k4_bound=report.sum_sq > k4_bound,
        sixteenth=sixteenth,
        exceeds_sixteenth=report.sum_sq > sixteenth,
    )
