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
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import EnumerationCapExceeded, _Budget
from .palette import Palette, _arcs, _aux_masks, _degrees, _orbit_sweep, _read_records

Arc = tuple[int, int]

# brute_max_arcs enumerates arc subsets: 2^(n(n-1)) must stay within 2^20.
MAX_BRUTE_ARC_POSITIONS = 20


@dataclass(frozen=True, init=False)
class Digraph:
    """An immutable digraph on vertices 0..n-1; loops allowed, no multi-arcs.

    Stored as out-masks, loops kept: bit v of out[u] is set exactly when
    u -> v is an arc.  Every degree, loop and T_k question is answered from
    them.  `Digraph(n, arcs)` builds from arcs; builders that already hold
    masks use `Digraph.from_masks`.
    """

    num_vertices: int
    out: tuple[int, ...]

    def __init__(self, num_vertices: int, arcs: Iterable[Arc] = ()) -> None:
        n = num_vertices
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"num_vertices must be a nonnegative integer, got {n!r}")
        items = list(map(tuple, arcs))
        out = [0] * n
        for a in items:  # int subclasses pass; the first bad arc is named
            if len(a) != 2 or not all(isinstance(v, int) for v in a):
                raise ValueError(f"not an arc: {a!r}")
            if not all(0 <= v < n for v in a):
                raise ValueError(f"arc {a} out of range for {n} vertices")
            out[a[0]] |= 1 << a[1]
        object.__setattr__(self, "num_vertices", n)
        object.__setattr__(self, "out", tuple(out))

    @classmethod
    def from_masks(cls, num_vertices: int, out: Iterable[int]) -> Digraph:
        """The digraph whose vertex u has out-mask out[u]; each check is one C pass."""
        n = num_vertices
        out = tuple(out)
        if not isinstance(n, int) or len(out) != n:
            raise ValueError(f"{len(out)} out-masks for {n!r} vertices")
        if out and not (set(map(type, out)) == {int}
                        and min(out) >= 0 and max(out) >> n == 0):
            raise ValueError(f"out-masks {out!r} are not ints in [0, 2^{n})")
        d = object.__new__(cls)
        object.__setattr__(d, "num_vertices", n)
        object.__setattr__(d, "out", out)
        return d

    def sorted_arcs(self) -> list[Arc]:
        return list(_arcs(self.out))


def parse_digraph(text: str) -> Digraph:
    """Parse the `digraph <n>` header plus `<u> <v>` arc lines."""
    n, records = _read_records(text, "digraph", 2)
    return Digraph(n, (arc for _, arc in records))


def serialize_digraph(d: Digraph) -> str:
    lines = [f"digraph {d.num_vertices}"]
    lines.extend(f"{u} {v}" for (u, v) in d.sorted_arcs())
    return "\n".join(lines) + "\n"


class AuxPolicy(enum.Enum):
    """Arc rule set for the auxiliary digraph of a palette.

    LITERAL: first-block arc a->b from (2,3)-admissibility of (a, b),
    second-block arc a->b from (1,2)-admissibility.  OBSERVATION is LITERAL
    with its two blocks swapped, by construction (first block from (1,2),
    second from (2,3)): the variant under which the whole-digraph degree
    identities d+(first-block a) = d_{1,2}(a) + d_{1,3}(a) and
    d-(second-block a) = d_{3,1}(a) + d_{3,2}(a) hold.  Cross arcs are the
    same in both: a(first)->b(second) and b(second)->a(first) whenever (a, b)
    is (1,3)-admissible.
    """

    LITERAL = "literal"
    OBSERVATION = "observation"


def aux_digraph(p: Palette, policy: AuxPolicy = AuxPolicy.LITERAL) -> Digraph:
    """Auxiliary digraph on 2m vertices: color a is vertex a in the first block and
    m + a in the second; its out-masks are `_policy_masks` of `_aux_masks`."""
    m = p.num_colors
    return Digraph.from_masks(2 * m, _policy_masks(_aux_masks(m, p.triples), policy))


def _policy_masks(out: Sequence[int], policy: AuxPolicy) -> Sequence[int]:
    """The aux out-masks under policy, from the LITERAL ones `out` (see `_aux_masks`):
    LITERAL's are out itself, OBSERVATION's swap the two blocks' arcs and keep
    the cross arcs, and any other policy raises ValueError."""
    if policy is AuxPolicy.LITERAL:
        return out
    if policy is not AuxPolicy.OBSERVATION:
        raise ValueError(f"unknown policy {policy!r}")
    m = len(out) // 2
    low = (1 << m) - 1
    return ([out[m + a] >> m | out[a] & ~low for a in range(m)]
            + [(out[a] & low) << m | out[m + a] & low for a in range(m)])


def has_loop(d: Digraph) -> Optional[int]:
    """The least vertex carrying a loop, or None."""
    return _loop_vertex(d.out)


def _loop_vertex(out: Sequence[int]) -> Optional[int]:
    """The least vertex v with bit v of out[v] set, or None."""
    return next((v for v, mask in enumerate(out) if mask >> v & 1), None)


def _find_tk(out: Sequence[int], k: int,
             budget: Optional[_Budget] = None) -> Optional[tuple[int, ...]]:
    """Ordered DFS for k distinct vertices with every forward arc present.

    out holds the out-masks of vertices 0..len(out)-1.  Loops in out are
    ignored: a chosen vertex leaves the candidate set.  Vertices are tried in
    increasing index so the first witness is deterministic.  The DFS keeps an
    explicit stack, one candidate mask and one untried mask per depth, so the
    recursion limit does not bound k.  budget, when given, is charged one per
    search node in one spend as the search ends, which stops at the first node
    past what the budget has left: BudgetExceeded reads as per-node spends would.
    """
    n = len(out)
    if k > n:
        return None
    left = math.inf if budget is None else budget.limit - budget.spent
    prefix, cands, untried = [0] * k, [0] * k, [0] * k
    depth, cand, nodes = 0, (1 << n) - 1, 1
    while depth < k and nodes <= left:
        if cand.bit_count() >= k - depth:
            cands[depth] = untried[depth] = cand
        else:
            depth -= 1
        while depth >= 0 and not untried[depth]:
            depth -= 1
        if depth < 0:
            break
        rest = untried[depth]
        low = rest & -rest
        untried[depth] = rest ^ low
        prefix[depth] = v = low.bit_length() - 1
        cand = cands[depth] & out[v] & ~low
        depth += 1
        nodes += 1
    if budget is not None:
        budget.spend(nodes)  # raises when the search stopped at the node over its budget
    return tuple(prefix) if depth == k else None


def _arc_free_classes(out: Sequence[int], k: int) -> Optional[list[int]]:
    """At most k-1 vertex classes (as masks) with no arc inside any, or None.

    First-fit in increasing index: v joins the first class that holds no
    out-neighbour of v and whose reach, the OR of its out-masks, misses v.
    None at the first loop or the first vertex needing a k-th class.  No two
    vertices of a T_k share a class, so the classes, returned only once
    `_is_arc_free_colouring` passes them, prove out T_k-free and loopless.
    """
    classes: list[int] = []
    reach: list[int] = []
    for v, mask in enumerate(out):
        if mask >> v & 1:
            return None
        for i, cls in enumerate(classes):
            if not (mask & cls or reach[i] >> v & 1):
                classes[i] = cls | 1 << v
                reach[i] |= mask
                break
        else:
            if len(classes) >= k - 1:
                return None
            classes.append(1 << v)
            reach.append(mask)
    if not _is_arc_free_colouring(out, classes, k):
        raise RuntimeError("internal error: colouring certificate fails its check")
    return classes


def _is_arc_free_colouring(out: Sequence[int], classes: Sequence[int], k: int) -> bool:
    """Whether classes split out's vertices into fewer than k disjoint classes
    with no arc, loops included, from a vertex into its own class."""
    n = len(out)
    if (len(classes) >= k or sum(cls.bit_count() for cls in classes) != n
            or functools.reduce(operator.or_, classes, 0) != (1 << n) - 1):
        return False
    for cls in classes:
        rest = cls
        while rest:
            low = rest & -rest
            if out[low.bit_length() - 1] & cls:
                return False
            rest ^= low
    return True


def _find_new_tk(out: Sequence[int], trial: Sequence[int],
                 k: int) -> Optional[tuple[int, ...]]:
    """A T_k of trial, checked by a raise, sought only around its arcs missing
    from out, or None.  When out holds no T_k, every T_k of trial uses such an
    arc u -> v, so None means trial holds none.

    The T_k's other vertices lie in C, less u and v: P (arcs into u and v), M
    (out of u and into v) and S (out of u and v).  An arc with |C| < k-2 is
    skipped; at k = 3 any w in C completes a T_3, else `_find_tk` searches
    trial restricted to C + {u, v}.
    """
    for u, new in enumerate(trial):
        new &= ~(out[u] | 1 << u)  # a loop lies in no T_k
        while new:
            low = new & -new
            new ^= low
            v = low.bit_length() - 1
            into_u = into_v = 0
            for w, mask in enumerate(trial):
                into_u |= (mask >> u & 1) << w
                into_v |= (mask >> v & 1) << w
            c = (into_u & into_v | trial[u] & (into_v | trial[v])) & ~(1 << u | low)
            if c.bit_count() < k - 2:
                continue
            if k == 3:
                w = (c & -c).bit_length() - 1
                tk = ((w, u, v) if (into_u & into_v) >> w & 1
                      else (u, w, v) if into_v >> w & 1 else (u, v, w))
            else:
                keep = c | 1 << u | low
                tk = _find_tk([mask & keep if keep >> w & 1 else 0
                               for w, mask in enumerate(trial)], k)
                if tk is None:
                    continue
            if len(set(tk)) != k or not all(
                    trial[a] >> b & 1 for a, b in itertools.combinations(tk, 2)):
                raise RuntimeError("internal error: new-arc T_k fails its check")
            return tk
    return None


def find_transitive_tournament(d: Digraph, k: int) -> Optional[tuple[int, ...]]:
    """An ordered k-tuple (v_1..v_k) with all arcs v_i -> v_j for i < j, or None.

    Backward arcs and loops are irrelevant.  None comes without a search when
    first-fit splits d into k-1 arc-free classes: two of any k vertices share one.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if _arc_free_classes(d.out, k) is None:
        return _find_tk(d.out, k)
    return None


def is_tk_free(d: Digraph, k: int) -> bool:
    return find_transitive_tournament(d, k) is None


def turan_max_arcs(n: int, k: int) -> int:
    """Exact maximum arc count of a T_k-free loopless digraph on n vertices.

    Closed form (k-2)/(k-1) * (n^2 - a^2) + a*(a-1) with a = n mod (k-1);
    this is the arc count of the balanced complete bidirected (k-1)-partite
    digraph.  The division is exact in integers: n = a (mod k-1), so k-1
    divides n^2 - a^2.  Requires n >= k >= 3.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    if n < k:
        raise ValueError(f"n must be at least k, got n={n} < k={k}")
    a = n % (k - 1)
    return (k - 2) * (n * n - a * a) // (k - 1) + a * (a - 1)


def brute_max_arcs(n: int, k: int) -> int:
    """Oracle for turan_max_arcs: branch-and-bound over T_k-free loopless digraphs.

    A digraph holding a T_k keeps it when arcs are added, so a DFS that adds
    arcs in position order and extends only T_k-free sets still reaches every
    T_k-free digraph; a branch stops once its arcs plus the positions left
    cannot beat the best count.  Each nonempty digraph is isomorphic to one
    with the arc 0 -> 1, so the root tries that arc alone.  No seed or bound
    comes from the closed form.  Refuses n(n-1) > 20 arc positions (n <= 5).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    positions = _arc_positions(n)
    out = [0] * n

    def extend(i: int, size: int, best: int) -> int:
        best = max(best, size)
        for j in range(i, len(positions) if size else 1):  # the root tries 0 -> 1 only
            if size + len(positions) - j <= best:
                break
            u, v = positions[j]
            out[u] ^= 1 << v
            if _find_tk(out, k) is None:
                best = extend(j + 1, size + 1, best)
            out[u] ^= 1 << v
        return best

    return extend(0, 0, 0)


def _arc_positions(n: int) -> list[Arc]:
    """The n(n-1) loopless arc positions, u-major; EnumerationCapExceeded over the cap."""
    if n * (n - 1) > MAX_BRUTE_ARC_POSITIONS:
        raise EnumerationCapExceeded(
            f"{n * (n - 1)} arc positions exceed cap {MAX_BRUTE_ARC_POSITIONS} (n={n})")
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def iter_loopless_digraphs(n: int) -> Iterator[Digraph]:
    """All loopless digraphs on n vertices, in arc-subset bitmask order.

    Bit i of the subset is arc `_arc_positions(n)[i]`, so vertex u owns the
    n-1 bits from u(n-1) up, and vertex 0 varies fastest.  rows[u] maps each
    value of those bits to u's out-mask (bit u left clear).
    """
    _arc_positions(n)
    rows = [[(r & ((1 << u) - 1)) | (r >> u << (u + 1)) for r in range(1 << (n - 1))]
            for u in range(n)]
    for out in itertools.product(*reversed(rows)):
        yield Digraph.from_masks(n, out[::-1])


def _tk_free_classes(n: int, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(out_masks, orbit_size) once per isomorphism class of T_k-free loopless
    digraphs on n vertices, by `_orbit_sweep` over the n! vertex permutations
    with arc u -> v as bit u*n + v; a class is accepted when it holds no T_k.
    Refuses n > 5 as `_arc_positions` does.
    """
    perms = list(itertools.permutations(range(n)))
    arcs = [tuple(1 << p[u] * n + p[v] for p in perms) for u, v in _arc_positions(n)]
    row = (1 << n) - 1

    def accept(_state: object, _arc: int, key: int) -> Optional[tuple[int, ...]]:
        out = tuple(key >> u * n & row for u in range(n))
        return out if _find_tk(out, k) is None else None

    empty = (0,) * n
    if _find_tk(empty, k) is None:
        for _, masks, out in _orbit_sweep(arcs, len(perms), empty, accept):
            yield out, len(set(masks))


def degree_stats(d: Digraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(out_degrees, in_degrees) of d as ints, by `_degrees`.  The lemmas read a
    vertex through x = max(out, in), its normalized degree m(v) = x / n."""
    return _degrees(d.out)


@dataclass(frozen=True)
class CaroWeiReport:
    """Sum of m(v)/(1-m(v)) against the bound (k-2) * n for a T_k-free digraph."""

    num_vertices: int
    k: int
    tk_free: bool
    sum_ratio: Optional[Fraction]
    bound: Fraction
    holds: bool


def caro_wei_check(d: Digraph, k: int) -> CaroWeiReport:
    """Evaluate the degree-ratio inequality on d.

    A vertex with m(v) = 1 makes the sum infinite; the report then carries
    sum_ratio=None and holds=False by convention.  T_k-freeness of d is checked
    and recorded but the sums are evaluated either way.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    return CaroWeiReport(d.num_vertices, k, is_tk_free(d, k), *_caro_wei_sums(d.out, k))


def _caro_wei_sums(out: Sequence[int], k: int) -> tuple[Optional[Fraction], Fraction, bool]:
    """caro_wei_check's (sum_ratio, bound, holds), from out's degrees alone."""
    n = len(out)
    bound = Fraction((k - 2) * n)
    # m/(1-m) = x/(n-x) with x = max(d+(v), d-(v)), over one common denominator.
    xs = list(map(max, *_degrees(out)))
    if n in xs:
        return None, bound, False
    den = math.lcm(*(n - x for x in xs))
    total = Fraction(sum(x * (den // (n - x)) for x in xs), den)
    return total, bound, total <= bound


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
    T_k-free; nothing here assumes the inequality is true, and it is false
    for some T_4-free digraphs (README, "Known failing criterion").
    Requires k >= 4.

    tau may be an int, a Fraction or a finite float; V' is decided in
    integers, x * q >= p * n for x = max(d+(v), d-(v)) and tau = p/q exactly,
    and the report carries tau as passed.
    """
    if k < 4:
        raise ValueError(f"k must be at least 4, got {k}")
    tau, *sums = _tk_square_sums(d.out, k, tau)
    return TkSquareReport(d.num_vertices, k, tau, is_tk_free(d, k), *sums)


def _tk_square_sums(out: Sequence[int], k: int, tau: Optional[Fraction],
                    ) -> tuple[Fraction, frozenset[int], Fraction, Fraction, bool]:
    """tk_square_check's (tau, vprime, sum_sq, bound, holds), from out's degrees alone."""
    if tau is None:
        tau = Fraction(2, k - 1)
    n = len(out)
    xs = list(map(max, *_degrees(out)))
    t = Fraction(tau)
    vprime = frozenset(v for v, x in enumerate(xs) if x * t.denominator >= t.numerator * n)
    # (m - 1/2)^2 = (2x - n)^2 / (4n^2); n = 0 has no V'.
    total = Fraction(sum((2 * xs[v] - n) ** 2 for v in vprime), 4 * n * n or 1)
    bound = Fraction((k - 3) ** 2, 4 * (k - 1) ** 2) * n
    return tau, vprime, total, bound, total <= bound


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
    full = (1 << n) - 1
    out: list[int] = []
    for lo, hi in ((0, s), (s, 2 * s), (2 * s, n)):
        out.extend([full ^ ((1 << hi) - (1 << lo))] * (hi - lo))
    return Digraph.from_masks(n, out)


@dataclass(frozen=True)
class TripartiteReport:
    """Exact squared-excess data of the tripartite construction.

    The sum over all vertices (threshold tau = 2/3 - 2 eps picks up every
    vertex) is exactly 2 (1/3-eps) (1/6+eps)^2 n + (1/3+2 eps) (1/6-2 eps)^2 n,
    which simplifies to (1/36 + 6 eps^3) n.  That exceeds the squared-excess
    bound for k = 4, (1/36) n, for every eps > 0 (the threshold 2/(k-1) is
    tight), and exceeds n/16 = (1/36 + 5/144) n exactly when n > 0 and
    6 eps^3 > 5/144 (eps > 0.179...).  digraph is the construction.
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
    digraph: Digraph


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
        digraph=d,
    )
