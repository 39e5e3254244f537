"""Palettes: a finite set of colors together with a set of ordered color triples.

A palette P = (C, A) has colors C = {0, ..., m-1} and A, a subset of C^3 of
admissible ordered triples.  Density and degree statistics are kept as exact
rationals throughout; nothing in this module ever rounds.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from operator import or_
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .errors import FormatError

Triple = tuple[int, int, int]
_S = TypeVar("_S")

# All ordered pairs (i, j) of distinct coordinate positions, 1-based.
POSITION_PAIRS: tuple[tuple[int, int], ...] = (
    (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2),
)

# canonical_form tries all m! color relabelings, dropping each at its first
# losing row: 0.05-1.1 s at m = 8 (Python 3.11, shared 2-CPU machine).
MAX_CANONICAL_COLORS = 8


@dataclass(frozen=True)
class Palette:
    """An immutable palette (number of colors, set of ordered triples)."""

    num_colors: int
    triples: frozenset[Triple] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        m = self.num_colors
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"num_colors must be a positive integer, got {m!r}")
        items = list(map(tuple, self.triples))
        triples = frozenset(items)
        for t in items:  # int subclasses pass; the first bad triple is named
            if len(t) != 3 or not all(isinstance(c, int) for c in t):
                raise ValueError(f"not an ordered triple of ints: {t!r}")
            if not all(0 <= c < m for c in t):
                raise ValueError(f"triple {t} out of range for {m} colors")
        object.__setattr__(self, "triples", triples)

    @property
    def density(self) -> Fraction:
        """|A| / m^3 as an exact rational."""
        return Fraction(len(self.triples), self.num_colors ** 3)

    def sorted_triples(self) -> list[Triple]:
        return sorted(self.triples)


def iter_all_triples(num_colors: int) -> Iterator[Triple]:
    """All ordered triples over the color set, in lexicographic order."""
    return itertools.product(range(num_colors), repeat=3)


@dataclass(frozen=True)
class PaletteStats:
    """Exact counting statistics of one palette.

    slice_counts[a][i-1] is the number of triples whose i-th coordinate is a.
    adm_degree is aligned with POSITION_PAIRS: for pair index p = (i, j),
    adm_degree[p][a] counts colors b such that some triple has coordinate i
    equal to a and coordinate j equal to b.
    """

    num_colors: int
    min_degree: Fraction
    slice_counts: tuple[tuple[int, int, int], ...]
    adm_degree: tuple[tuple[int, ...], ...]

    def degree(self, i: int, j: int, a: int) -> int:
        """d_{i,j}(a): number of (i,j)-admissible partners of color a."""
        return self.adm_degree[POSITION_PAIRS.index((i, j))][a]


def admissible_pairs(p: Palette, i: int, j: int) -> frozenset[tuple[int, int]]:
    """All (a, b) such that some triple has coordinate i = a and coordinate j = b;
    read off the triples, it is the tests' reference for `_projections`."""
    if i == j or i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError(f"positions must be distinct members of {{1,2,3}}, got ({i},{j})")
    return frozenset((t[i - 1], t[j - 1]) for t in p.triples)


def compute_stats(p: Palette) -> PaletteStats:
    """Exact minimum slice degree, slice counts and admissibility degrees of p."""
    m = p.num_colors
    slices = [0] * (3 * m)  # slices[3a + i]: triples with color a at position i
    for t in p.triples:
        for i in range(3):
            slices[3 * t[i] + i] += 1
    (d12, d21), (d13, d31), (d23, d32) = map(_degrees, _projections(_aux_masks(m, p.triples)))
    return PaletteStats(
        num_colors=m,
        min_degree=Fraction(min(slices), m * m),
        slice_counts=tuple(tuple(slices[3 * a:3 * a + 3]) for a in range(m)),
        adm_degree=(d12, d13, d21, d23, d31, d32),  # in POSITION_PAIRS order
    )


def _aux_masks(m: int, triples: Iterable[Triple], out: Sequence[int] = ()) -> list[int]:
    """LITERAL aux out-masks of `triples` on m colors, OR-ed into a copy of out if given.

    One pass over the triples: a triple (x, y, z) gives the first-block arc of
    its (2,3) projection, the second-block arc of its (1,2) projection and
    both cross arcs of its (1,3) projection.  Arcs only accumulate, so the
    masks of a palette extend to those of any superset.
    """
    out = list(out) or [0] * (2 * m)
    for (x, y, z) in triples:
        out[y] |= 1 << z
        out[m + x] |= 1 << (m + y)
        out[x] |= 1 << (m + z)
        out[m + z] |= 1 << x
    return out


def _projections(out: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """Rows (r12, r13, r23) of LITERAL aux out-masks: bit b of r_ij[a] is set when
    (a, b) is (i,j)-admissible, so `_degrees(r_ij)` is (d_{i,j}, d_{j,i}).  R23 and
    R13 are the first block's low and high halves, R12 the second block's high half."""
    m = len(out) // 2
    low = (1 << m) - 1
    return ([mask >> m for mask in out[m:]], [mask >> m for mask in out[:m]],
            [mask & low for mask in out[:m]])


def _arcs(out: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The arcs (u, v) of out-masks, bit v of out[u], by u and then v ascending."""
    for u, mask in enumerate(out):
        while mask:
            low = mask & -mask
            yield u, low.bit_length() - 1
            mask ^= low


def _degrees(out: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(out_degrees, in_degrees) of out-masks as ints, one step per arc; a loop
    counts once toward each side."""
    ins = [0] * len(out)
    for _, v in _arcs(out):
        ins[v] += 1
    return tuple(mask.bit_count() for mask in out), tuple(ins)


def remove_color(p: Palette, a: int) -> Palette:
    """Drop color a, discard triples mentioning it, relabel colors above a down."""
    if not 0 <= a < p.num_colors:
        raise ValueError(f"color {a} out of range")
    if p.num_colors < 2:
        raise ValueError("cannot remove the only color")
    kept = []
    for t in p.triples:
        if a in t:
            continue
        kept.append(tuple(c - 1 if c > a else c for c in t))
    return Palette(p.num_colors - 1, frozenset(kept))


def permute_colors(p: Palette, perm: Sequence[int]) -> Palette:
    """Relabel colors via perm (perm[old] = new); perm must be a bijection."""
    if sorted(perm) != list(range(p.num_colors)):
        raise ValueError(f"not a permutation of 0..{p.num_colors - 1}: {perm!r}")
    return Palette(p.num_colors, frozenset(
        (perm[t[0]], perm[t[1]], perm[t[2]]) for t in p.triples))


def canonical_form(p: Palette) -> Palette:
    """Lexicographically least palette over all color relabelings; two palettes
    are equivalent under color permutation iff their canonical forms are equal.

    Refuses more than MAX_CANONICAL_COLORS colors.  Triple (a, b, c) sits at bit
    m^3-1-(a*m^2+b*m+c) of a mask, so of two same-size palettes the larger mask
    is the smaller sorted triple list, and the largest relabeled mask, decoded,
    is the canonical form.  A mask is one `_chunk` per row (a, b), in
    lexicographic order.  Each relabeling makes its chunks in that order, drops
    out at its first one below the incumbent's and takes over from its first
    one above (a leader comparison, McKay 1981).  Rows (a, a), or rows with
    a != b, are skipped when none of them holds a triple.
    """
    m = p.num_colors
    if m > MAX_CANONICAL_COLORS:
        raise ValueError(f"canonical_form supports at most {MAX_CANONICAL_COLORS} colors, got {m}")
    rows: list[list[list[int]]] = [[[] for _ in range(m)] for _ in range(m)]  # [a][b]: c's
    for a, b, c in p.triples:
        rows[a][b].append(c)
    kinds = {a == b for a, b, _ in p.triples}
    order = [(a, b) for a in range(m) for b in range(m) if (a == b) in kinds]
    bits = [1 << (m - 1 - new) for new in range(m)]
    best, winner = [-1] * len(order), tuple(range(m))
    for inv in itertools.permutations(range(m)):  # inv[new] = old
        low = [0] * m
        for new, old in enumerate(inv):
            low[old] = bits[new]
        for (a, b), held in zip(order, best):
            chunk = _chunk(rows[inv[a]][inv[b]], low)
            if chunk != held:
                if chunk > held:
                    i = order.index((a, b))
                    best[i:] = [_chunk(rows[inv[a]][inv[b]], low) for a, b in order[i:]]
                    winner = inv
                break
    if winner == tuple(range(m)):
        return p
    perm = sorted(range(m), key=winner.__getitem__)  # perm[old] = new
    return Palette(m, {(perm[a], perm[b], perm[c]) for a, b, c in p.triples})


def _chunk(row: Iterable[int], low: Sequence[int]) -> int:
    """A row's third colors as an m-bit mask chunk: c sets low[c] = 1 << (m-1-new[c])."""
    chunk = 0
    for c in row:
        chunk |= low[c]
    return chunk


def _relabeled_masks(m: int, triples: Iterable[Triple]) -> list[int]:
    """Masks of `triples` under every color relabeling, identity first.

    Masks follow `itertools.permutations` order.  Row (a, b), the triples
    sharing (a, b), becomes one `_chunk` at bit m*(m^2-1-m*perm[a]-perm[b]).
    """
    rows: dict[tuple[int, int], list[int]] = {}
    for a, b, c in triples:
        rows.setdefault((a, b), []).append(c)
    masks = []
    for perm in itertools.permutations(range(m)):
        low = [1 << (m - 1 - x) for x in perm]
        mask = 0
        for (a, b), cs in rows.items():
            mask |= _chunk(cs, low) << m * (m * m - 1 - m * perm[a] - perm[b])
        masks.append(mask)
    return masks


def _orbit_sweep(images: Sequence[Sequence[int]], order: int, start: _S,
                 accept: Callable[[_S, int, int], Optional[_S]],
                 ) -> Iterator[tuple[int, tuple[int, ...], _S]]:
    """Breadth-first orderly sweep of atom sets, one per class under a group.

    images[i] holds atom i's bit under each of the `order` group elements,
    identity first.  A class carries its masks under every element, keyed by
    the largest; its orbit size is the number of distinct masks.  Level by
    level (atom count), keys descending, each accepted class is yielded as
    (key, masks, state), the empty one with state `start` first, and then
    extended.  accept(state, i, key) is called once per new key with the
    state of the first class reaching it, by atom i, and returns the key's
    state, or None to reject it: it must reject every superset of a rejected set.
    """
    level = {0: ((0,) * order, start)}
    while level:
        grown: dict[int, tuple[tuple[int, ...], _S]] = {}
        rejected: set[int] = set()  # a key's popcount is its level: none recur later
        for key in sorted(level, reverse=True):
            masks, state = level[key]
            yield key, masks, state
            for i, bits in enumerate(images):
                if masks[0] & bits[0]:
                    continue
                new = max(map(or_, masks, bits))
                if new in grown or new in rejected:
                    continue
                new_state = accept(state, i, new)
                if new_state is None:
                    rejected.add(new)
                else:
                    grown[new] = (tuple(map(or_, masks, bits)), new_state)
        level = grown


def _mask_triples(m: int, mask: int) -> list[Triple]:
    """The triples of an m-color bitmask, sorted lexicographically."""
    return list(itertools.compress(iter_all_triples(m), map(int, format(mask, f"0{m ** 3}b"))))


def _read_records(text: str, word: str,
                  width: int) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """Read a `<word> <n>` header, then records of `width` integers in [0, n).

    The shared reader of the palette, digraph and 3-graph text formats.  Blank
    lines are ignored and `#` starts a comment that runs to the end of the
    line.  Returns n and the (line number, integers) records in file order;
    each malformed line raises FormatError naming its number and text.
    """
    n: int | None = None
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != word:
                raise FormatError(f"line {lineno}: expected `{word} <n>` header, got {line!r}")
            fields = fields[1:]
        elif len(fields) != width:
            raise FormatError(f"line {lineno}: expected {width} integers, got {line!r}")
        try:
            ints = tuple(int(f) for f in fields)
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer in {line!r}") from None
        if n is None:
            if ints[0] < 0:
                raise FormatError(f"line {lineno}: negative count in {line!r}")
            n = ints[0]
        elif not all(0 <= v < n for v in ints):
            raise FormatError(f"line {lineno}: value out of range [0, {n}) in {line!r}")
        else:
            records.append((lineno, ints))
    if n is None:
        raise FormatError(f"missing `{word} <n>` header")
    return n, records


def parse_palette(text: str) -> Palette:
    """Parse the palette text format.

    A `palette <m>` header, then one `<c1> <c2> <c3>` line per triple, read
    by `_read_records`.  A duplicate triple is a warning and is collapsed; an
    out-of-range color is an error.
    """
    m, records = _read_records(text, "palette", 3)
    triples: set[Triple] = set()
    for lineno, t in records:
        if t in triples:
            warnings.warn(f"line {lineno}: duplicate triple {t} collapsed", stacklevel=2)
        triples.add(t)  # type: ignore[arg-type]
    try:
        return Palette(m, frozenset(triples))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_palette(p: Palette) -> str:
    """Render p in the palette text format, triples sorted lexicographically."""
    lines = [f"palette {p.num_colors}"]
    lines.extend(f"{a} {b} {c}" for (a, b, c) in p.sorted_triples())
    return "\n".join(lines) + "\n"
