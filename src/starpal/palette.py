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
from typing import Iterable, Iterator, Sequence

from .errors import FormatError

Triple = tuple[int, int, int]

# All ordered pairs (i, j) of distinct coordinate positions, 1-based.
POSITION_PAIRS: tuple[tuple[int, int], ...] = (
    (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2),
)

# canonical_form does a factorial sweep over color relabelings; 8! = 40320
# permutations is the largest we are willing to brute-force.
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

    @classmethod
    def empty(cls, num_colors: int) -> "Palette":
        return cls(num_colors, frozenset())

    @classmethod
    def full(cls, num_colors: int) -> "Palette":
        return cls(num_colors, frozenset(iter_all_triples(num_colors)))

    @property
    def num_triples(self) -> int:
        return len(self.triples)

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
    """All (a, b) such that some triple has coordinate i = a and coordinate j = b."""
    if i == j or i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError(f"positions must be distinct members of {{1,2,3}}, got ({i},{j})")
    return frozenset((t[i - 1], t[j - 1]) for t in p.triples)


def compute_stats(p: Palette) -> PaletteStats:
    """Exact minimum slice degree, slice counts and admissibility degrees of p."""
    m = p.num_colors
    slices = [0] * (3 * m)  # slices[3a + i]: triples with color a at position i
    pair_sets: dict[tuple[int, int], set[tuple[int, int]]] = {pr: set() for pr in POSITION_PAIRS}
    for t in p.triples:
        for i in range(3):
            slices[3 * t[i] + i] += 1
        for (i, j) in POSITION_PAIRS:
            pair_sets[(i, j)].add((t[i - 1], t[j - 1]))
    adm = []
    for (i, j) in POSITION_PAIRS:
        row = [0] * m
        for (a, _b) in pair_sets[(i, j)]:
            row[a] += 1
        adm.append(tuple(row))
    min_slice = min(slices)
    return PaletteStats(
        num_colors=m,
        min_degree=Fraction(min_slice, m * m),
        slice_counts=tuple(tuple(slices[3 * a:3 * a + 3]) for a in range(m)),
        adm_degree=tuple(adm),
    )


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
    """Lexicographically least palette over all color relabelings.

    Brute force over all m! permutations; refuses palettes with more than
    MAX_CANONICAL_COLORS colors.  Two palettes are equivalent under color
    permutation iff their canonical forms are equal.  Triple (a, b, c) sits at
    bit m^3-1-(a*m^2+b*m+c) of a mask, so for palettes of one size the larger
    mask is the lexicographically smaller sorted triple list (not across sizes:
    a proper prefix has the smaller mask), and the largest relabeled mask,
    decoded, is the canonical form.
    """
    m = p.num_colors
    if m > MAX_CANONICAL_COLORS:
        raise ValueError(f"canonical_form supports at most {MAX_CANONICAL_COLORS} colors, got {m}")
    return Palette(m, frozenset(_mask_triples(m, max(_relabeled_masks(m, p.triples)))))


def _relabeled_masks(m: int, triples: Iterable[Triple]) -> list[int]:
    """Masks of `triples` under every color relabeling, identity first.

    Masks follow `itertools.permutations` order.  The triples sharing (a, b)
    form a row whose third colors are relabeled as one m-bit chunk and
    shifted into place together.
    """
    rows: dict[tuple[int, int], list[int]] = {}
    for a, b, c in triples:
        rows.setdefault((a, b), []).append(c)
    masks = []
    for perm in itertools.permutations(range(m)):
        low = [1 << (m - 1 - x) for x in perm]
        high = [m - 1 - x for x in perm]
        mask = 0
        for (a, b), cs in rows.items():
            chunk = 0
            for c in cs:
                chunk |= low[c]
            mask |= chunk << m * (m * high[a] + high[b])
        masks.append(mask)
    return masks


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

    Format: a header line `palette <m>`, then one `<c1> <c2> <c3>` line per
    triple.  Blank lines are ignored and `#` starts a comment that runs to the
    end of the line.  A duplicate triple is a warning and is collapsed; an
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
