import itertools
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starpal import (POSITION_PAIRS, FormatError, Palette, admissible_pairs,
                     canonical_form, compute_stats, iter_all_triples, parse_digraph,
                     parse_palette, parse_threegraph, permute_colors, remove_color,
                     serialize_palette)

palettes = st.integers(1, 3).flatmap(
    lambda m: st.builds(
        Palette,
        st.just(m),
        st.frozensets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                                st.integers(0, m - 1))),
    ))


def test_constructor_normalizes_and_validates():
    p = Palette(2, [(0, 0, 1), (0, 0, 1)])
    assert p.num_triples == 1
    assert p.sorted_triples() == [(0, 0, 1)]
    with pytest.raises(ValueError):
        Palette(0, [])
    with pytest.raises(ValueError):
        Palette(2, [(0, 0, 2)])
    with pytest.raises(ValueError):
        Palette(2, [(0, -1, 0)])


@pytest.mark.parametrize("triples, message", [
    ([(1.0, 0, 0)], "not an ordered triple of ints"),
    ([("0", 0, 0)], "not an ordered triple of ints"),
    (["010"], "not an ordered triple of ints"),
    ([(0, 0)], "not an ordered triple of ints"),
    ([(0, 0, 0, 0)], "not an ordered triple of ints"),
    ([(0, 0, 2)], "out of range"),
    ([(0, -1, 0)], "out of range"),
    ([(0, 0, 0), (True, 2, 0)], "out of range"),
    ((t for t in [(0, 0, 0), (0, 0, 2)]), "out of range"),
    ([(0, 0, 0), (0, 0, 5), ("x", 0, 0)], r"triple \(0, 0, 5\) out of range"),
])
def test_constructor_rejects_bad_triples(triples, message):
    with pytest.raises(ValueError, match=message):
        Palette(2, triples)


def test_constructor_accepts_bools_and_lists():
    p = Palette(2, [[True, False, 0], (1, 0, 0), [0, 1, 1]])
    assert p == Palette(2, [(1, 0, 0), (0, 1, 1)])
    assert p.sorted_triples() == [(0, 1, 1), (1, 0, 0)]
    assert all(type(t) is tuple for t in p.triples)
    assert Palette(2, (t for t in [(0, 1, 1)])).sorted_triples() == [(0, 1, 1)]


def test_empty_and_full():
    e = Palette.empty(2)
    assert e.num_triples == 0 and e.density == 0
    f = Palette.full(2)
    assert f.num_triples == 8 and f.density == 1
    st_ = compute_stats(f)
    assert st_.min_degree == 1


def test_example_stats():
    p = Palette(2, [(0, 0, 1)])
    st_ = compute_stats(p)
    assert p.density == Fraction(1, 8)
    assert st_.min_degree == 0
    assert st_.degree(1, 3, 0) == 1
    assert st_.degree(2, 3, 0) == 1
    assert st_.degree(1, 2, 0) == 1
    assert st_.degree(3, 1, 1) == 1
    assert st_.degree(1, 2, 1) == 0 and st_.degree(1, 3, 1) == 0
    assert st_.degree(2, 1, 1) == 0 and st_.degree(2, 3, 1) == 0


def test_example_admissible_pairs():
    p = Palette(2, [(0, 0, 1)])
    assert admissible_pairs(p, 1, 2) == {(0, 0)}
    assert admissible_pairs(p, 1, 3) == {(0, 1)}
    assert admissible_pairs(p, 2, 3) == {(0, 1)}
    assert admissible_pairs(p, 3, 1) == {(1, 0)}
    assert admissible_pairs(p, 3, 2) == {(1, 0)}
    assert admissible_pairs(p, 2, 1) == {(0, 0)}


def test_iter_all_triples_order():
    assert list(iter_all_triples(2))[:3] == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]
    assert len(list(iter_all_triples(3))) == 27


@given(palettes)
def test_min_degree_at_most_density(p):
    st_ = compute_stats(p)
    assert st_.min_degree <= p.density


@given(palettes)
def test_slice_counts_sum_to_triple_count(p):
    st_ = compute_stats(p)
    for pos in range(3):
        assert sum(row[pos] for row in st_.slice_counts) == p.num_triples


@given(palettes)
def test_degree_counts_admissible_partners(p):
    st_ = compute_stats(p)
    for (i, j) in POSITION_PAIRS:
        pairs = admissible_pairs(p, i, j)
        for a in range(p.num_colors):
            assert st_.degree(i, j, a) == sum(1 for (x, _) in pairs if x == a)


def test_remove_color_relabels():
    p = Palette(3, [(0, 1, 2), (2, 2, 2), (0, 0, 1)])
    q = remove_color(p, 1)
    assert q.num_colors == 2
    assert q.sorted_triples() == [(1, 1, 1)]
    with pytest.raises(ValueError):
        remove_color(Palette.empty(1), 0)


def test_permute_colors_roundtrip():
    p = Palette(3, [(0, 1, 2), (0, 0, 1)])
    perm = [2, 0, 1]
    inv = [perm.index(a) for a in range(3)]
    assert permute_colors(permute_colors(p, perm), inv) == p
    assert permute_colors(p, [0, 1, 2]) == p


@given(palettes, st.randoms(use_true_random=False))
def test_canonical_form_is_permutation_invariant(p, rng):
    perm = list(range(p.num_colors))
    rng.shuffle(perm)
    q = permute_colors(p, perm)
    assert canonical_form(q) == canonical_form(p)


@given(palettes)
def test_canonical_form_is_idempotent(p):
    c = canonical_form(p)
    assert canonical_form(c) == c
    assert c.num_triples == p.num_triples


def test_parse_serialize_roundtrip():
    p = Palette(3, [(0, 1, 2), (2, 0, 1), (0, 0, 0)])
    assert parse_palette(serialize_palette(p)) == p


@given(palettes)
def test_parse_serialize_roundtrip_random(p):
    assert parse_palette(serialize_palette(p)) == p


def test_parse_accepts_comments_and_blanks():
    text = "# header comment\npalette 2\n\n0 0 1   # trailing\n# another\n1 1 0\n"
    p = parse_palette(text)
    assert p.sorted_triples() == [(0, 0, 1), (1, 1, 0)]


def test_parse_warns_on_duplicates():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = parse_palette("palette 2\n0 0 1\n0 0 1\n")
    assert p.num_triples == 1
    assert any("duplicate" in str(w.message) for w in caught)


# (text, message pattern) per format.  Every malformed line is named with
# its number and text; the two constructor checks keep their own wording.
MALFORMED = {
    parse_palette: [
        ("", r"^missing `palette <n>` header"),
        ("palete 2\n", r"^line 1: .*'palete 2'"),
        ("palette 0\n", r"positive integer, got 0"),
        ("palette x\n", r"^line 1: .*'palette x'"),
        ("palette 2 3\n", r"^line 1: .*'palette 2 3'"),
        ("palette 2\n0 0\n", r"^line 2: .*'0 0'"),
        ("palette 2\n0 0 1 1\n", r"^line 2: .*'0 0 1 1'"),
        ("palette 2\n0 0 2\n", r"^line 2: .*'0 0 2'"),
        ("palette 2\n0 0 -1\n", r"^line 2: .*'0 0 -1'"),
        ("palette 2\n0 0 a\n", r"^line 2: .*'0 0 a'"),
    ],
    parse_digraph: [
        ("", r"^missing `digraph <n>` header"),
        ("graph 2\n0 1\n", r"^line 1: .*'graph 2'"),
        ("digraph -1\n", r"^line 1: .*'digraph -1'"),
        ("digraph x\n", r"^line 1: .*'digraph x'"),
        ("digraph 2\n0\n", r"^line 2: .*'0'"),
        ("digraph 2\n0 1 1\n", r"^line 2: .*'0 1 1'"),
        ("digraph 2\n0 2\n", r"^line 2: .*'0 2'"),
        ("digraph 2\n-1 0\n", r"^line 2: .*'-1 0'"),
        ("# c\ndigraph 2\n\n0 1  # arc\n0 b\n", r"^line 5: .*'0 b'"),
    ],
    parse_threegraph: [
        ("", r"^missing `threegraph <n>` header"),
        ("threegraph\n", r"^line 1: .*'threegraph'"),
        ("threegraph -1\n", r"^line 1: .*'threegraph -1'"),
        ("threegraph 3\n0 1\n", r"^line 2: .*'0 1'"),
        ("threegraph 3\n0 1 2 0\n", r"^line 2: .*'0 1 2 0'"),
        ("threegraph 3\n0 1 3\n", r"^line 2: .*'0 1 3'"),
        ("threegraph 3\n0 1 c\n", r"^line 2: .*'0 1 c'"),
        ("threegraph 3\n0 1 1\n", r"three distinct vertices: \(0, 1, 1\)"),
    ],
}


@pytest.mark.parametrize("parse, text, message", [
    pytest.param(parse, text, message,
                 id=text if parse is parse_palette else f"{parse.__name__}:{text}")
    for parse, cases in MALFORMED.items() for text, message in cases
])
def test_parse_rejects_malformed_input(parse, text, message):
    with pytest.raises(FormatError, match=message):
        parse(text)


def test_serialize_is_sorted_with_trailing_newline():
    p = Palette(2, [(1, 1, 0), (0, 0, 1)])
    assert serialize_palette(p) == "palette 2\n0 0 1\n1 1 0\n"


def _least_relabeling(p):
    return min(sorted(permute_colors(p, perm).triples)
               for perm in itertools.permutations(range(p.num_colors)))


def test_canonical_form_matches_permutation_oracle():
    universe = list(iter_all_triples(2))
    for bits in range(1 << len(universe)):
        p = Palette(2, [t for i, t in enumerate(universe) if bits >> i & 1])
        assert canonical_form(p).sorted_triples() == _least_relabeling(p)
    rng = random.Random(17)
    for m in (3, 4):
        universe = list(iter_all_triples(m))
        for _ in range(150):
            p = Palette(m, rng.sample(universe, rng.randrange(len(universe) + 1)))
            assert canonical_form(p).sorted_triples() == _least_relabeling(p)
