import itertools
import random
import tracemalloc
from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftprod import harness, setalg
from shiftprod.numeric import (
    DomainMismatchError,
    ParseError,
    PrimeField,
    PrimeFieldElement,
    RATIONAL_DOMAIN,
    as_rational,
    is_prime,
)
from shiftprod.setalg import (
    LATTICE_BIT_CAP,
    PAIR_CAP,
    Point2,
    PointSet2,
    ScalarSet,
    _DomainSet,
    collinear,
    dot_product_set,
    format_scalar_set,
    parse_scalar_set,
    productset,
    scale,
    set_intersect,
    set_minus,
    set_union,
    shift,
    sumset,
)


def test_scalar_set_basics():
    s = ScalarSet([3, 1, 2, 2, Fraction(4, 2)])
    assert len(s) == 3
    assert s.sorted() == [1, 2, 3]
    assert 2 in s
    assert Fraction(2, 1) in s
    assert 5 not in s
    assert s.domain == "Q"
    assert ScalarSet([]).domain is None


def test_scalar_set_field_inference():
    F = PrimeField(7)
    s = ScalarSet([F(3), 10, F(1)])
    assert s.domain == 7
    assert s.sorted() == [F(1), F(3)]
    with pytest.raises(DomainMismatchError):
        ScalarSet([F(3), Fraction(1, 2)])
    with pytest.raises(DomainMismatchError):
        ScalarSet([F(3), PrimeField(11)(3)])


def test_sumset_productset_known():
    a = ScalarSet([1, 2, 3])
    assert sumset(a, a).sorted() == [2, 3, 4, 5, 6]
    assert productset(a, a).sorted() == [1, 2, 3, 4, 6, 9]
    b = ScalarSet([Fraction(1, 2), 2])
    assert productset(b, b).sorted() == [Fraction(1, 4), 1, 4]


def test_field_sumset_productset():
    F = PrimeField(5)
    a = ScalarSet([F(1), F(2), F(4)])
    assert sumset(a, a).sorted() == [F(0), F(1), F(2), F(3), F(4)]
    assert productset(a, a).sorted() == [F(1), F(2), F(3), F(4)]


def test_shift_scale():
    a = ScalarSet([1, 2, 3])
    assert shift(a, 1).sorted() == [2, 3, 4]
    assert scale(a, Fraction(1, 2)).sorted() == [Fraction(1, 2), 1, Fraction(3, 2)]
    assert len(shift(ScalarSet([]), 5)) == 0
    with pytest.raises(ValueError):
        scale(a, 0)


def test_set_operations():
    a = ScalarSet([1, 2, 3, 4])
    b = ScalarSet([3, 4, 5])
    assert set_minus(a, b).sorted() == [1, 2]
    assert set_intersect(a, b).sorted() == [3, 4]
    assert set_union(a, b).sorted() == [1, 2, 3, 4, 5]


def test_point_set():
    p = PointSet2([Point2(1, 2), Point2(1, 2), Point2(3, Fraction(1, 2))])
    assert len(p) == 2
    assert Point2(1, 2) in p
    assert p.domain == "Q"
    assert PointSet2([]).domain is None
    F = PrimeField(7)
    fp = PointSet2([Point2(F(1), 9)])
    assert fp.sorted() == [Point2(F(1), F(2))]
    assert fp.domain == 7
    with pytest.raises(DomainMismatchError):
        PointSet2([Point2(F(1), Fraction(1, 2))])
    with pytest.raises(DomainMismatchError):
        PointSet2([Point2(F(1), PrimeField(11)(2))])


def test_dot_product_set_rational():
    e = PointSet2([Point2(1, 1), Point2(2, 2)])
    f = PointSet2([Point2(1, 3), Point2(1, 5)])
    assert dot_product_set(e, f).sorted() == [4, 6, 8, 12]


def test_dot_product_set_field_matches_python():
    rng = random.Random(11)
    for q in (5, 13, 101, 4294967291):
        F = PrimeField(q)
        pts_e = PointSet2(
            [Point2(F(rng.randrange(q)), F(rng.randrange(q))) for _ in range(12)]
        )
        pts_f = PointSet2(
            [Point2(F(rng.randrange(q)), F(rng.randrange(q))) for _ in range(12)]
        )
        fast = dot_product_set(pts_e, pts_f).sorted()
        slow = sorted({(p.x.residue * r.x.residue + p.y.residue * r.y.residue) % q
                       for p in pts_e for r in pts_f})
        assert fast == list(map(F, slow))


# both sides of the table choice: at q <= 101 the dense draws below
# outnumber q and take the table of q booleans, and from 2**31 - 1 up to
# 10**18 + 3 every draw has fewer pairs than q and takes the plain pair loop
FIELD_DOT_PRIMES = [5, 13, 101, 2 ** 31 - 1, 2 ** 31 + 11, 4294967291,
                    10 ** 18 + 3]


@st.composite
def _field_point_pair(draw):
    q = draw(st.sampled_from(FIELD_DOT_PRIMES))
    F = PrimeField(q)
    coord = st.one_of(st.integers(0, q - 1), st.sampled_from([0, 1, q - 2, q - 1]))
    # dense draws take 11-14 distinct points a side: at q <= 101 their pairs
    # outnumber q, and the kernel scatters into its table of q booleans
    sizes = st.integers(11, 14) if draw(st.booleans()) else st.integers(0, 6)

    def points():
        n = draw(sizes)
        pairs = st.lists(st.tuples(coord, coord), min_size=n, max_size=n, unique=True)
        return PointSet2([Point2(F(x), F(y)) for x, y in draw(pairs)])

    return q, points(), points()


def _points(q, pairs):
    return PointSet2(Point2(PrimeFieldElement(x, q), PrimeFieldElement(y, q))
                     for x, y in pairs)


def _punctured_plane(q):
    return _points(q, ((x, y) for x in range(q) for y in range(q) if (x, y) != (0, 0)))


def _axis(q):
    """The nonzero points of the x-axis: their dot products miss 0."""
    return _points(q, ((x, 0) for x in range(1, q)))


@settings(max_examples=200)
@given(_field_point_pair())
# every residue is reached, so the table scan stops early
@example((5, _punctured_plane(5), _punctured_plane(5)))
@example((13, _punctured_plane(13), _punctured_plane(13)))
# 0 is never reached, so the scan runs to the end
@example((13, _axis(13), _axis(13)))
@example((13, _axis(13), _punctured_plane(13)))
def test_field_dot_kernel_matches_element_loop(case):
    q, E, F = case
    slow = {e.x * f.x + e.y * f.y for e in E for f in F}
    fast = dot_product_set(E, F)
    assert fast == ScalarSet(slow)
    assert all(x.modulus == q for x in fast)


@pytest.mark.parametrize("q", FIELD_DOT_PRIMES)
def test_field_dot_kernel_edge_sizes(q):
    F = PrimeField(q)
    one = PointSet2([Point2(F(q - 1), F(q - 1))])
    assert dot_product_set(one, PointSet2()) == ScalarSet()
    assert dot_product_set(PointSet2(), one) == ScalarSet()
    # (-1)(-1) + (-1)(-1) = 2, the largest residue products of the field
    assert dot_product_set(one, one) == ScalarSet([F(2)])


def _count_blocks(monkeypatch):
    """A list that gains one entry per block of the dot kernel (two outer
    products each)."""
    calls, outer = [], np.outer
    monkeypatch.setattr(np, "outer", lambda a, b: calls.append(1) or outer(a, b))
    return calls


def test_field_dot_kernel_table_stops_once_full(monkeypatch):
    q = 53
    plane = _punctured_plane(q)
    calls = _count_blocks(monkeypatch)
    dots = dot_product_set(plane, plane)
    # 7.9 M pairs, but one block already reaches every residue
    assert dots == ScalarSet(PrimeFieldElement(r, q) for r in range(q))
    assert len(calls) == 2


def test_field_dot_kernel_table_scans_every_block(monkeypatch):
    q = 10007
    # every point has its own direction, so the kernel falls back to the
    # table scan; the dots x + y miss most residues, so every block counts:
    # the try of the first 4q // 64 = 625 rows is one block, and the other
    # 1475 rows take two blocks of at most 2**16 // 64 = 1024 rows (all
    # 2100 would take three)
    E = _points(q, ((x, 1) for x in range(1, 2101)))
    F = _points(q, ((1, y) for y in range(64)))
    calls = _count_blocks(monkeypatch)
    dots = dot_product_set(E, F)
    assert dots == ScalarSet(PrimeFieldElement(x, q) for x in range(1, 2164))
    assert len(calls) == 2 * 3


def test_field_dot_kernel_table_try_over_all_of_e_is_the_answer(monkeypatch):
    q = 10007
    # the try of the first 4q // 5000 = 8 rows covers all of E, so its
    # table is the answer although it is not full: no grouping, no rescan
    E = _points(q, ((x, 1) for x in range(1, 9)))
    F = _points(q, ((1, y) for y in range(5000)))
    calls = _count_blocks(monkeypatch)
    monkeypatch.setattr(setalg, "_grouped_dots", None)
    dots = dot_product_set(E, F)
    assert dots == ScalarSet(PrimeFieldElement(x, q) for x in range(1, 5008))
    assert len(calls) == 2


@pytest.mark.parametrize("q, n", [(2 ** 31 - 1, 70), (10 ** 18 + 3, 12)])
def test_field_dot_kernel_below_q_pairs_takes_the_pair_loop(monkeypatch, q, n):
    # fewer pairs than q: no numpy block runs, and grouping gives up on
    # points with their own directions, 70 x 70 or 12 x 12 of them
    rng, F = random.Random(q), PrimeField(q)
    E, G = (PointSet2((F(rng.randrange(q)), F(rng.randrange(q))) for _ in range(n))
            for _ in range(2))
    assert len(setalg._directions(E.lat[0], q)) == len(E) == n
    calls = _count_blocks(monkeypatch)
    assert dot_product_set(E, G) == _element_loop(E, G)
    assert calls == []


def test_field_dot_kernel_has_no_q_sized_table():
    q = 2 ** 31 - 1
    F = PrimeField(q)
    E = PointSet2([Point2(F(1), F(2)), Point2(F(3), F(q - 1))])
    G = PointSet2([Point2(F(5), F(7)), Point2(F(q - 2), F(11))])
    tracemalloc.start()
    try:
        dots = dot_product_set(E, G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dots == ScalarSet(e.x * f.x + e.y * f.y for e in E for f in G)
    # a table of q booleans alone would be 2 GiB
    assert peak < 16 * 2 ** 20


# The grouped dot kernel splits each point into a scalar times a canonical
# direction and pays on inputs with few directions and few distinct scalar
# sets, the shape of the pipelines' E and F.  Each case below asserts which
# path it took and holds the result against the element loop.
def _grouped_path_taken(E, F):
    """dot_product_set(E, F) and whether the grouped kernel answered."""
    taken, grouped = [], setalg._grouped_dots

    def spy(*args):
        dots = grouped(*args)
        taken.append(dots is not None)
        return dots

    with mock.patch.object(setalg, "_grouped_dots", spy):
        dots = dot_product_set(E, F)
    return dots, taken == [True]


def _element_loop(E, F):
    return ScalarSet({e.x * f.x + e.y * f.y for e in E for f in F})


# bases of large multiplicative order, so no progression below wraps
GROUPED_FIELD_BASES = {2 ** 31 - 1: 7, 10 ** 18 + 3: 2}


@st.composite
def _scaled_directions(draw, scalar, ratio, slope, vertical, zero):
    """{s * d}: s from a progression of at least 9 scalars, d from a
    progression of at least 8 slopes (1, t), with the vertical direction
    (0, 1) and the zero point drawn in or out."""
    s0, t0 = draw(scalar), draw(scalar)
    S = [s0 * ratio ** i for i in range(draw(st.integers(9, 11)))]
    dirs = [(1, t0 * slope ** j) for j in range(draw(st.integers(8, 10)))]
    if draw(st.booleans()):
        dirs.append(vertical)
    pts = [(s * u, s * v) for s in S for u, v in dirs]
    return pts + [zero] if draw(st.booleans()) else pts


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(GROUPED_FIELD_BASES)), st.data())
def test_field_grouped_kernel_matches_element_loop(q, data):
    # the points are drawn as ints and read mod q
    r, F = GROUPED_FIELD_BASES[q], PrimeField(q)
    unit = st.integers(1, q - 1)
    E, G = (PointSet2((F(x), F(y)) for x, y in data.draw(_scaled_directions(
        unit, r, r ** data.draw(st.integers(1, 3)), (0, 1), (0, 0))))
        for _ in range(2))
    dots, grouped = _grouped_path_taken(E, G)
    assert grouped
    assert dots == _element_loop(E, G)


NONZERO_SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, -2, Fraction(3, 2), Fraction(-1, 3)]), st.data())
def test_rational_grouped_kernel_matches_element_loop(ratio, data):
    # negative ratios, scalars and slopes give negative coordinates, and
    # points s * (-1, t) split as (-s) * (1, -t)
    def side():
        pts = data.draw(_scaled_directions(
            NONZERO_SMALL, ratio, data.draw(st.sampled_from([3, Fraction(-1, 2)])),
            (0, 1), (0, 0)))
        if data.draw(st.booleans()):
            pts = [(-x, y) for x, y in pts]
        return PointSet2(pts)

    E, G = side(), side()
    dots, grouped = _grouped_path_taken(E, G)
    assert grouped
    assert dots == _element_loop(E, G)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_skewed_lift_takes_the_grouped_kernel(data):
    # the skewed E of build_point_sets has a direction per a and one
    # scalar set g1*B on each; over F_1009, A is a subgroup and the pairs
    # outnumber q, so the kernel first scans numpy's table of q booleans
    if data.draw(st.booleans()):
        q = 1009
        F = PrimeField(q)
        t = data.draw(st.sampled_from([12, 14, 16]))
        A = ScalarSet(F(pow(11, k * (q - 1) // t, q)) for k in range(t))
        c = data.draw(st.integers(1, q - 1))
        B = ScalarSet(F(c * 11 ** i) for i in range(data.draw(st.integers(8, 10))))
        g1 = data.draw(st.integers(2, q - 1).map(F))
    else:
        A = ScalarSet(Fraction(2, 3) * 2 ** i for i in range(data.draw(st.integers(6, 8))))
        B = ScalarSet(data.draw(NONZERO_SMALL) * 3 ** i
                      for i in range(data.draw(st.integers(6, 8))))
        g1 = data.draw(NONZERO_SMALL.filter(lambda x: x != 1))
    E, G = harness.build_point_sets(A, B, g1, skew=True)
    dots, grouped = _grouped_path_taken(E, G)
    assert grouped
    assert dots == _element_loop(E, G)


@pytest.mark.parametrize("n", [5, 8])
def test_small_field_lift_takes_the_grouped_kernel(n):
    # the pipeline's E = g1 * F with F = {b * (1, a)} and geometric A and B
    # of n items: n**4 pairs, at most 2**12 and far fewer than q, against
    # about 4 * n**2 grouped products, which fit a quarter of them from n = 5
    F = PrimeField(2 ** 31 - 1)
    A, B = (ScalarSet(F(c * 7 ** i) for i in range(n)) for c in (3, 5))
    E, G = harness.build_point_sets(A, B, F(11))
    assert len(E) * len(G) == n ** 4 <= 2 ** 12
    dots, grouped = _grouped_path_taken(E, G)
    assert grouped
    assert dots == _element_loop(E, G)


def test_dot_kernel_falls_back_when_every_point_has_its_own_direction():
    rng, F = random.Random(5), PrimeField(2 ** 31 - 1)
    E, G = (PointSet2((F(rng.randrange(F.q)), F(rng.randrange(F.q)))
                      for _ in range(70)) for _ in range(2))
    assert len(setalg._directions(E.lat[0], E.domain)) == len(E) == 70
    dots, grouped = _grouped_path_taken(E, G)
    assert not grouped
    assert dots == _element_loop(E, G)


def test_rational_points_with_their_own_directions_share_two_scalar_sets():
    # (x, y) with y a prime above every |x|: no two points share a
    # direction, so each scalar set is {1} or {-1} once divided by its
    # gcd, and the parts D * {1} and D * {-1} are the whole pair loop
    rng = random.Random(5)
    E, G = (PointSet2((rng.randint(-900, 900), p) for p in SMALL_PRIMES[170:240])
            for _ in range(2))
    split = setalg._by_scalar_set(setalg._directions(E.lat[0], E.domain), E.domain)
    assert set(split) == {frozenset({1}), frozenset({-1})}
    assert sum(map(len, split.values())) == 70
    dots, grouped = _grouped_path_taken(E, G)
    assert grouped
    assert dots == _element_loop(E, G)


def test_field_grouped_kernel_fills_the_field_only_at_its_last_part():
    # over F_31, E is H * (1, t) for the subgroup H of order 5 and four
    # slopes t, then the zero point; F is H * (1, h) for four slopes h.
    # The scalar sets H and {1} take their parts in the order of E's
    # points: H * H over the directions reaches every nonzero residue and
    # the zero point's part adds 0, so the union holds q - 1 residues
    # before its last part fills it
    q, H = 31, [1, 2, 4, 8, 16]
    E = [(s, s * t % q) for t in (1, 5, 8, 20) for s in H] + [(0, 0)]
    F = [(s, s * h % q) for h in (7, 16, 18, 28) for s in H]
    assert len(setalg._by_scalar_set(setalg._directions(E, q), q)) == 2
    dots = setalg._grouped_dots(E, F, q)
    assert dots is not None
    assert ScalarSet.from_lattice(dots, q, q) == _element_loop(_points(q, E), _points(q, F))
    assert len(dots) == q


def _lattice_points(pts, q):
    """The int pairs as a set over Q (q None) or read mod q."""
    return PointSet2(pts) if q is None else PointSet2.from_lattice(pts, q, q)


def _split_calls(E, F):
    """dot_product_set(E, F) and the number of _directions calls it made."""
    calls, directions = [], setalg._directions

    def spy(*args):
        calls.append(1)
        return directions(*args)

    with mock.patch.object(setalg, "_directions", spy):
        dots = dot_product_set(E, F)
    return dots, len(calls)


@pytest.mark.parametrize("q", [None, 2 ** 31 - 1])
def test_dot_product_set_splits_one_set_once(q):
    # a pipeline-shaped lift F = {b * (1, a)} with 81 points: over F_q its
    # 6561 pairs are below q, so the grouped kernel runs
    E = _lattice_points([(b, b * a) for b in range(-9, 0) for a in range(2, 11)], q)
    dots, calls = _split_calls(E, E)
    assert calls == 1
    assert dots == _element_loop(E, E)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([None, 2 ** 31 - 1]), st.data())
def test_equal_copies_are_split_once(q, data):
    # an equal set built apart holds its own frozenset of the same items
    if q is None:
        pts = data.draw(_scaled_directions(NONZERO_SMALL, 2, 3, (0, 1), (0, 0)))
    else:
        pts = data.draw(_scaled_directions(st.integers(1, q - 1), 7, 7 ** 2,
                                           (0, 1), (0, 0)))
    E, copy = _lattice_points(pts, q), _lattice_points(pts[::-1], q)
    assert copy == E and copy.lat[0] is not E.lat[0]
    assert E.domain == (RATIONAL_DOMAIN if q is None else q)
    dots, calls = _split_calls(E, copy)
    assert calls == 1
    assert dots == _element_loop(E, copy)


@pytest.mark.parametrize("q", [None, 2 ** 31 - 1])
def test_equal_sizes_are_split_twice(q):
    # E and its reflection (y, x) have the same size and other items
    A, B = range(2, 11), range(1, 10)
    pts = [(b, b * a) for b in B for a in A]
    E, F = _lattice_points(pts, q), _lattice_points([(y, x) for x, y in pts], q)
    assert len(E) == len(F) and E != F
    dots, calls = _split_calls(E, F)
    assert calls == 2
    assert dots == _element_loop(E, F)


def _check_split(points, q):
    groups = setalg._directions(points, q)
    assert sum(map(len, groups.values())) == len(points)
    split = set()
    for (u, v), scalars in groups.items():
        if q == "Q":
            assert (u, v) == (0, 0) or (gcd(u, v) == 1 and (u > 0 or u == 0 < v))
        else:
            assert (u, v) in {(0, 0), (0, 1)} or (u == 1 and 0 <= v < q)
        if (u, v) == (0, 0):
            assert scalars == [1]
        for s in scalars:
            assert s != 0
            split.add(((s * u, s * v) if q == "Q" else (s * u % q, s * v % q)))
    assert split == set(points)


@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                unique=True, max_size=12))
def test_rational_direction_split(points):
    _check_split(list({*points, (0, 0), (0, -4), (-6, 0), (-4, -6)}), "Q")


@given(st.sampled_from([5, 101, 2 ** 31 - 1]), st.data())
def test_field_direction_split(q, data):
    coord = st.one_of(st.integers(0, q - 1), st.sampled_from([0, 1, q - 1]))
    points = data.draw(st.lists(st.tuples(coord, coord), unique=True, max_size=12))
    _check_split(list({*points, (0, 0), (0, q - 1), (3, 0)}), q)


def _field_split_per_point(points, q):
    """The field split one point at a time: x * (1, y * x**-1 mod q), or
    y * (0, 1) on the column x = 0, and 1 * (0, 0)."""
    groups = {}
    for x, y in points:
        key = (1, y * pow(x, -1, q) % q) if x else (0, 1) if y else (0, 0)
        groups.setdefault(key, []).append(x or y or 1)
    return groups


@given(st.sampled_from([5, 101, 2 ** 31 - 1, 2 ** 61 - 1]), st.data())
def test_field_direction_split_matches_per_point_reference(q, data):
    # a few columns, so that several points share each x, the column
    # x = 0 and the zero point drawn in or out
    xs = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=4))
    points = data.draw(st.lists(st.tuples(st.sampled_from(xs), st.integers(0, q - 1)),
                                unique=True, max_size=16))
    if data.draw(st.booleans()):
        points += [(0, 0)] * ((0, 0) not in points)
    want = _field_split_per_point(points, q)
    got = setalg._directions(points, q)
    assert {k: sorted(v) for k, v in got.items()} == {k: sorted(v) for k, v in want.items()}


def test_pair_budget():
    big = ScalarSet(range(1, 4000))
    with pytest.raises(ValueError):
        productset(big, big)
    assert 3999 * 3999 > PAIR_CAP


def test_collinear():
    assert collinear(PointSet2([Point2(0, 0), Point2(1, 1), Point2(2, 2)]))
    assert not collinear(PointSet2([Point2(0, 0), Point2(1, 1), Point2(2, 3)]))
    assert collinear(PointSet2([Point2(1, 5), Point2(1, 9), Point2(1, -4)]))
    assert collinear(PointSet2([Point2(0, 0), Point2(1, 1)]))
    F = PrimeField(7)
    assert collinear(
        PointSet2([Point2(F(0), F(1)), Point2(F(1), F(2)), Point2(F(2), F(3))])
    )


def test_scalar_set_text_roundtrip():
    s = ScalarSet([1, Fraction(4, 3), -2])
    text = format_scalar_set(s)
    assert text == "{-2, 1, 4/3}"
    assert parse_scalar_set(text) == s
    F = PrimeField(7)
    fs = ScalarSet([F(3), F(5)])
    assert format_scalar_set(fs) == "{3, 5}"
    assert parse_scalar_set("{3, 5}", field=F) == fs
    assert format_scalar_set(ScalarSet([])) == "{}"
    assert parse_scalar_set("{}") == ScalarSet([])
    with pytest.raises(ParseError):
        parse_scalar_set("1, 2")
    with pytest.raises(ParseError):
        parse_scalar_set("{1, }")


def test_random_algebra_laws():
    rng = random.Random(77)
    for _ in range(30):
        xs = ScalarSet([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
        ys = ScalarSet([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
        assert sumset(xs, ys) == sumset(ys, xs)
        assert productset(xs, ys) == productset(ys, xs)
        c = rng.randint(1, 5)
        assert shift(shift(xs, c), -c) == xs
        assert scale(scale(xs, c), Fraction(1, c)) == xs


# The domain rule as the set constructors spelled it out before it moved
# into numeric.lift, the oracle for the lift: returns the domain tag and the
# elements as (type, value) pairs, or raises.
def _domain_rule(values):
    domain = None
    for x in values:
        if isinstance(x, PrimeFieldElement):
            if domain not in (None, x.modulus):
                raise DomainMismatchError("two moduli")
            domain = x.modulus
        elif isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise TypeError("not a scalar")
    if domain is None:
        out = [x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x
               for x in values]
        return ("Q" if out else None), out
    if any(isinstance(x, Fraction) for x in values):
        raise DomainMismatchError("rational in a field")
    return domain, [PrimeFieldElement(x, domain) if isinstance(x, int) else x
                    for x in values]


SCALARS = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.integers(-9, 9).map(Fraction),
    st.booleans(),
    st.builds(PrimeFieldElement, st.integers(0, 12), st.sampled_from([5, 7])),
    st.just(0.5),
)


def _typed(x):
    """(type, value), coordinatewise for points: Fraction(2) == 2, so
    equality alone cannot see whether a value collapsed to int."""
    return tuple(map(_typed, x)) if isinstance(x, tuple) else (type(x), x)


def _by_value(x):
    """The sort key of sorted(): the value over Q, the residue over F_q,
    coordinatewise for points."""
    if isinstance(x, tuple):
        return tuple(map(_by_value, x))
    return x.residue if isinstance(x, PrimeFieldElement) else x


def _built(make, values):
    try:
        S = make(values)
    except (TypeError, ValueError) as e:
        return type(e)
    return S.domain, {_typed(x) for x in S}


def _expected(values, points=False):
    try:
        domain, out = _domain_rule(values)
    except (TypeError, ValueError) as e:
        return type(e)
    if points:
        out = zip(out[::2], out[1::2])
    return domain, {_typed(x) for x in out}


@given(st.lists(SCALARS, max_size=6))
def test_scalar_set_lift_matches_domain_rule(values):
    assert _built(ScalarSet, values) == _expected(values)


@given(st.lists(st.tuples(SCALARS, SCALARS), max_size=4))
def test_point_set_lift_matches_domain_rule(points):
    flat = [c for p in points for c in p]
    assert _built(PointSet2, points) == _expected(flat, points=True)


def test_lift_explicit_cases():
    F7, F11 = PrimeField(7), PrimeField(11)
    with pytest.raises(ValueError):
        PointSet2([(1, 2, 3)])
    with pytest.raises(DomainMismatchError):
        PointSet2([Point2(F7(1), F7(2)), Point2(F11(1), F11(2))])
    with pytest.raises(DomainMismatchError):
        PointSet2([Point2(F7(1), 2), Point2(Fraction(1, 2), 3)])
    # the scalar of shift and scale joins the domain of its set
    assert shift(ScalarSet([F7(1)]), 8) == ScalarSet([F7(2)])
    with pytest.raises(DomainMismatchError):
        shift(ScalarSet([1]), F7(1))
    with pytest.raises(DomainMismatchError):
        scale(ScalarSet([F7(1)]), Fraction(1, 2))
    with pytest.raises(TypeError):
        shift(ScalarSet([1]), True)
    with pytest.raises(ValueError):
        scale(ScalarSet([F7(1)]), 7)


# Rational sets are stored as integer numerators over one denominator; every
# operation and query below is held against the same computation on plain
# int/Fraction elements.
RATIONALS = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
    st.sampled_from([0, Fraction(-3, 7), Fraction(-1, 2), Fraction(5, 6)]),
)
NONZERO = RATIONALS.filter(lambda x: x != 0)
PROBES = st.one_of(
    RATIONALS,
    st.booleans(),
    st.builds(PrimeFieldElement, st.integers(0, 6), st.just(7)),
    st.sampled_from([0.5, 1.0, -2.0, "1", None]),
)


def _check_plain(S, values, probes, domain="Q"):
    plain = frozenset(map(as_rational, values) if domain == "Q" else values)
    assert len(S) == len(plain)
    assert S.domain == (domain if plain else None)
    assert {_typed(x) for x in S} == {_typed(x) for x in plain}
    assert [_typed(x) for x in S.sorted()] == [
        _typed(x) for x in sorted(plain, key=_by_value)]
    assert S.elems == plain
    same = ScalarSet(plain)
    assert S == same and hash(S) == hash(same)
    for p in probes:
        assert (p in S) == (p in plain)
        if p not in plain and _in_domain(p, domain):
            assert S != ScalarSet([*plain, p])


def _in_domain(p, domain) -> bool:
    if domain == "Q":
        return isinstance(p, (int, Fraction)) and not isinstance(p, bool)
    return isinstance(p, PrimeFieldElement) and p.modulus == domain


def _set_operations_match_plain_sets(xs, ys, c, s, probes, domain="Q"):
    A, B = ScalarSet(xs), ScalarSet(ys)
    probes = [*probes, *xs[:2], *ys[:2], c, s]
    for S, plain in [
        (A, xs),
        (sumset(A, B), [a + b for a in xs for b in ys]),
        (productset(A, B), [a * b for a in xs for b in ys]),
        (shift(A, c), [a + c for a in xs]),
        (scale(A, s), [a * s for a in xs]),
        (set_minus(A, B), set(xs) - set(ys)),
        (set_intersect(A, B), set(xs) & set(ys)),
        (set_union(A, B), set(xs) | set(ys)),
    ]:
        _check_plain(S, plain, probes, domain)


@settings(max_examples=200)
@given(st.lists(RATIONALS, max_size=6), st.lists(RATIONALS, max_size=6),
       RATIONALS, NONZERO, st.lists(PROBES, max_size=4))
def test_rational_set_operations_match_plain_sets(xs, ys, c, s, probes):
    _set_operations_match_plain_sets(xs, ys, c, s, probes)


# Field sets are stored as residues; the same operations and queries are held
# against plain PrimeFieldElement sets.
@st.composite
def _field_set_case(draw):
    q = draw(st.sampled_from([5, 7, 101, 2 ** 31 - 1]))
    elem = st.one_of(st.integers(0, q - 1), st.sampled_from([0, 1, q - 1])).map(
        lambda r: PrimeFieldElement(r, q))
    xs, ys = (draw(st.lists(elem, max_size=6)) for _ in range(2))
    c, s = draw(elem), draw(elem.filter(lambda x: x.residue != 0))
    probes = draw(st.lists(st.one_of(elem, PROBES), max_size=4))
    return xs, ys, c, s, probes, q


@settings(max_examples=200)
@given(_field_set_case())
def test_field_set_operations_match_plain_sets(case):
    _set_operations_match_plain_sets(*case)


@settings(max_examples=150)
@given(st.lists(st.tuples(RATIONALS, RATIONALS), max_size=5),
       st.lists(st.tuples(RATIONALS, RATIONALS), max_size=5),
       st.lists(PROBES, max_size=4))
def test_rational_dot_product_set_matches_plain_loop(e, f, probes):
    dots = [ex * fx + ey * fy for ex, ey in e for fx, fy in f]
    _check_plain(dot_product_set(PointSet2(e), PointSet2(f)), dots, [*probes, *dots[:3]])


def test_rational_and_field_elems_built_once():
    held = _DomainSet.elems  # the slot itself, without the lazy fallback
    F = PrimeField(7)
    for S, lat, elems in [
        (productset(ScalarSet([Fraction(1, 2), 3]), ScalarSet([3, -4])),
         (frozenset({3, -4, 18, -24}), 2),
         {(Fraction, Fraction(3, 2)), (int, -2), (int, 9), (int, -12)}),
        (productset(ScalarSet([F(1), F(3)]), ScalarSet([F(5), 4])),
         (frozenset({1, 4, 5}), 7),
         {(PrimeFieldElement, F(5)), (PrimeFieldElement, F(4)),
          (PrimeFieldElement, F(1))}),
    ]:
        assert S.lat == lat
        with pytest.raises(AttributeError):
            held.__get__(S)
        first = S.elems
        assert {_typed(x) for x in first} == elems
        assert S.elems is first and held.__get__(S) is first
    # one lattice, two domains: {1/5} over Q is not {1} over F_5
    assert ScalarSet([Fraction(1, 5)]).lat == ScalarSet([PrimeField(5)(1)]).lat
    assert ScalarSet([Fraction(1, 5)]) != ScalarSet([PrimeField(5)(1)])
    assert ScalarSet() == set_minus(ScalarSet([F(2)]), ScalarSet([F(2)]))


# the first 303 primes
SMALL_PRIMES = [k for k in range(2, 2000) if is_prime(k)]


def test_lattice_bit_cap(monkeypatch):
    A = ScalarSet(Fraction(1, p) for p in SMALL_PRIMES[:6])
    # six points over the same least common denominator as A
    P = PointSet2((x, x) for x in A)
    assert P.lat[1] == A.lat[1]
    bits = 36 * (A.lat[1] ** 2).bit_length()
    monkeypatch.setattr(setalg, "LATTICE_BIT_CAP", bits - 1)
    for kernel, X in ((productset, A), (sumset, A), (dot_product_set, P)):
        with pytest.raises(ValueError, match="numerator bits, above the cap"):
            kernel(X, X)
    # not pairwise, or not over Q: no lattice cap
    assert set_union(A, A) == A
    F = PrimeField(2 ** 31 - 1)
    big = ScalarSet(F(x) for x in range(2, 200))
    assert len(productset(big, big)) > 0
    plane = PointSet2((F(x), F(x + 1)) for x in range(2, 200))
    assert len(dot_product_set(plane, plane)) > 0
    monkeypatch.setattr(setalg, "LATTICE_BIT_CAP", bits)
    assert len(productset(A, A)) == 21
    # 1/p * 1/r + 1/p * 1/r = 2/(p*r)
    assert len(dot_product_set(P, P)) == 21
    # {1/p} over the first 300 primes stays under the stated cap
    primes = ScalarSet(Fraction(1, p) for p in SMALL_PRIMES[:300])
    assert 300 ** 2 * (primes.lat[1] ** 2).bit_length() <= LATTICE_BIT_CAP


def test_point_set_lattice_form():
    F5 = PrimeField(5)
    P = PointSet2([(Fraction(1, 2), -3), (Fraction(5, 6), 0), (1, Fraction(-1, 3))])
    assert P.lat == (frozenset({(3, -18), (5, 0), (6, -2)}), 6)
    assert PointSet2([(2, 4), (6, 8)]).lat == (frozenset({(2, 4), (6, 8)}), 1)
    assert PointSet2([(F5(1), 7), (F5(3), F5(4))]).lat == (frozenset({(1, 2), (3, 4)}), 5)
    assert PointSet2().lat == (frozenset(), 1)
    # one lattice, two domains, and two set types with one empty lattice
    fifths = PointSet2([(Fraction(1, 5), Fraction(2, 5))])
    assert fifths.lat == PointSet2([(F5(1), F5(2))]).lat
    assert fifths != PointSet2([(F5(1), F5(2))])
    assert PointSet2() != ScalarSet()


def test_field_from_lattice_builds_one_set():
    # the frozenset of residues is built in one pass, with no set of
    # residues copied into it: 500 000 reduced residues peaked at 30 MB,
    # and at 42 MB with the copy (Python 3.11)
    q = 2 ** 31 - 1
    items = random.Random(1).sample(range(q), 500_000)
    tracemalloc.start()
    try:
        S = ScalarSet.from_lattice(items, q, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert S.lat == (frozenset(items), q)
    assert peak < 36 * 10 ** 6


# Point sets are stored as int pairs on the same lattice; every query is held
# against a plain frozenset of Point2s of int/Fraction or PrimeFieldElement
# coordinates, and collinear against a determinant over every triple.
def _collinear_plain(points, domain) -> bool:
    # over F_q on the residues, each determinant read mod q
    if domain != "Q":
        points = [Point2(p.x.residue, p.y.residue) for p in points]
    dets = ((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
            for p, q, r in itertools.combinations(points, 3))
    return all(d == 0 if domain == "Q" else d % domain == 0 for d in dets)


def _check_plain_points(P, points, probes, domain):
    plain = frozenset(Point2(*(as_rational(c) if domain == "Q" else c for c in p))
                      for p in points)
    assert len(P) == len(plain)
    assert P.domain == (domain if plain else None)
    assert {_typed(p) for p in P} == {_typed(p) for p in plain}
    order = sorted(plain, key=_by_value)
    assert [_typed(p) for p in P.sorted()] == [_typed(p) for p in order]
    assert P.elems == plain
    same = PointSet2(plain)
    assert P == same and hash(P) == hash(same)
    for p in probes:
        assert (p in P) == (p in plain)
        if p not in plain and isinstance(p, Point2) and all(
                _in_domain(c, domain) for c in p):
            assert P != PointSet2([*plain, p])
    assert collinear(P) == _collinear_plain(plain, domain)


@st.composite
def _point_lists(draw, coord):
    """Lists of points of three shapes: arbitrary, the cross product of two
    coordinate lists, and points p + t*v on one line."""
    shape = draw(st.sampled_from(["any", "grid", "line"]))
    if shape == "any":
        return draw(st.lists(st.tuples(coord, coord), max_size=6))
    if shape == "grid":
        xs, ys = (draw(st.lists(coord, min_size=1, max_size=3)) for _ in range(2))
        return [(x, y) for x in xs for y in ys]
    (px, py), (vx, vy) = draw(st.tuples(coord, coord)), draw(st.tuples(coord, coord))
    return [(px + t * vx, py + t * vy) for t in draw(st.lists(coord, max_size=5))]


def _point_probes(coord):
    return st.lists(st.one_of(st.builds(Point2, coord, coord), PROBES,
                              st.tuples(PROBES, PROBES)), max_size=4)


@settings(max_examples=200)
@given(_point_lists(RATIONALS), st.data())
def test_rational_point_sets_match_plain_sets(points, data):
    probes = data.draw(_point_probes(RATIONALS))
    _check_plain_points(PointSet2(points), points, [*probes, *points[:2]], "Q")


@st.composite
def _field_point_case(draw):
    q = draw(st.sampled_from([5, 7, 101, 2 ** 31 - 1]))
    coord = st.one_of(st.integers(0, q - 1), st.sampled_from([0, 1, q - 1])).map(
        lambda r: PrimeFieldElement(r, q))
    return q, draw(_point_lists(coord)), draw(_point_probes(coord))


@settings(max_examples=200)
@given(_field_point_case())
def test_field_point_sets_match_plain_sets(case):
    q, points, probes = case
    _check_plain_points(PointSet2(points), points, [*probes, *points[:2]], q)


# sorted() orders the lattice items, never the elements: over Q numerators
# over a positive denominator, so by value; over F_q by residue; points
# lexicographically.  repr and format_scalar_set print in this order.
@st.composite
def _sortable_sets(draw):
    q = draw(st.sampled_from(["Q", *(p for p in range(2, 102) if is_prime(p))]))
    coord = RATIONALS if q == "Q" else st.integers(0, q - 1).map(PrimeField(q))
    if draw(st.booleans()):
        return PointSet2(draw(st.lists(st.tuples(coord, coord), max_size=8)))
    return ScalarSet(draw(st.lists(coord, max_size=8)))


@settings(max_examples=300)
@given(_sortable_sets())
@example(ScalarSet())
@example(PointSet2())
@example(PointSet2([(1, Fraction(-1, 3)), (Fraction(-1, 2), 4), (Fraction(-1, 2), -4)]))
@example(ScalarSet(map(PrimeField(2), [1, 0])))
@example(PointSet2([(PrimeField(101)(x), PrimeField(101)(y))
                    for x, y in [(100, 0), (3, 99), (3, 1)]]))
def test_sorted_orders_by_value_and_by_residue(S):
    got = S.sorted()
    assert [_typed(x) for x in got] == [_typed(x) for x in sorted(S.elems, key=_by_value)]
    keys = [_by_value(x) for x in got]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert repr(S) == f"{type(S).__name__}({got!r})"


def test_sorted_known_orders():
    F = PrimeField(7)
    S = ScalarSet([Fraction(5, 6), -2, Fraction(-7, 3), 0, Fraction(-1, 2)])
    assert S.sorted() == [Fraction(-7, 3), -2, Fraction(-1, 2), 0, Fraction(5, 6)]
    assert format_scalar_set(S) == "{-7/3, -2, -1/2, 0, 5/6}"
    assert repr(ScalarSet(map(F, [6, 0, 3]))) == "ScalarSet([F7(0), F7(3), F7(6)])"
    assert repr(PointSet2([(F(1), F(5)), (F(1), F(2)), (F(0), F(6))])) == (
        "PointSet2([Point2(x=F7(0), y=F7(6)), Point2(x=F7(1), y=F7(2)), "
        "Point2(x=F7(1), y=F7(5))])")
