import random
from fractions import Fraction

import pytest

from shiftprod.numeric import DomainMismatchError, ParseError, PrimeField
from shiftprod.setalg import (
    PAIR_CAP,
    Point2,
    PointSet2,
    ScalarSet,
    collinear,
    dot_product_set,
    expansion_ratios,
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
        slow = sorted({p.x * r.x + p.y * r.y for p in pts_e for r in pts_f})
        assert fast == slow


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


def test_expansion_ratios():
    add_ratio, mul_ratio = expansion_ratios(ScalarSet([1, 2, 3]))
    assert add_ratio == Fraction(5, 3)
    assert mul_ratio == Fraction(2, 1)


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
