"""Every set-producing kernel emits its lattice items canonical: over Q the
numerators over their least common denominator d, with gcd(d, *items) == 1,
over F_q the residues over q.  Each producer's set is held against
``from_lattice`` of its own lattice, which canonicalizes raw items and so
changes nothing on a canonical one, and against a plain reference: the
element values by literal loops, Fractions over Q and ints mod q over F_q,
read into a set through the raw constructor."""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from shiftprod import setalg
from shiftprod.harness import build_point_sets, exceptional_set
from shiftprod.numeric import PrimeFieldElement
from shiftprod.progressions import GapSpec, GgpSpec, ggp_powers
from shiftprod.setalg import PointSet2, ScalarSet, dot_product_set, productset

PRIMES = [13, 101, 2 ** 31 - 1, 2 ** 61 - 1]
RATIONAL = st.fractions(min_value=-12, max_value=12, max_denominator=12)


def _values(q, **kw):
    """A list of Fractions (q None) or of ints read mod q."""
    if q is None:
        return st.lists(RATIONAL, **kw)
    return st.lists(st.one_of(st.integers(0, q - 1), st.sampled_from([0, 1, q - 1])), **kw)


def _scalars(vals, q):
    return ScalarSet(vals if q is None else (PrimeFieldElement(v, q) for v in vals))


def _points(pts, q):
    if q is None:
        return PointSet2(pts)
    return PointSet2((PrimeFieldElement(x, q), PrimeFieldElement(y, q)) for x, y in pts)


def _check(S, reference):
    """S is canonical and equals the set of the reference's values."""
    assert S.lat == type(S).from_lattice(*S.lat, S.domain).lat
    assert S == reference


@settings(max_examples=200)
@given(st.sampled_from([None, *PRIMES]), st.data())
def test_productset_is_canonical(q, data):
    A, B = data.draw(_values(q, max_size=8)), data.draw(_values(q, max_size=8))
    ref = {a * b for a in A for b in B}
    _check(productset(_scalars(A, q), _scalars(B, q)),
           _scalars(ref if q is None else {v % q for v in ref}, q))


@pytest.mark.parametrize("A, B, lat", [
    # items 2, 4 over 3 and 3, 9 over 2: the 2 of A cancels against the
    # denominator of B and the 3 of B against that of A
    ([Fraction(2, 3), Fraction(4, 3)], [Fraction(3, 2), Fraction(9, 2)],
     ({1, 2, 3, 6}, 1)),
    ([Fraction(2, 3), Fraction(4, 3)], [Fraction(1, 2), Fraction(5, 2)],
     ({1, 2, 5, 10}, 3)),
    ([0, Fraction(1, 2)], [Fraction(2, 3)], ({0, 1}, 3)),
    ([0], [Fraction(1, 6), Fraction(5, 4)], ({0}, 1)),
    ([], [Fraction(1, 2)], (set(), 1)),
    ([], [], (set(), 1)),
])
def test_productset_cancels_gcds_on_the_factors(A, B, lat):
    for X, Y in ((A, B), (B, A)):
        S = productset(ScalarSet(X), ScalarSet(Y))
        _check(S, ScalarSet(a * b for a in X for b in Y))
        assert S.lat == (frozenset(lat[0]), lat[1])


def _dot_path(E, F):
    """dot_product_set(E, F) and the path it took: "table" when numpy's
    table of q booleans was scanned, else "grouped" or "pairs" by what the
    grouped kernel returned."""
    paths, grouped, table = [], setalg._grouped_dots, setalg._table_dots

    def grouped_spy(*args):
        dots = grouped(*args)
        paths.append("pairs" if dots is None else "grouped")
        return dots

    def table_spy(*args):
        paths.append("table")
        return table(*args)

    with mock.patch.object(setalg, "_grouped_dots", grouped_spy), \
            mock.patch.object(setalg, "_table_dots", table_spy):
        dots = dot_product_set(E, F)
    return dots, "table" if "table" in paths else paths[-1]


def _lift(A, B, g1, q, skew=False):
    """{(b, b*a)} and its image under g1, or under (g1, 1) when skewed."""
    F = {(b, b * a) for b in B for a in A}
    E = {(g1 * x, y if skew else g1 * y) for x, y in F}
    if q is not None:
        E, F = ({(x % q, y % q) for x, y in X} for X in (E, F))
    return E, F


@st.composite
def _dot_case(draw, path):
    """Points over Q, or int pairs mod q, shaped so that dot_product_set
    takes ``path``: geometric lifts for the grouped kernel (always over Q),
    random points with their own directions for the pair loop at large q,
    and at least q pairs for the table at small q."""
    if path == "table":
        q = draw(st.sampled_from(PRIMES[:2]))
        coord = st.integers(0, q - 1)
        return q, [draw(st.lists(st.tuples(coord, coord), min_size=11, max_size=14,
                                 unique=True)) for _ in range(2)]
    if path == "pairs":
        q = draw(st.sampled_from(PRIMES[2:]))
        coord = st.integers(1, q - 1)
        # below 64 pairs no split fits a quarter of them: its directions
        # times scalars cover each side, so its work is at least twice the
        # root of the pairs
        return q, [draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=7))
                   for _ in range(2)]
    q = draw(st.sampled_from([None, *PRIMES[2:]]))
    if q is None:
        r, unit = Fraction(3, 2), RATIONAL.filter(bool)
    else:
        r, unit = {PRIMES[2]: 7, PRIMES[3]: 3}[q], st.integers(1, q - 1)
    # n geometric items a side: about 4 * n**2 grouped products against n**4
    # pairs, which fit a quarter of them from n = 5
    n = draw(st.integers(5, 7))
    A, B = ([c * r ** i for i in range(n)] for c in (draw(unit), draw(unit)))
    return q, list(_lift(A, B, draw(unit), q))


@settings(max_examples=30)
@given(st.data())
@pytest.mark.parametrize("path", ["grouped", "pairs", "table"])
def test_dot_product_set_is_canonical(path, data):
    q, (E, F) = data.draw(_dot_case(path))
    dots, taken = _dot_path(_points(E, q), _points(F, q))
    assert taken == path
    ref = {a * x + b * y for a, b in E for x, y in F}
    _check(dots, _scalars(ref if q is None else {v % q for v in ref}, q))


@settings(max_examples=100)
@given(st.sampled_from([None, *PRIMES]), st.booleans(), st.booleans(), st.data())
def test_build_point_sets_is_canonical(q, skew, unit_g1, data):
    A, B = data.draw(_values(q, max_size=6)), data.draw(_values(q, max_size=6))
    if unit_g1:
        g1 = 1
    else:
        g1 = data.draw(RATIONAL.filter(bool) if q is None else st.integers(2, q - 1))
    G1 = ScalarSet([g1 if q is None else PrimeFieldElement(g1, q)])
    E, F = build_point_sets(_scalars(A, q), _scalars(B, q), G1, skew=skew)
    refE, refF = _lift(A, B, g1, q, skew)
    _check(F, _points(refF, q))
    _check(E, _points(refE, q))
    assert (E is F) == (g1 == 1)


def _base(q):
    if q is None:
        return st.sampled_from([2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(4, 9)])
    return st.integers(2, q - 1)


def _power(g0, k, q):
    return Fraction(g0) ** k if q is None else pow(g0, k, q)


@settings(max_examples=100)
@given(st.sampled_from([None, *PRIMES]), st.data())
def test_ggp_powers_is_canonical(q, data):
    g0 = data.draw(_base(q))
    lo = -6 if q is None else 0
    ks = data.draw(st.lists(st.integers(lo, 12), max_size=8))
    G = GgpSpec(g0 if q is None else PrimeFieldElement(g0, q), GapSpec(0, (1,), (3,)))
    _check(ggp_powers(G, ks), _scalars({_power(g0, k, q) for k in ks}, q))


@settings(max_examples=100)
@given(st.sampled_from([None, *PRIMES]), st.data())
def test_exceptional_set_is_canonical(q, data):
    g0 = data.draw(_base(q))
    d = data.draw(st.integers(1, 2))
    gens = tuple(data.draw(st.integers(-3, 3)) for _ in range(d))
    lengths = tuple(data.draw(st.integers(3, 4)) for _ in range(d))
    r0 = data.draw(st.integers(-3, 3) if q is None else st.integers(0, 3))
    R = GapSpec(r0, gens, lengths)
    exps = {r0 + sum(x * r for x, r in zip(xs, gens))
            for xs in itertools.product(*map(range, lengths))}
    Gvals = {_power(g0, k, q) for k in exps}
    # AA+1 holds some values of G and some drawn ones
    AA1 = data.draw(_values(q, max_size=6)) + data.draw(
        st.lists(st.sampled_from(sorted(Gvals)), max_size=4))
    C = exceptional_set(_scalars(AA1, q),
                        GgpSpec(g0 if q is None else PrimeFieldElement(g0, q), R))
    _check(C, _scalars({v for v in AA1 if (v if q is None else v % q) not in Gvals}, q))
