import itertools
import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from shiftprod import progressions
from shiftprod.harness import square_part
from shiftprod.numeric import (
    ParseError,
    PrimeField,
    PrimeFieldElement,
    is_prime,
    multiplicative_order,
)
from shiftprod.progressions import (
    GapSpec,
    GgpSpec,
    degeneracy_ratio,
    enumerate_ggp,
    format_gap_spec,
    format_ggp_spec,
    gap_size,
    gap_values,
    ggp_membership,
    ggp_powers,
    growth_check,
    is_proper,
    parse_gap_spec,
    parse_ggp_spec,
    realized_size,
    sum_size,
)
from shiftprod.setalg import PAIR_CAP, ScalarSet
from conftest import make_proper_gap, make_proper_ggp
from reference import lattice_item, ref_ggp_powers, ref_sum_size, ref_values


def test_gap_spec_validation():
    with pytest.raises(ValueError):
        GapSpec(0, (1,), (2,))
    with pytest.raises(ValueError):
        GapSpec(0, (), ())
    with pytest.raises(ValueError):
        GapSpec(0, (1, 2), (3,))
    spec = GapSpec(1, (2, 3), (3, 3))
    assert spec.dimension == 2
    assert spec.formal_length == 9


def test_ggp_spec_validation():
    R = GapSpec(0, (1,), (3,))
    for bad in (0, 1, -2):
        with pytest.raises(ValueError):
            GgpSpec(bad, R)
    F = PrimeField(7)
    with pytest.raises(ValueError):
        GgpSpec(F(0), R)
    with pytest.raises(ValueError):
        GgpSpec(F(1), R)
    assert GgpSpec(F(3), R).domain == 7
    assert GgpSpec(Fraction(1, 2), R).domain == "Q"


@pytest.mark.parametrize("build", [
    lambda: GapSpec(0.5, (1,), (3,)),
    lambda: GapSpec(0, (1.5,), (3,)),
    lambda: GapSpec(0, (1,), (3.9,)),
    lambda: GapSpec(0, (1,), (3.0,)),
    lambda: GapSpec(True, (1,), (3,)),
    lambda: GapSpec(0, (True,), (3,)),
    lambda: GapSpec(0, (1,), (Fraction(3),)),
    lambda: GgpSpec(0.1, GapSpec(0, (1,), (3,))),
    lambda: GgpSpec(2.0, GapSpec(0, (1,), (3,))),
    lambda: GgpSpec(True, GapSpec(0, (1,), (3,))),
], ids=["float r0", "float generator", "float length", "integral float length",
        "bool r0", "bool generator", "Fraction length", "float base",
        "integral float base", "bool base"])
def test_specs_refuse_inexact_numbers(build):
    # a float would be truncated or read at its binary value and a bool as
    # 0 or 1, so each is refused, as lift refuses them in a set
    with pytest.raises(ValueError, match="must be"):
        build()


def test_enumerate_gap_known():
    R = GapSpec(1, (2, 3), (3, 3))
    assert ScalarSet(R.residues).sorted() == [1, 3, 4, 5, 6, 7, 8, 9, 11]
    assert is_proper(R)
    assert realized_size(R) == 9
    R2 = GapSpec(0, (1, 2), (3, 3))
    assert ScalarSet(R2.residues).sorted() == [0, 1, 2, 3, 4, 5, 6]
    assert not is_proper(R2)
    assert realized_size(R2) == 7


def test_enumerate_ggp_known():
    G = GgpSpec(3, GapSpec(1, (2,), (3,)))
    assert enumerate_ggp(G).sorted() == [3, 27, 243]
    assert is_proper(G)
    Gh = GgpSpec(Fraction(1, 2), GapSpec(0, (1,), (4,)))
    assert enumerate_ggp(Gh).sorted() == [
        Fraction(1, 8),
        Fraction(1, 4),
        Fraction(1, 2),
        1,
    ]


def _member(G, x):
    return ggp_membership(G, *lattice_item(x))


def test_ggp_membership_rational():
    G = GgpSpec(3, GapSpec(1, (2,), (3,)))
    assert _member(G, 27)
    assert not _member(G, 81)
    assert not _member(G, 5)
    Gh = GgpSpec(Fraction(1, 2), GapSpec(0, (1,), (4,)))
    assert _member(Gh, Fraction(1, 8))
    assert not _member(Gh, Fraction(1, 16))
    Gm = GgpSpec(Fraction(3, 2), GapSpec(0, (2,), (3,)))
    assert _member(Gm, Fraction(81, 16))
    assert not _member(Gm, Fraction(3, 2))


def test_ggp_membership_matches_enumeration():
    Gx = GgpSpec(2, GapSpec(1, (2,), (4,)))
    values = set(enumerate_ggp(Gx))
    probes = [Fraction(n, d) for n in range(1, 600) for d in (1, 2, 4, 8)]
    for x in probes:
        arg = x.numerator if x.denominator == 1 else x
        assert _member(Gx, arg) == (arg in values)


def test_ggp_membership_field():
    F = PrimeField(7)
    G = GgpSpec(F(3), GapSpec(0, (1,), (3,)))
    assert enumerate_ggp(G).sorted() == [F(1), F(2), F(3)]
    assert _member(G, F(2))
    assert not _member(G, F(5))
    assert not _member(G, F(6))


def test_field_properness():
    F = PrimeField(7)
    assert is_proper(GgpSpec(F(3), GapSpec(0, (1,), (3,))))
    wrapped = GgpSpec(F(2), GapSpec(0, (1,), (4,)))
    assert realized_size(wrapped) == 3
    assert not is_proper(wrapped)


def test_enumeration_refused_above_pair_cap(monkeypatch):
    def refuse(*_):
        raise AssertionError("exponents enumerated")

    # without the cap, the first call would build PAIR_CAP + 1 values
    monkeypatch.setattr(progressions, "gap_values", refuse)
    R = GapSpec(0, (1,), (PAIR_CAP + 1,))
    with pytest.raises(ValueError, match=f"{PAIR_CAP + 1} exponent vectors"):
        R.residues
    with pytest.raises(ValueError, match="above the cap"):
        realized_size(GgpSpec(2, R))


def test_powers_built_once_per_spec(monkeypatch):
    calls = []

    def counted(G, ks):
        calls.append(G)
        return ggp_powers(G, ks)

    monkeypatch.setattr(progressions, "ggp_powers", counted)
    F = PrimeField(101)
    for G in (GgpSpec(Fraction(3, 2), GapSpec(-2, (1, 7), (3, 4))),
              GgpSpec(F(3), GapSpec(0, (1,), (20,)))):
        first = enumerate_ggp(G)
        assert enumerate_ggp(G) is first
        for x in first:
            assert _member(G, x)
        assert not _member(G, 0)
        assert calls == [G]
        calls.clear()


def test_rational_powers_refused_above_bit_cap(monkeypatch):
    def built(*_):
        raise AssertionError("the powers were built")

    # exponents 0..4 of 3/2: 5 items of at most 4 * 2 bits
    G = GgpSpec(Fraction(3, 2), GapSpec(0, (1,), (5,)))
    monkeypatch.setattr(progressions, "LATTICE_BIT_CAP", 40)
    assert len(ggp_powers(G, G.residues)) == 5
    monkeypatch.setattr(progressions, "LATTICE_BIT_CAP", 39)
    one = lattice_item(1)
    monkeypatch.setattr(ScalarSet, "from_lattice", built)
    with pytest.raises(ValueError, match="about 40 numerator bits, above the cap 39"):
        ggp_membership(G, *one)


def _refuse_values(monkeypatch, *also):
    """Make building any power, any set or each (owner, name) in ``also`` raise."""
    def built(*_):
        raise AssertionError("a value was built")

    for owner, name in [(progressions, "ggp_powers"), (ScalarSet, "_canonical"), *also]:
        monkeypatch.setattr(owner, name, built)


def test_growth_check_builds_no_value(monkeypatch):
    # |S+S| and |G*G| are read off the fold of R + R, so the same checks
    # come back with every power and every set refused
    _refuse_values(monkeypatch)
    gc = growth_check(GapSpec(1, (2, 3), (3, 3)))
    assert (gc.size, gc.expanded_size, gc.bound, gc.passed) == (9, 19, 36, True)
    gcg = growth_check(GgpSpec(2, GapSpec(0, (1, 5), (3, 3))))
    assert (gcg.size, gcg.expanded_size, gcg.bound, gcg.passed) == (9, 25, 36, True)


def test_growth_check_refused_before_powers(monkeypatch):
    _refuse_values(monkeypatch, (progressions, "sum_size"))
    G = GgpSpec(Fraction(3, 2), GapSpec(0, (1,), (3163,)))
    with pytest.raises(ValueError,
                       match=f"productset needs {3163 ** 2} pair evaluations"):
        growth_check(G)


def test_growth_check_refused_before_gap_set(monkeypatch):
    _refuse_values(monkeypatch, (progressions, "sum_size"))
    R = GapSpec(0, (1, 1000), (1000, 4))
    with pytest.raises(ValueError,
                       match=f"sumset needs {4000 ** 2} pair evaluations"):
        growth_check(R)


def test_degeneracy_ratio():
    assert degeneracy_ratio(GapSpec(1, (2, 3), (3, 3))) == Fraction(2, 3)
    assert degeneracy_ratio(GapSpec(0, (1, 10, 100), (3, 3, 3))) == Fraction(3, 4)
    thin = GapSpec(0, (1,), (3,))
    assert degeneracy_ratio(thin) == 1


def test_growth_check():
    gc = growth_check(GapSpec(1, (2, 3), (3, 3)))
    assert (gc.size, gc.expanded_size, gc.bound, gc.passed) == (9, 19, 36, True)
    gcg = growth_check(GgpSpec(2, GapSpec(0, (1, 5), (3, 3))))
    assert (gcg.size, gcg.expanded_size, gcg.bound, gcg.passed) == (9, 25, 36, True)


def test_growth_check_random(rng):
    for _ in range(20):
        spec = make_proper_gap(rng, max_len=5, gen_hi=40)
        assert growth_check(spec).passed
    for _ in range(10):
        spec = make_proper_ggp(rng)
        assert growth_check(spec).passed


def test_spec_text_roundtrip():
    R = GapSpec(1, (2, 3), (3, 3))
    assert format_gap_spec(R) == "gap 1;2,3;3,3"
    assert parse_gap_spec("gap 1;2,3;3,3") == R
    G = GgpSpec(3, GapSpec(1, (2,), (3,)))
    assert format_ggp_spec(G) == "ggp 3; gap 1;2;3"
    assert parse_ggp_spec("ggp 3; gap 1;2;3") == G
    Gh = GgpSpec(Fraction(1, 2), GapSpec(0, (1,), (4,)))
    assert format_ggp_spec(Gh) == "ggp 1/2; gap 0;1;4"
    assert parse_ggp_spec(format_ggp_spec(Gh)) == Gh
    F = PrimeField(7)
    Gf = GgpSpec(F(3), GapSpec(0, (1,), (3,)))
    assert format_ggp_spec(Gf) == "ggp 3 mod 7; gap 0;1;3"
    assert parse_ggp_spec("ggp 3 mod 7; gap 0;1;3") == Gf
    assert parse_ggp_spec("ggp 3; gap 0;1;3", field=F) == Gf


def test_spec_parse_errors():
    for bad in ("", "gap", "gap 1;2", "gap 1;2;x", "ggp 2", "ggp 0; gap 0;1;3"):
        with pytest.raises((ParseError, ValueError)):
            if bad.startswith("ggp"):
                parse_ggp_spec(bad)
            else:
                parse_gap_spec(bad)


def test_random_roundtrip_and_membership(rng):
    for _ in range(20):
        spec = make_proper_gap(rng)
        assert parse_gap_spec(format_gap_spec(spec)) == spec
        assert realized_size(spec) == spec.formal_length
    for _ in range(15):
        G = make_proper_ggp(rng)
        assert parse_ggp_spec(format_ggp_spec(G)) == G
        for x in enumerate_ggp(G):
            assert _member(G, x)


# The oracle for the exponent data cached on each spec: the literal set
# {g0**k : k over every exponent vector} (over the all-even vectors, for
# the b_even_size ledger entry), built without the cached
# attributes.  Generators of either sign and zero give non-proper specs, and
# over F_q they wrap mod ord(g0).

def _gap_specs(gen_bound, max_dim=3):
    return st.builds(
        lambda r0, dims: GapSpec(r0, tuple(g for g, _ in dims),
                                 tuple(l for _, l in dims)),
        st.integers(-6, 6),
        st.lists(st.tuples(st.integers(-gen_bound, gen_bound), st.integers(3, 5)),
                 min_size=1, max_size=max_dim))


def _rational_specs(max_dim=3):
    return st.builds(
        GgpSpec,
        st.builds(Fraction, st.integers(1, 7), st.integers(1, 7)).filter(lambda g: g != 1),
        _gap_specs(6, max_dim))


def _field_specs(max_dim=3):
    return st.sampled_from([q for q in range(3, 102) if is_prime(q)]).flatmap(
        lambda q: st.builds(GgpSpec,
                            st.integers(2, q - 1).map(lambda v: PrimeFieldElement(v, q)),
                            _gap_specs(2 * q, max_dim)))


RATIONAL_SPECS, FIELD_SPECS = _rational_specs(), _field_specs()


@settings(max_examples=200)
@given(st.one_of(_gap_specs(6, max_dim=1), _rational_specs(max_dim=1),
                 _field_specs(max_dim=1)))
def test_one_generator_size_is_read_without_exponents(spec):
    # the count of distinct multiples against the values of gap_values: l,
    # or 1 when r == 0, for a GAP and over Q; min(l, n // gcd(r, n)) over
    # F_q, n = ord(g0)
    R = spec.exponents
    built = progressions.gap_values(R.r0, R.generators, R.lengths)
    if spec.order is not None:
        built = {k % spec.order for k in built}
    with mock.patch.object(progressions, "gap_values", None):
        assert realized_size(spec) == len(built)


@st.composite
def _folds(draw):
    """(r0, generators, lengths, n), n None or a modulus, with generators
    that are 0, negative, multiples of n or share a factor with it."""
    n = draw(st.one_of(st.none(), st.integers(1, 60)))
    m = n or draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    gens = draw(st.lists(st.one_of(st.integers(-3 * m, 3 * m),
                                   st.integers(-3, 3).map(lambda k: k * m),
                                   st.integers(-6, 6).map(lambda k: k * gcd(m, 6))),
                         min_size=d, max_size=d))
    lengths = draw(st.lists(st.integers(1, 8), min_size=d, max_size=d))
    return draw(st.integers(-2 * m, 2 * m)), gens, lengths, n


@settings(max_examples=300)
@given(_folds())
@example((0, [0], [5], None))
@example((3, [0, 6], [4, 3], 6))
@example((-1, [-4, 10, 7], [5, 3, 8], 20))
@example((5, [1000002, 1], [30, 3], 1000002))
def test_fold_matches_exponent_vectors(fold):
    # brute enumeration of every exponent vector, reduced mod n at the end
    r0, gens, lengths, n = fold
    brute = {r0 + sum(x * r for x, r in zip(v, gens))
             for v in itertools.product(*(range(l) for l in lengths))}
    if n is not None:
        brute = {k % n for k in brute}
    assert gap_values(r0, gens, lengths, n) == brute
    assert gap_size(r0, gens, lengths, n) == len(brute)


@st.composite
def _order_multiple_specs(draw):
    """A GGP over F_q whose generators and r0 are drawn among the multiples
    of ord(g0) as well as at random, so the fold wraps and repeats."""
    q = draw(st.sampled_from([q for q in range(3, 60) if is_prime(q)]))
    g0 = PrimeFieldElement(draw(st.integers(2, q - 1)), q)
    n = multiplicative_order(g0)
    some = st.one_of(st.integers(-2 * q, 2 * q), st.integers(-3, 3).map(lambda k: k * n))
    d = draw(st.integers(1, 3))
    return GgpSpec(g0, GapSpec(draw(some), draw(st.lists(some, min_size=d, max_size=d)),
                               draw(st.lists(st.integers(3, 5), min_size=d, max_size=d))))


@settings(max_examples=300)
@given(st.one_of(_gap_specs(6), RATIONAL_SPECS, FIELD_SPECS, _order_multiple_specs()))
@example(GapSpec(0, (1, 2), (3, 3)))
@example(GgpSpec(PrimeFieldElement(2, 7), GapSpec(3, (3, 1), (4, 3))))
def test_sum_size_matches_value_oracle(spec):
    # |S+S| or |G*G| off the exponent fold against every pair of the
    # literal values, proper or not
    assert sum_size(spec) == ref_sum_size(spec)
    assert realized_size(spec) == len(ref_values(spec))


def _literal(G, even_only=False, divided=False):
    """The values of G, or of G/g1 when divided, from every exponent
    vector, or from the vectors with even coordinates when even_only."""
    R = G.exponents
    r0 = 0 if divided else R.r0
    if isinstance(G.g0, PrimeFieldElement):
        g, q = G.g0.residue, G.g0.modulus

        def power(k):
            return PrimeFieldElement(pow(g, k, q), q)
    else:
        def power(k):
            return Fraction(G.g0) ** k
    return {power(r0 + sum(x * r for x, r in zip(v, R.generators)))
            for v in itertools.product(*(range(l) for l in R.lengths))
            if not even_only or all(x % 2 == 0 for x in v)}


def _check_against_literal(G, probes):
    L = _literal(G)
    assert set(enumerate_ggp(G)) == L
    assert realized_size(G) == len(L)
    assert is_proper(G) == (len(L) == G.formal_length)
    # the paper's B, the square part of G/g1
    Ln = _literal(G, divided=True)
    assert set(square_part(G)) == {g for g in Ln if g * g in Ln}
    R = G.exponents
    assert gap_size(R.r0, [2 * r for r in R.generators], [(l + 1) // 2 for l in R.lengths],
                    G.order) == len(_literal(G, even_only=True))
    for x in probes:
        n, d = lattice_item(x)
        # the reduced item, and items the lattice may hold for the same
        # value: unreduced over Q, unreduced residues over F_q
        if G.order is None:
            items = [(n, d), (2 * n, 2 * d), (6 * n, 6 * d)]
        else:
            items = [(n, d), (n + d, d), (n - d, d)]
        for item in items:
            assert ggp_membership(G, *item) == (x in L)


@given(RATIONAL_SPECS)
def test_compiled_rational_spec_matches_literal(G):
    L = _literal(G)
    g0 = Fraction(G.g0)
    ks = G.exponents.residues
    probes = (L | {g * g for g in L}
              | {g0 ** k for k in range(min(ks) - 3, max(ks) + 4)}
              | {0, -1, Fraction(5, 7), Fraction(-1, 2)})
    _check_against_literal(G, probes)


@given(FIELD_SPECS)
def test_compiled_field_spec_matches_literal(G):
    _check_against_literal(G, [PrimeFieldElement(v, G.domain) for v in range(G.domain)])


# Int bases, 1/r bases and general p/r; exponent lists of either sign,
# mixed, repeated or empty.
@given(st.one_of(st.integers(2, 12),
                 st.integers(2, 12).map(lambda r: Fraction(1, r)),
                 st.builds(Fraction, st.integers(1, 12), st.integers(2, 12))
                 ).filter(lambda g: g != 1),
       st.lists(st.integers(-9, 9), max_size=8))
@example(2, [])
@example(Fraction(1, 3), [-4, -1, -1])
@example(Fraction(3, 2), [2, 5, 5])
@example(Fraction(4, 9), [-3, 0, 2, -3])
@example(10, [-2, -5])
def test_rational_powers_match_per_power_route(g0, ks):
    G = GgpSpec(g0, GapSpec(0, (1,), (3,)))
    got, want = ggp_powers(G, ks), ref_ggp_powers(G, ks)
    assert (got.lat, got.domain) == (want.lat, want.domain)


@st.composite
def _first_power_case(draw):
    """A GGP whose r0 has either sign: over Q for a base p/r, over F_q
    also past ord(g0)."""
    q = draw(st.sampled_from([None, 5, 7, 13, 101, 2 ** 31 - 1]))
    if q is None:
        g0 = draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
                  .filter(lambda g: g != 1))
        r0 = draw(st.integers(-40, 40))
    else:
        g0 = PrimeFieldElement(draw(st.integers(2, q - 1)), q)
        n = multiplicative_order(g0)
        r0 = draw(st.one_of(st.integers(-3 * n, 3 * n), st.integers(-10 ** 12, 10 ** 12)))
    return GgpSpec(g0, GapSpec(r0, (draw(st.integers(-3, 3)),), (3,)))


@settings(max_examples=200)
@given(_first_power_case())
@example(GgpSpec(Fraction(2, 3), GapSpec(-2, (1,), (5,))))
@example(GgpSpec(PrimeFieldElement(3, 101), GapSpec(7, (2,), (5,))))
@example(GgpSpec(PrimeFieldElement(2, 7), GapSpec(-4, (1,), (3,))))
def test_first_power_is_g0_to_the_r0(G):
    # the pipeline's G1 = {g1} for g1 = g0**r0, the first element of G,
    # against one reference power
    r0 = G.exponents.r0
    got, want = ggp_powers(G, [r0]), ref_ggp_powers(G, [r0])
    assert (got.lat, got.domain) == (want.lat, want.domain)
    assert len(got) == 1 and got.domain == G.domain
