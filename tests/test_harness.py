import csv
import dataclasses
import io
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import identity_sides, make_int_set, make_proper_ggp
from reference import _pow, _progression, _red, lattice_item, reference_main_report
from shiftprod import harness, progressions
from shiftprod.cli import main
from shiftprod.harness import (
    READOUT_DEGREE_CAP,
    HarnessConfig,
    PipelineInput,
    PreconditionError,
    Report,
    build_point_sets,
    decomposition_holds,
    exceptional_set,
    run_pipeline,
    square_part,
    square_part_bound_check,
)
from shiftprod.progressions import (
    GapSpec,
    GgpSpec,
    enumerate_ggp,
    gap_size,
    ggp_membership,
    ggp_powers,
    realized_size,
)
from shiftprod.numeric import (
    RATIONAL_DOMAIN,
    DomainMismatchError,
    PrimeField,
    PrimeFieldElement,
    lift,
    multiplicative_order,
)
from shiftprod.setalg import (
    Point2,
    PointSet2,
    ScalarSet,
    _DomainSet,
    collinear,
    dot_product_set,
    productset,
    set_intersect,
    set_minus,
    set_union,
    shift,
)


def test_first_element_and_square_part_of_g_over_g1():
    # G = {2, 4, 8} and G/g1 = {1, 2, 4}, whose square part is {1, 2}
    G = GgpSpec(2, GapSpec(1, (1,), (3,)))
    assert ggp_powers(G, [G.exponents.r0]).sorted() == [2]
    assert square_part(G).sorted() == [1, 2]
    G = GgpSpec(2, GapSpec(-2, (1,), (3,)))
    assert ggp_powers(G, [G.exponents.r0]).sorted() == [Fraction(1, 4)]


def test_square_part_known():
    Gn = GgpSpec(2, GapSpec(0, (1,), (5,)))
    B = square_part(Gn)
    assert B.sorted() == [1, 2, 4]
    assert square_part_bound_check(Gn, B) == (2, True)


def test_square_part_against_definition(rng):
    for _ in range(15):
        G = make_proper_ggp(rng)
        (g1,) = ggp_powers(G, [G.exponents.r0])
        elems = {Fraction(g) / g1 for g in enumerate_ggp(G)}
        B = square_part(G)
        assert set(B) == {g for g in elems if g * g in elems}
        bound, ok = square_part_bound_check(G, B)
        assert len(B) >= bound
        assert ok


@st.composite
def _shifted_ggp(draw):
    """A GGP of one or two generators, over Q with r0 < 0, over F_q with
    r0 < 0 or r0 >= ord(g0)."""
    q = draw(st.sampled_from([None, 5, 7, 13, 31, 61]))
    d = draw(st.integers(1, 2))
    gens = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    lens = draw(st.lists(st.integers(3, 5), min_size=d, max_size=d))
    if q is None:
        g0 = draw(st.builds(Fraction, st.integers(1, 6), st.integers(1, 6))
                  .filter(lambda g: g != 1))
        r0 = draw(st.integers(-12, -1))
    else:
        g0 = PrimeFieldElement(draw(st.integers(2, q - 1)), q)
        n = multiplicative_order(g0)
        r0 = draw(st.one_of(st.integers(-3 * n, -1), st.integers(n, 3 * n)))
    return GgpSpec(g0, GapSpec(r0, gens, lens))


@settings(max_examples=200)
@given(_shifted_ggp())
@example(GgpSpec(PrimeFieldElement(2, 7), GapSpec(5, (1,), (3,))))
@example(GgpSpec(Fraction(2, 3), GapSpec(-4, (1, 3), (3, 4))))
def test_square_part_is_that_of_g_over_g1(G):
    # square_part reads B off G's exponents less r0; here G/g1 is
    # enumerated literally from the exponent vectors
    q = None if G.order is None else G.domain
    g0 = G.g0 if q is None else G.g0.residue
    _, _, offsets, _ = _progression(g0, G.exponents, q)
    Gn = {_pow(g0, k, q) for k in offsets}
    B = square_part(G)
    got = set(B) if q is None else {x.residue for x in B}
    assert got == {g for g in Gn if _red(g * g, q) in Gn}


def test_point_set_lift_shapes():
    A = ScalarSet([1, 2])
    B = ScalarSet([1, 2, 4])
    E, F = build_point_sets(A, B, ScalarSet([3]))
    assert len(F) == 6
    assert all((3 * p.x, 3 * p.y) in E.elems for p in F)


# The lift as the pipeline spelled it on elements before point sets moved to
# int pairs: the oracle for build_point_sets.  Over F_q it multiplies the
# residues and builds elements from the products, which reduce them mod q.
def _lift_on_elements(A, B, g1, skew, q):
    if q is None:
        pt = Point2
    else:
        A, B = ([x.residue for x in S] for S in (A, B))
        g1 = g1.residue if isinstance(g1, PrimeFieldElement) else g1

        def pt(x, y):
            return Point2(PrimeFieldElement(x, q), PrimeFieldElement(y, q))
    F = PointSet2(pt(b, b * a) for b in B for a in A)
    if skew:
        return PointSet2(pt(b * g1, b * a) for b in B for a in A), F
    return PointSet2(pt(g1 * b, g1 * b * a) for b in B for a in A), F


@st.composite
def _lift_case(draw):
    q = draw(st.sampled_from([None, 5, 7, 101, 2 ** 31 - 1]))
    if q is None:
        elem = st.one_of(st.integers(-9, 9), st.sampled_from([0, Fraction(-3, 7)]),
                         st.fractions(min_value=-6, max_value=6, max_denominator=7))
        g1 = elem.filter(lambda x: x != 0)
    else:
        elem = st.integers(0, q - 1).map(lambda r: PrimeFieldElement(r, q))
        # a bare int g1 joins the field of A and B through lift
        g1 = st.one_of(elem, st.integers(1, q - 1))
    A, B = (draw(st.lists(elem, max_size=5)) for _ in range(2))
    return A, B, draw(g1), draw(st.booleans()), q


def _typed_points(P):
    return {tuple((type(c), c) for c in p) for p in P}


@settings(max_examples=200)
@given(_lift_case())
def test_point_set_lift_matches_element_formulas(case):
    A, B, g1, skew, q = case
    A, B = ScalarSet(A), ScalarSet(B)
    G1 = ScalarSet(lift([g1], q)[0])
    lattice = build_point_sets(A, B, G1, skew=skew)
    for got, want in zip(lattice, _lift_on_elements(A, B, g1, skew, q)):
        assert got == want and hash(got) == hash(want)
        assert got.domain == want.domain
        assert _typed_points(got) == _typed_points(want)


def test_point_sets_refuse_g1_from_another_domain():
    # G1 = {g1} must lie over the domain of A and B, as the pipeline's
    # G1 = {g0**r0} lies over G's
    F7, F11 = PrimeField(7), PrimeField(11)
    A, B = ScalarSet([F7(1), F7(2)]), ScalarSet([F7(1), F7(4)])
    for G1 in (ScalarSet([1]), ScalarSet([Fraction(1, 2)]), ScalarSet([F11(3)])):
        for skew in (False, True):
            with pytest.raises(DomainMismatchError):
                build_point_sets(A, B, G1, skew=skew)
    with pytest.raises(DomainMismatchError):
        build_point_sets(ScalarSet([1, 2]), ScalarSet([1, 3]), ScalarSet([F7(3)]))


@pytest.mark.parametrize("skew", [False, True])
def test_point_sets_are_one_object_when_g1_is_one(skew):
    # E = g1 * F, and skew scales only E's first coordinate by g1: both
    # are F itself when g1 = 1
    F7 = PrimeField(7)
    for A, B, one, q in [
        (ScalarSet([1, Fraction(1, 2), -3]), ScalarSet([Fraction(2, 3), 4]), 1, None),
        (ScalarSet([1, Fraction(1, 2), -3]), ScalarSet([Fraction(2, 3), 4]),
         Fraction(3, 3), None),
        (ScalarSet([F7(1), F7(2), F7(6)]), ScalarSet([F7(1), F7(4)]), F7(1), 7),
        (ScalarSet([F7(1), F7(2), F7(6)]), ScalarSet([F7(1), F7(4)]), 8, 7),
    ]:
        E, F = build_point_sets(A, B, ScalarSet(lift([one], q)[0]), skew=skew)
        assert E is F
        assert (E, F) == _lift_on_elements(A, B, one, skew, q)


def test_point_sets_stay_on_the_lattice():
    """The pipeline's lift, collinearity test and dot-product set read only
    the int pairs: no set along the way builds its element objects."""
    held = _DomainSet.elems  # the slot itself, without the lazy fallback
    F7 = PrimeField(7)
    for A, B, g1 in [
        (ScalarSet([1, Fraction(1, 2), -3]), ScalarSet([1, Fraction(2, 3), 4]),
         Fraction(4, 9)),
        (ScalarSet([F7(1), F7(2), F7(6)]), ScalarSet([F7(1), F7(4)]), F7(3)),
    ]:
        for skew in (False, True):
            G1 = ScalarSet([g1])
            E, F = build_point_sets(A, B, G1, skew=skew)
            assert not collinear(E) and not collinear(F)
            dots = dot_product_set(E, F)
            for S in (A, B, G1, E, F, dots):
                with pytest.raises(AttributeError):
                    held.__get__(S)


@pytest.mark.parametrize("skew", [False, True])
@settings(max_examples=150)
@given(_lift_case().filter(
    lambda c: (c[2].residue if isinstance(c[2], PrimeFieldElement) else c[2]) != 0))
@example(([1, 2], [1, 2], 3, False, None))
@example(([PrimeFieldElement(v, 7) for v in (1, 3)], [PrimeFieldElement(v, 7) for v in (2, 5)],
          PrimeFieldElement(4, 7), False, 7))
def test_lift_keeps_collinearity(skew, case):
    # E is F under g1*(x, y), or (g1*x, y) with skew, an invertible linear
    # map for g1 != 0, so the pipelines test F alone
    A, B, g1, _, q = case
    E, F = build_point_sets(ScalarSet(A), ScalarSet(B), ScalarSet(lift([g1], q)[0]),
                            skew=skew)
    assert collinear(E) == collinear(F)


def test_dot_identity_exact():
    A = ScalarSet([1, 2])
    B = ScalarSet([1, 2, 4])
    lhs, rhs = identity_sides(A, B, ScalarSet([1]))
    assert lhs == rhs
    assert lhs.sorted() == [2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 80]
    lhs3, rhs3 = identity_sides(A, B, ScalarSet([3]))
    assert lhs3 == rhs3


def test_skew_lift_changes_the_product():
    # scaling only the first coordinate shifts by g1 instead of 1
    A = ScalarSet([1, 2])
    B = ScalarSet([1, 2, 4])
    lhs, rhs = identity_sides(A, B, ScalarSet([3]), skew=True)
    assert lhs != rhs
    AA_g1 = shift(productset(A, A), 3)
    assert lhs == productset(productset(B, B), AA_g1)
    lhs1, rhs1 = identity_sides(A, B, ScalarSet([1]), skew=True)
    assert lhs1 == rhs1


def test_exceptional_set_known():
    A = ScalarSet([1, 2])
    G = GgpSpec(2, GapSpec(1, (1,), (3,)))
    assert exceptional_set(shift(productset(A, A), 1), G).sorted() == [3, 5]


def test_exceptional_set_refuses_mixed_domains():
    F7, F11 = PrimeField(7), PrimeField(11)
    R = GapSpec(0, (1,), (3,))
    Gq, G7 = GgpSpec(2, R), GgpSpec(F7(3), R)
    for AA1, G in ((ScalarSet([2, 5]), G7), (ScalarSet([F7(2), F7(5)]), Gq),
                   (ScalarSet([F11(2)]), G7)):
        with pytest.raises(DomainMismatchError):
            exceptional_set(AA1, G)


def test_field_progression_stages_build_no_field_elements(monkeypatch):
    q = 100003
    F = PrimeField(q)
    G = GgpSpec(F(2), GapSpec(3, (1, 40), (5, 6)))
    # 1*7+1 = 2**3 and 3*5+1 = 2**4 lie in G; 2*2+1 = 5 does not
    A = ScalarSet(map(F, [1, 2, 3, 5, 7, 11]))
    AA1 = shift(productset(A, A), 1)
    built = []
    init = PrimeFieldElement.__init__

    def counted(self, value, modulus):
        built.append(value)
        init(self, value, modulus)

    monkeypatch.setattr(PrimeFieldElement, "__init__", counted)
    Gset, B, C = enumerate_ggp(G), square_part(G), exceptional_set(AA1, G)
    assert built == []
    monkeypatch.undo()
    # the exponents of G/g1
    ks = {k - 3 for k in G.exponents.residues}
    assert set(Gset) == {F(pow(2, 3 + k, q)) for k in ks}
    L = {pow(2, k, q) for k in ks}
    assert set(B) == {F(g) for g in L if g * g % q in L}
    assert set(C) == set(AA1) - set(Gset)
    assert F(8) not in C and F(16) not in C and F(5) in C


def test_field_pipeline_computes_the_order_once(monkeypatch):
    # ord(g0) is G.order, cached on the one spec the run builds
    calls = []
    order = progressions.multiplicative_order
    monkeypatch.setattr(progressions, "multiplicative_order",
                        lambda g: calls.append(g) or order(g))
    F = PrimeField(1009)
    G = GgpSpec(F(11), GapSpec(2, (1, 5), (3, 4)))
    rep = run_pipeline(PipelineInput(q=1009, A=ScalarSet(map(F, [2, 3, 5])), G=G,
                                     epsilon=Fraction(1, 100), delta=Fraction(1, 10)))
    assert rep.identity_ok
    assert calls == [F(11)]


def test_pipeline_end_to_end():
    A = ScalarSet([1, 2])
    G = GgpSpec(2, GapSpec(1, (1,), (3,)))
    rep = run_pipeline(PipelineInput(A=A, G=G, delta=Fraction(1, 2)))
    assert rep.a_size == 2
    assert rep.aa_size == 3
    assert rep.g_formal_len == 3
    assert rep.g_realized_size == 3
    assert rep.b_size == 2
    assert rep.e_size == 4
    assert rep.pi_size == 9
    assert rep.c_size == 2
    assert rep.epsilon == "1/6"
    assert rep.delta == "1/2"
    assert rep.claim_bb_bound == 1
    assert rep.identity_ok
    assert rep.corollary1_ok
    assert rep.bound_ratio == "1.41421356237309504880"
    assert rep.constants["proper"] == "true"
    assert rep.constants["claim_bb"] == "pass"
    assert rep.constants["b_even_size"] == "2"
    assert rep.constants["decomposition"] == "pass"
    assert rep.constants["gg_over_g"] == "5/3"
    assert rep.constants["pi_over_e_pow"] == "2.83482236226346462072"
    assert rep.structural_ok()


def test_report_serialization(capsys):
    A = ScalarSet([1, 2])
    G = GgpSpec(2, GapSpec(1, (1,), (3,)))
    rep = run_pipeline(PipelineInput(A=A, G=G, delta=Fraction(1, 2)))
    argv = ["verify-main", "--A", "{1, 2}", "--G", "ggp 2; gap 1;1;3",
            "--delta", "1/2"]
    assert main(argv) == 0
    assert Report(**json.loads(capsys.readouterr().out)) == rep
    assert main([*argv, "--format", "csv"]) == 0
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == [f.name for f in dataclasses.fields(Report)
                      if getattr(rep, f.name) is not None]
    assert len(header) == 15 and "q" not in header
    assert row[header.index("identity_ok")] == "true"
    assert row[header.index("bound_ratio")] == "1.41421356237309504880"
    assert json.loads(row[-1])["claim_bb"] == "pass"


def test_pipeline_preconditions():
    A = ScalarSet([1, 2])
    G = GgpSpec(2, GapSpec(1, (1,), (3,)))
    with pytest.raises(PreconditionError):
        run_pipeline(PipelineInput(A=ScalarSet([1]), G=G, delta=Fraction(1, 2)))
    for bad_delta in (Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(PreconditionError):
            run_pipeline(PipelineInput(A=A, G=G, delta=bad_delta))


def test_rational_run_refuses_epsilon_and_keeps_its_precheck_order():
    A = ScalarSet([1, 2])
    G = GgpSpec(2, GapSpec(1, (1,), (3,)))
    inp = PipelineInput(A=A, G=G, delta=Fraction(1, 2))
    # epsilon is delta/3 over Q, so even that value is refused
    for eps in (Fraction(1, 6), Fraction(1, 100)):
        with pytest.raises(PreconditionError, match="epsilon is delta/3"):
            run_pipeline(dataclasses.replace(inp, epsilon=eps))
    # the first failing precheck wins: |A| >= 2, then the domain, then epsilon
    F5 = PrimeField(5)
    with pytest.raises(PreconditionError, match=r"^need \|A\| >= 2$"):
        run_pipeline(dataclasses.replace(inp, A=ScalarSet([F5(1)]), epsilon=Fraction(1, 6)))
    with pytest.raises(PreconditionError, match="^this pipeline runs over the rationals$"):
        run_pipeline(dataclasses.replace(inp, A=ScalarSet([F5(1), F5(2)]),
                                         epsilon=Fraction(1, 6), delta=Fraction(2)))
    with pytest.raises(PreconditionError, match="epsilon is delta/3"):
        run_pipeline(dataclasses.replace(inp, epsilon=Fraction(1, 6), delta=Fraction(2)))


def test_pipeline_refuses_readout_degree_above_cap(monkeypatch):
    def ran(*args):
        raise AssertionError("pipeline work ran")

    monkeypatch.setattr(harness, "productset", ran)
    monkeypatch.setattr(harness, "power_ratio_decimal", ran)
    A = ScalarSet([1, 2])
    G = GgpSpec(2, GapSpec(1, (1,), (3,)))
    cap = READOUT_DEGREE_CAP
    # epsilon = delta/3, so 1 - epsilon can have three times delta's denominator
    for delta in (Fraction(1, cap // 3 + 1), Fraction(1, cap + 1), Fraction(3, cap + 1),
                  Fraction(1, 10 ** 10)):
        assert (delta / 3).denominator > cap
        with pytest.raises(PreconditionError, match=f"READOUT_DEGREE_CAP = {cap}"):
            run_pipeline(PipelineInput(A=A, G=G, delta=delta))
        with pytest.raises(PreconditionError):
            reference_main_report([1, 2], G, delta, HarnessConfig())
    with pytest.raises(AssertionError, match="pipeline work ran"):
        run_pipeline(PipelineInput(A=A, G=G, delta=Fraction(1, cap // 3)))


def test_size_mismatch_policy():
    A = ScalarSet([1, 2])
    Gbig = GgpSpec(2, GapSpec(0, (1,), (9,)))
    with pytest.raises(PreconditionError):
        run_pipeline(PipelineInput(A=A, G=Gbig, delta=Fraction(1, 2)))
    rep = run_pipeline(
        PipelineInput(
            A=A,
            G=Gbig,
            delta=Fraction(1, 2),
            config=HarnessConfig(on_size_mismatch="warn"),
        )
    )
    assert rep.constants["size_match"] == "warn"
    assert rep.constants["size_match_ratio"] == "3"
    with pytest.raises(ValueError):
        HarnessConfig(on_size_mismatch="ignore")


def test_degeneracy_rejection():
    A = ScalarSet([1, 2])
    thin = GgpSpec(2, GapSpec(0, (1,), (3,)))
    with pytest.raises(PreconditionError):
        run_pipeline(
            PipelineInput(
                A=A,
                G=thin,
                delta=Fraction(1, 2),
                config=HarnessConfig(degeneracy_threshold=Fraction(1, 2)),
            )
        )
    rep = run_pipeline(PipelineInput(A=A, G=thin, delta=Fraction(1, 2)))
    assert rep.constants["degeneracy_ratio"] == "1"


@pytest.mark.parametrize("threshold", [Fraction(0), Fraction(-1, 2)])
def test_degeneracy_threshold_must_be_positive(threshold):
    # every degeneracy ratio is positive, so such a threshold would refuse
    # every progression
    with pytest.raises(ValueError, match="degeneracy_threshold must be positive"):
        HarnessConfig(degeneracy_threshold=threshold)
    assert HarnessConfig(degeneracy_threshold=Fraction(1, 100)).degeneracy_threshold > 0


def test_pipeline_random_instances(rng):
    for _ in range(12):
        A = make_int_set(rng, rng.randint(2, 6), hi=20)
        G = make_proper_ggp(rng, d=1)
        inp = PipelineInput(
            A=A,
            G=G,
            delta=Fraction(1, 3),
            config=HarnessConfig(on_size_mismatch="warn"),
        )
        rep = run_pipeline(inp)
        assert rep.identity_ok
        assert rep.structural_ok()
        AA1 = shift(productset(A, A), 1)
        inside = [x for x in AA1 if ggp_membership(G, *lattice_item(x))]
        assert rep.c_size + len(inside) == rep.aa_size


REFERENCE_BASES = [2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)]


@st.composite
def _pipeline_case(draw):
    """Small rational A (ints and fractions, negatives and zero included)
    and any G over the reference bases, proper or not."""
    elem = st.one_of(st.fractions(min_value=-3, max_value=6, max_denominator=4),
                     st.integers(-4, 12))
    A = draw(st.sets(elem, min_size=2, max_size=6))
    d = draw(st.integers(1, 2))
    gap = GapSpec(draw(st.integers(-2, 2)),
                  tuple(draw(st.integers(-3, 4)) for _ in range(d)),
                  tuple(draw(st.integers(3, 4)) for _ in range(d)))
    G = GgpSpec(draw(st.sampled_from(REFERENCE_BASES)), gap)
    delta = draw(st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(9, 10)]))
    cfg = HarnessConfig(on_size_mismatch=draw(st.sampled_from(["warn", "warn", "reject"])))
    return A, G, delta, cfg, draw(st.booleans())


@settings(max_examples=100)
@given(_pipeline_case())
def test_main_report_matches_reference(case):
    A, G, delta, cfg, skew_e = case
    inp = PipelineInput(A=ScalarSet(A), G=G, delta=delta, config=cfg, skew_e=skew_e)
    try:
        expected = reference_main_report(A, G, delta, cfg, skew_e)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            run_pipeline(inp)
        return
    assert dataclasses.asdict(run_pipeline(inp)) == dataclasses.asdict(expected)


@st.composite
def _any_ggp(draw):
    """G over Q (negative exponents included) or over a small F_q, where
    the base's order may be short of the exponent range, proper or not."""
    q = draw(st.sampled_from([None, 7, 13, 31, 101]))
    d = draw(st.integers(1, 2))
    lengths = tuple(draw(st.integers(3, 7)) for _ in range(d))
    span = 4 if q is None else 2 * q
    gens = tuple(draw(st.integers(-span, span)) for _ in range(d))
    gap = GapSpec(draw(st.integers(-span, span)), gens, lengths)
    if q is None:
        return GgpSpec(draw(st.sampled_from(REFERENCE_BASES)), gap)
    return GgpSpec(PrimeFieldElement(draw(st.integers(2, q - 1)), q), gap)


def _self_product_size(G):
    """|G*G| as the pipeline reads it: the size of R + R, the progression
    2*r0 + sum y_j * r_j with 0 <= y_j < 2*l_j - 1, mod ord(g0) over F_q."""
    R = G.exponents
    return gap_size(2 * R.r0, R.generators, [2 * l - 1 for l in R.lengths], G.order)


@settings(max_examples=300)
@given(_any_ggp())
# 3 has order 3 mod 13, five exponents past it
@example(GgpSpec(PrimeFieldElement(3, 13), GapSpec(0, (1,), (5,))))
@example(GgpSpec(PrimeFieldElement(12, 13), GapSpec(1, (1, 5), (3, 4))))
@example(GgpSpec(Fraction(2, 3), GapSpec(-4, (-1, 3), (4, 3))))
def test_self_product_size_matches_product_set(G):
    Gset = enumerate_ggp(G)
    assert _self_product_size(G) == len(productset(Gset, Gset))


@st.composite
def _one_generator_ggp(draw):
    """G = g0**(r0 + x*r), 0 <= x < l, over Q or a small F_q, with r = 0
    and r sharing a factor with ord(g0) among the draws."""
    q = draw(st.sampled_from([None, 7, 13, 31, 101]))
    span = 4 if q is None else 2 * q
    r = draw(st.one_of(st.integers(-span, span), st.sampled_from([0, 2, 3, 6])))
    gap = GapSpec(draw(st.integers(-span, span)), (r,), (draw(st.integers(3, 12)),))
    if q is None:
        return GgpSpec(draw(st.sampled_from(REFERENCE_BASES)), gap)
    return GgpSpec(PrimeFieldElement(draw(st.integers(2, q - 1)), q), gap)


def _order(g: PrimeFieldElement) -> int:
    k, x = 1, g.residue
    while x != 1:
        k, x = k + 1, x * g.residue % g.modulus
    return k


@settings(max_examples=200)
@given(_one_generator_ggp())
# r = 0; and r = 2 and 6 against ord(12) = 2 and ord(5) = 4 mod 13
@example(GgpSpec(Fraction(3, 2), GapSpec(5, (0,), (4,))))
@example(GgpSpec(PrimeFieldElement(3, 7), GapSpec(1, (0,), (3,))))
@example(GgpSpec(PrimeFieldElement(12, 13), GapSpec(0, (2,), (5,))))
@example(GgpSpec(PrimeFieldElement(5, 13), GapSpec(-3, (6,), (7,))))
def test_one_generator_sizes_match_the_sums(G):
    R = G.exponents
    (r,), (l,) = R.generators, R.lengths
    exps = {R.r0 + x * r for x in range(l)}
    sums = {a + b for a in exps for b in exps}
    if G.order is not None:
        n = _order(G.g0)
        exps, sums = {k % n for k in exps}, {k % n for k in sums}
    assert realized_size(G) == len(exps)
    assert _self_product_size(G) == len(sums)


def _three_product_verdict(Gset, AA1, inter, C):
    """The decomposition as the pipeline once decided it."""
    return productset(Gset, AA1) == set_union(productset(Gset, inter),
                                              productset(Gset, C))


def _decomposition_parts(A, G):
    AA1 = shift(productset(A, A), 1)
    Gset = enumerate_ggp(G)
    return Gset, AA1, set_intersect(Gset, AA1), exceptional_set(AA1, G)


@settings(max_examples=200)
@given(_any_ggp(), st.data())
def test_decomposition_verdict_matches_three_products(G, data):
    q = G.domain
    if q == RATIONAL_DOMAIN:
        elem = st.one_of(st.integers(-4, 12),
                         st.fractions(min_value=-3, max_value=6, max_denominator=4))
    else:
        elem = st.integers(0, q - 1).map(lambda r: PrimeFieldElement(r, q))
    A = ScalarSet(data.draw(st.sets(elem, min_size=2, max_size=5)))
    Gset, AA1, inter, C = _decomposition_parts(A, G)
    assert decomposition_holds(Gset, AA1, inter, C)
    assert _three_product_verdict(Gset, AA1, inter, C)
    if C:
        # a part that misses an item of AA+1 takes the fallback
        C = set_minus(C, ScalarSet([data.draw(st.sampled_from(C.sorted()))]))
        assert (decomposition_holds(Gset, AA1, inter, C)
                == _three_product_verdict(Gset, AA1, inter, C))


@pytest.mark.parametrize("A,G,dropped,verdict", [
    # G*5 is G*2, the coset {2, 5, 6} of the subgroup {1, 3, 9} of F_13*
    ([1, 2], GgpSpec(PrimeFieldElement(3, 13), GapSpec(0, (1,), (3,))), 5, True),
    # AA+1 holds 3/2, 3 and 6, and {1, 2, 4}*3 lies in {1, 2, 4}*{3/2, 6}
    ([Fraction(1, 2), 1, 2, 5], GgpSpec(2, GapSpec(0, (1,), (3,))), 3, True),
    ([1, 2], GgpSpec(2, GapSpec(1, (1,), (3,))), 5, False),
])
def test_decomposition_fallback_on_a_dropped_item(monkeypatch, A, G, dropped, verdict):
    q = G.domain
    A = ScalarSet(A if q == RATIONAL_DOMAIN else [PrimeFieldElement(a, q) for a in A])
    Gset, AA1, inter, C = _decomposition_parts(A, G)
    x = ScalarSet([dropped] if q == RATIONAL_DOMAIN else [PrimeFieldElement(dropped, q)])
    C = set_minus(C, x)
    assert len(C) + len(x) + len(inter) == len(AA1)
    formed = []
    real = harness.productset
    monkeypatch.setattr(harness, "productset",
                        lambda X, Y: formed.append(len(X) * len(Y)) or real(X, Y))
    assert decomposition_holds(Gset, AA1, inter, C) is verdict
    assert formed == [len(Gset) * len(AA1), len(Gset) * (len(AA1) - 1)]
    assert _three_product_verdict(Gset, AA1, inter, C) is verdict


F101 = PrimeField(101)


@pytest.mark.parametrize("A,G", [
    (ScalarSet([1, 3, 5, 7]), GgpSpec(2, GapSpec(1, (1,), (8,)))),
    (ScalarSet(map(F101, [2, 3, 5])), GgpSpec(F101(2), GapSpec(1, (1,), (5,)))),
], ids=["rational", "field"])
def test_passing_run_forms_no_product_with_all_of_g(monkeypatch, A, G):
    Gset, AA1, inter, _ = _decomposition_parts(A, G)
    assert 0 < len(inter) < len(AA1)
    formed = []
    real = harness.productset
    monkeypatch.setattr(harness, "productset",
                        lambda X, Y: formed.append((X, Y)) or real(X, Y))
    if G.domain == RATIONAL_DOMAIN:
        rep = run_pipeline(PipelineInput(A=A, G=G, delta=Fraction(1, 3)))
    else:
        rep = run_pipeline(PipelineInput(q=101, A=A, G=G, epsilon=Fraction(1, 100),
                                         delta=Fraction(1, 10)))
    assert rep.structural_ok() and rep.constants["decomposition"] == "pass"
    assert (Gset, inter) in formed
    for X, Y in formed:
        if Gset in (X, Y):
            assert len(X) * len(Y) == len(Gset) * len(inter)


# The identity's right side was formed as g1*(BB*(AA+1)) before it was
# formed as BB*(g1*(AA+1)); both are g1*BB*(AA+1).

def _identity_parts(A, G):
    AA = productset(A, A)
    B = square_part(G)
    return AA, shift(AA, 1), B, productset(B, B), ggp_powers(G, [G.exponents.r0])


@settings(max_examples=150)
@given(_any_ggp(), st.data())
def test_identity_right_side_matches_scaled_product(G, data):
    q = G.domain
    if q == RATIONAL_DOMAIN:
        elem = st.one_of(st.integers(-4, 12),
                         st.fractions(min_value=-3, max_value=6, max_denominator=4))
    else:
        elem = st.integers(0, q - 1).map(lambda r: PrimeFieldElement(r, q))
    A = ScalarSet(data.draw(st.sets(elem, min_size=2, max_size=5)))
    skew = data.draw(st.booleans())
    _, AA1, B, BB, G1 = _identity_parts(A, G)
    scaled = productset(productset(BB, AA1), G1)
    lhs, rhs = identity_sides(A, B, G1, skew=skew)
    assert rhs == scaled
    # over Q the size match only warns, and every draw's degeneracy ratio,
    # d / floor(log2(formal length)) with lengths of at least 3, is at most 1
    inp = (PipelineInput(A=A, G=G, delta=Fraction(1, 2), skew_e=skew,
                         config=HarnessConfig(on_size_mismatch="warn"))
           if q == RATIONAL_DOMAIN else
           PipelineInput(q=q, A=A, G=G, epsilon=Fraction(1, 3), delta=Fraction(1, 2),
                         skew_e=skew))
    dots, real = [], harness.dot_product_set
    with mock.patch.object(harness, "dot_product_set",
                           lambda E, F: dots.append(real(E, F)) or dots[-1]):
        rep = run_pipeline(inp)
    (Pi,) = dots
    assert Pi == lhs and rep.identity_ok == (Pi == scaled)


def _bits(X, Y):
    """The numerator bits that setalg's cap charges a pairwise X, Y."""
    return len(X) * len(Y) * (X.lat[1] * Y.lat[1]).bit_length()


@settings(max_examples=300)
@given(st.sets(st.one_of(st.integers(-6, 30),
                         st.fractions(min_value=-4, max_value=9, max_denominator=12)),
               min_size=2, max_size=6),
       st.one_of(st.integers(2, 12),
                 st.builds(Fraction, st.integers(1, 36), st.integers(2, 36))
                 ).filter(lambda g: g != 1),
       st.integers(-5, 5),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(3, 5)), min_size=1, max_size=2))
# g1 = 32 and g1 = 9 cancel E's denominator: E.F charges 80 and 32 bits,
# and the right side, formed either way, 81 and 36
@example({1, 2}, 2, 5, [(-4, 3)])
@example({1, 2}, 3, 2, [(-1, 3)])
def test_identity_right_side_caps_never_refuse_first(A, g0, r0, dims):
    """Every pairwise check of the right side, formed either way, charges
    no more pairs than the largest check that runs before it, and the new
    formation charges no more bits than the largest of those checks and the
    old formation: the new formation adds no refusal.  Bits alone can exceed
    every earlier check, as in the examples, for the old formation too."""
    A = ScalarSet(A)
    G = GgpSpec(g0, GapSpec(r0, tuple(g for g, _ in dims), tuple(l for _, l in dims)))
    AA, AA1, B, BB, G1 = _identity_parts(A, G)
    Gset = enumerate_ggp(G)
    E, F = build_point_sets(A, B, G1)
    before = [(A, A), (AA, ScalarSet([1])), (Gset, AA1), (Gset, Gset), (E, F), (B, B)]
    new = [(AA1, G1), (BB, productset(AA1, G1))]
    old = [(BB, AA1), (productset(BB, AA1), G1)]
    for checks in (new, old):
        assert (max(len(X) * len(Y) for X, Y in checks)
                <= max(len(X) * len(Y) for X, Y in before))
    assert (max(_bits(X, Y) for X, Y in new)
            <= max(_bits(X, Y) for X, Y in before + old))
