import math
import random
from fractions import Fraction

import pytest

from shiftprod.ffharness import (
    CoverageReport,
    FfInput,
    FfReport,
    coverage_check,
    run_field_pipeline,
    subgroup_ggp,
)
from shiftprod.harness import HarnessConfig, PreconditionError, exceptional_set
from shiftprod.numeric import PrimeField, PrimeFieldElement
from shiftprod.progressions import GapSpec, GgpSpec, enumerate_ggp, realized_size
from shiftprod.setalg import Point2, PointSet2, ScalarSet


def full_unit_plane(q):
    pts = [
        Point2(PrimeFieldElement(x, q), PrimeFieldElement(y, q))
        for x in range(q)
        for y in range(q)
        if not (x == 0 and y == 0)
    ]
    return PointSet2(pts)


def test_subgroup_ggp_known():
    F7 = PrimeField(7)
    S, G = subgroup_ggp(7, 3)
    assert S.sorted() == [F7(1), F7(2), F7(4)]
    assert G.g0 == F7(3)
    assert G.exponents == GapSpec(0, (2,), (3,))
    F13 = PrimeField(13)
    S13, G13 = subgroup_ggp(13, 4)
    assert S13.sorted() == [F13(1), F13(5), F13(8), F13(12)]
    assert G13.g0 == F13(2)


def test_subgroup_is_power_residues():
    for q, t in ((7, 3), (13, 3), (13, 4), (31, 5), (101, 50)):
        F = PrimeField(q)
        S, G = subgroup_ggp(q, t)
        assert len(S) == t
        assert enumerate_ggp(G) == S
        expected = {x for x in map(F, range(1, q)) if x ** t == F(1)}
        assert set(S) == expected


def test_subgroup_preconditions():
    with pytest.raises(PreconditionError):
        subgroup_ggp(10, 3)
    with pytest.raises(PreconditionError):
        subgroup_ggp(7, 2)
    with pytest.raises(PreconditionError):
        subgroup_ggp(7, 4)


def test_field_exceptional_set():
    F5 = PrimeField(5)
    A = ScalarSet([F5(1), F5(4)])
    G = GgpSpec(F5(2), GapSpec(0, (1,), (4,)))
    assert enumerate_ggp(G).sorted() == [F5(1), F5(2), F5(3), F5(4)]
    assert exceptional_set(A, G).sorted() == [F5(0)]


def test_field_pipeline_small():
    F5 = PrimeField(5)
    A = ScalarSet([F5(1), F5(4)])
    G = GgpSpec(F5(2), GapSpec(0, (1,), (4,)))
    rep = run_field_pipeline(
        FfInput(q=5, A=A, G=G, epsilon=Fraction(1, 6), delta=Fraction(1, 2))
    )
    assert rep.a_size == 2
    assert rep.aa_size == 2
    assert rep.b_size == 4
    assert rep.e_size == 8
    assert rep.pi_size == 5
    assert rep.c_size == 1
    assert rep.identity_ok
    assert not rep.cond1_ok
    assert rep.cond1_margin == "0.27359615146827151829"
    assert rep.cond2_ok
    assert rep.cond2_margin == "0.89442719099991587856"
    assert rep.coverage_ok
    assert not rep.q_delta_bound
    assert rep.bound_ratio == "0.44721359549995793928"
    assert rep.constants["coverage_hypothesis"] == "fails"
    assert rep.structural_ok()
    assert not rep.finding()


def test_field_pipeline_realized_size_of_non_proper_g():
    F7 = PrimeField(7)
    G = GgpSpec(F7(2), GapSpec(0, (1,), (4,)))
    rep = run_field_pipeline(FfInput(q=7, A=ScalarSet([F7(1), F7(3)]), G=G,
                                     epsilon=Fraction(1, 6), delta=Fraction(1, 2)))
    assert rep.g_formal_len == 4
    assert rep.g_realized_size == realized_size(G) == 3


def test_field_pipeline_subgroup_run():
    S, G = subgroup_ggp(101, 50)
    rep = run_field_pipeline(
        FfInput(q=101, A=S, G=G, epsilon=Fraction(1, 100), delta=Fraction(1, 10))
    )
    assert rep.a_size == 50
    assert rep.aa_size == 50
    assert rep.b_size == 50
    assert rep.e_size == 2500
    assert rep.pi_size == 101
    assert rep.c_size == 26
    assert rep.claim_bb_bound == 25
    assert rep.identity_ok
    assert rep.cond1_ok
    assert rep.cond1_margin == "2.35187770009616362174"
    assert rep.cond2_ok
    assert rep.cond2_margin == "0.78538168241520772257"
    assert rep.coverage_ok
    assert rep.constants["coverage_hypothesis"] == "holds"
    assert rep.q_delta_bound
    assert rep.bound_ratio == "16.38857566569550842765"
    assert rep.constants["b_even_size"] == "25"
    assert not rep.finding()


def test_field_report_serialization():
    S, G = subgroup_ggp(13, 4)
    rep = run_field_pipeline(
        FfInput(q=13, A=S, G=G, epsilon=Fraction(1, 6), delta=Fraction(1, 3))
    )
    assert FfReport.from_json(rep.to_json()) == rep
    header = FfReport.csv_header()
    row = rep.to_csv_row()
    assert len(row) == len(header)
    assert header[0] == "q"
    assert row[0] == "13"


def test_field_pipeline_preconditions():
    F5 = PrimeField(5)
    A = ScalarSet([F5(1), F5(4)])
    G = GgpSpec(F5(2), GapSpec(0, (1,), (4,)))
    with pytest.raises(PreconditionError):
        run_field_pipeline(FfInput(q=6, A=A, G=G, epsilon=Fraction(1, 6), delta=Fraction(1, 2)))
    with pytest.raises(PreconditionError):
        run_field_pipeline(
            FfInput(q=5, A=ScalarSet([F5(1)]), G=G, epsilon=Fraction(1, 6), delta=Fraction(1, 2))
        )
    with pytest.raises(PreconditionError):
        run_field_pipeline(
            FfInput(q=7, A=A, G=G, epsilon=Fraction(1, 6), delta=Fraction(1, 2))
        )
    with pytest.raises(PreconditionError):
        run_field_pipeline(FfInput(q=5, A=A, G=G, epsilon=Fraction(0), delta=Fraction(1, 2)))
    with pytest.raises(PreconditionError):
        run_field_pipeline(FfInput(q=5, A=A, G=G, epsilon=Fraction(1, 6), delta=Fraction(1)))


def test_coverage_check_full_plane():
    E = full_unit_plane(5)
    cov = coverage_check(E, E, 5)
    assert cov == CoverageReport(
        q=5, e_size=24, f_size=24, hypothesis_ok=True, covered_size=4, full=True
    )


def test_coverage_random_when_hypothesis_holds():
    rng = random.Random(3)
    for q in (5, 7):
        n = math.isqrt(q ** 3) + 2
        assert n * n > q ** 3
        all_pts = [
            Point2(PrimeFieldElement(x, q), PrimeFieldElement(y, q))
            for x in range(q)
            for y in range(q)
        ]
        for _ in range(5):
            E = PointSet2(rng.sample(all_pts, n))
            F = PointSet2(rng.sample(all_pts, n))
            cov = coverage_check(E, F, q)
            assert cov.hypothesis_ok
            assert cov.full


def test_coverage_check_preconditions():
    E = full_unit_plane(5)
    with pytest.raises(PreconditionError):
        coverage_check(E, E, 6)


def test_skew_lift_breaks_field_identity():
    S, G = subgroup_ggp(13, 4)
    rep = run_field_pipeline(
        FfInput(
            q=13,
            A=S,
            G=G,
            epsilon=Fraction(1, 6),
            delta=Fraction(1, 3),
            config=HarnessConfig(skew_e=True),
        )
    )
    # g1 = 1 for subgroup progressions, so the skew variant degenerates
    # to the standard one and the identity still holds
    assert rep.identity_ok


def test_finding_flag_on_coverage_gap():
    S, G = subgroup_ggp(101, 50)
    rep = run_field_pipeline(
        FfInput(q=101, A=S, G=G, epsilon=Fraction(1, 100), delta=Fraction(1, 10))
    )
    forced = FfReport(**{**rep.to_dict(), "coverage_ok": False})
    assert forced.finding()
    assert not rep.finding()
