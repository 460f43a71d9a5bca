import csv
import dataclasses
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reference import reference_ff_report
from shiftprod import harness
from shiftprod.cli import main
from shiftprod.ffharness import CoverageReport, coverage_check, subgroup_ggp
from shiftprod.harness import (
    READOUT_DEGREE_CAP,
    HarnessConfig,
    PipelineInput,
    PreconditionError,
    Report,
    exceptional_set,
    run_pipeline,
)
from shiftprod.numeric import PrimeField, PrimeFieldElement, is_prime, multiplicative_order
from shiftprod import progressions, setalg
from shiftprod.progressions import GapSpec, GgpSpec, enumerate_ggp, realized_size
from shiftprod.setalg import Point2, PointSet2, ScalarSet, productset, shift


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
        expected = {F(x) for x in range(1, q) if pow(x, t, q) == 1}
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
    assert exceptional_set(shift(productset(A, A), F5(1)), G).sorted() == [F5(0)]


def test_field_pipeline_small():
    F5 = PrimeField(5)
    A = ScalarSet([F5(1), F5(4)])
    G = GgpSpec(F5(2), GapSpec(0, (1,), (4,)))
    rep = run_pipeline(
        PipelineInput(q=5, A=A, G=G, epsilon=Fraction(1, 6), delta=Fraction(1, 2))
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
    rep = run_pipeline(PipelineInput(q=7, A=ScalarSet([F7(1), F7(3)]), G=G,
                                     epsilon=Fraction(1, 6), delta=Fraction(1, 2)))
    assert rep.g_formal_len == 4
    assert rep.g_realized_size == realized_size(G) == 3


def test_field_pipeline_computes_each_order_once(monkeypatch):
    calls = []
    order = progressions.multiplicative_order
    monkeypatch.setattr(progressions, "multiplicative_order",
                        lambda g: calls.append(g) or order(g))
    F = PrimeField(101)
    A = ScalarSet(F(v) for v in (2, 3, 5, 7, 11, 13, 17, 19))
    G = GgpSpec(F(2), GapSpec(1, (1, 7), (5, 5)))
    run_pipeline(PipelineInput(q=101, A=A, G=G, epsilon=Fraction(1, 100),
                               delta=Fraction(1, 10)))
    assert 1 <= len(calls) <= 2


def test_field_pipeline_subgroup_run():
    S, G = subgroup_ggp(101, 50)
    rep = run_pipeline(
        PipelineInput(q=101, A=S, G=G, epsilon=Fraction(1, 100), delta=Fraction(1, 10))
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


def test_subgroup_run_splits_its_point_set_once(monkeypatch):
    # the subgroup progression starts at g0**0 = 1, so E is F, and the dot
    # kernel splits that one set of 256 points into directions once
    calls, directions = [], setalg._directions
    monkeypatch.setattr(setalg, "_directions",
                        lambda items, q: calls.append(len(items)) or directions(items, q))
    S, G = subgroup_ggp(1009, 16)
    rep = run_pipeline(
        PipelineInput(q=1009, A=S, G=G, epsilon=Fraction(1, 100), delta=Fraction(1, 10)))
    assert rep.identity_ok and rep.e_size == 256
    assert calls == [256]


def test_field_report_serialization(capsys):
    S, G = subgroup_ggp(13, 4)
    rep = run_pipeline(
        PipelineInput(q=13, A=S, G=G, epsilon=Fraction(1, 6), delta=Fraction(1, 3))
    )
    argv = ["verify-ff", "--q", "13", "--subgroup-t", "4",
            "--epsilon", "1/6", "--delta", "1/3"]
    assert main(argv) == 0
    assert Report(**json.loads(capsys.readouterr().out)) == rep
    assert main([*argv, "--format", "csv"]) == 0
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == [f.name for f in dataclasses.fields(Report)
                      if getattr(rep, f.name) is not None]
    assert len(header) == 22
    assert row[0] == "13"


def test_field_pipeline_preconditions():
    F5 = PrimeField(5)
    A = ScalarSet([F5(1), F5(4)])
    G = GgpSpec(F5(2), GapSpec(0, (1,), (4,)))
    with pytest.raises(PreconditionError):
        run_pipeline(PipelineInput(q=6, A=A, G=G, epsilon=Fraction(1, 6), delta=Fraction(1, 2)))
    with pytest.raises(PreconditionError):
        run_pipeline(
            PipelineInput(q=5, A=ScalarSet([F5(1)]), G=G, epsilon=Fraction(1, 6), delta=Fraction(1, 2))
        )
    with pytest.raises(PreconditionError):
        run_pipeline(
            PipelineInput(q=7, A=A, G=G, epsilon=Fraction(1, 6), delta=Fraction(1, 2))
        )
    with pytest.raises(PreconditionError):
        run_pipeline(PipelineInput(q=5, A=A, G=G, epsilon=Fraction(0), delta=Fraction(1, 2)))
    with pytest.raises(PreconditionError):
        run_pipeline(PipelineInput(q=5, A=A, G=G, epsilon=Fraction(1, 6), delta=Fraction(1)))
    # q**(1 - epsilon) in the ledger needs epsilon <= 1
    with pytest.raises(PreconditionError, match="epsilon"):
        run_pipeline(PipelineInput(q=5, A=A, G=G, epsilon=Fraction(2), delta=Fraction(1, 2)))
    assert run_pipeline(
        PipelineInput(q=5, A=A, G=G, epsilon=Fraction(1), delta=Fraction(1, 2))).identity_ok


def test_field_run_refuses_a_config_and_keeps_its_precheck_order():
    F5 = PrimeField(5)
    A = ScalarSet([F5(1), F5(4)])
    G = GgpSpec(F5(2), GapSpec(0, (1,), (4,)))
    inp = PipelineInput(q=5, A=A, G=G, epsilon=Fraction(1, 6), delta=Fraction(1, 2))
    # the config's gates are the rational run's, so none is silently ignored
    for cfg in (HarnessConfig(on_size_mismatch="warn"),
                HarnessConfig(size_match_factor=Fraction(3)),
                HarnessConfig(degeneracy_threshold=Fraction(2))):
        with pytest.raises(PreconditionError, match="over the rationals only"):
            run_pipeline(dataclasses.replace(inp, config=cfg))
    assert run_pipeline(dataclasses.replace(inp, config=HarnessConfig())).identity_ok
    with pytest.raises(PreconditionError, match="needs epsilon"):
        run_pipeline(dataclasses.replace(inp, epsilon=None))
    # the first failing precheck wins: q prime, then |A| >= 2, then the domain
    one = ScalarSet([F5(1)])
    with pytest.raises(PreconditionError, match="^6 is not prime$"):
        run_pipeline(dataclasses.replace(inp, q=6, A=one, config=HarnessConfig(
            on_size_mismatch="warn")))
    with pytest.raises(PreconditionError, match=r"^need \|A\| >= 2$"):
        run_pipeline(dataclasses.replace(inp, q=7, A=one, epsilon=None))
    with pytest.raises(PreconditionError, match="^A and G must live in F_7$"):
        run_pipeline(dataclasses.replace(inp, q=7, epsilon=Fraction(0)))


def test_field_pipeline_refuses_readout_degree_above_cap(monkeypatch):
    def ran(*args):
        raise AssertionError("pipeline work ran")

    monkeypatch.setattr(harness, "productset", ran)
    monkeypatch.setattr(harness, "power_ratio_decimal", ran)
    F5 = PrimeField(5)
    A = ScalarSet([F5(1), F5(4)])
    G = GgpSpec(F5(2), GapSpec(0, (1,), (4,)))
    cap = READOUT_DEGREE_CAP
    # 3/2 + 1/cap has denominator cap; 3/2 + 1/(cap - 1) has 2*(cap - 1);
    # 3/2 + 1/(2*cap - 2) and 3/2 + 1/(cap + 2) reduce under the cap, but
    # 1 - epsilon does not
    for eps, delta in ((Fraction(1, cap + 1), Fraction(1, 2)),
                       (Fraction(1, cap - 1), Fraction(1, 2)),
                       (Fraction(1, 2 * cap - 2), Fraction(1, 2)),
                       (Fraction(1, cap + 2), Fraction(1, 2)),
                       (Fraction(1, 10 ** 10), Fraction(1, 2)),
                       (Fraction(1, 2), Fraction(1, cap + 1)),
                       (Fraction(1, 2), Fraction(cap, cap + 1))):
        with pytest.raises(PreconditionError, match=f"READOUT_DEGREE_CAP = {cap}"):
            run_pipeline(PipelineInput(q=5, A=A, G=G, epsilon=eps, delta=delta))
    with pytest.raises(AssertionError, match="pipeline work ran"):
        run_pipeline(PipelineInput(q=5, A=A, G=G, epsilon=Fraction(1, cap),
                                   delta=Fraction(1, cap)))


def test_coverage_check_full_plane():
    E = full_unit_plane(5)
    cov = coverage_check(E, E, 5)
    assert cov == CoverageReport(
        q=5, e_size=24, f_size=24, hypothesis_ok=True, covered_size=4, full=True
    )


@pytest.mark.parametrize("hypothesis_ok,full", [(True, True), (True, False),
                                                  (False, True), (False, False)])
def test_coverage_finding_rule(hypothesis_ok, full):
    cov = CoverageReport(q=5, e_size=3, f_size=3, hypothesis_ok=hypothesis_ok,
                         covered_size=4 if full else 3, full=full)
    assert cov.finding() == (hypothesis_ok and not full)


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
    # point sets from another field, or from the rationals, are refused
    E7 = full_unit_plane(7)
    with pytest.raises(PreconditionError, match="F_11"):
        coverage_check(E7, E7, 11)
    with pytest.raises(PreconditionError):
        coverage_check(E, E7, 5)
    R = PointSet2([Point2(1, 2), Point2(3, 4)])
    with pytest.raises(PreconditionError):
        coverage_check(R, R, 5)


def test_skew_lift_breaks_field_identity():
    S, G = subgroup_ggp(13, 4)
    rep = run_pipeline(
        PipelineInput(
            q=13,
            A=S,
            G=G,
            epsilon=Fraction(1, 6),
            delta=Fraction(1, 3),
            skew_e=True,
        )
    )
    # g1 = 1 for subgroup progressions, so the skew variant degenerates
    # to the standard one and the identity still holds
    assert rep.identity_ok


def test_finding_flag_on_coverage_gap():
    S, G = subgroup_ggp(101, 50)
    rep = run_pipeline(
        PipelineInput(q=101, A=S, G=G, epsilon=Fraction(1, 100), delta=Fraction(1, 10))
    )
    forced = dataclasses.replace(rep, coverage_ok=False)
    assert forced.finding()
    assert not rep.finding()


REFERENCE_PRIMES = [p for p in range(3, 102) if is_prime(p)]


@st.composite
def _field_pipeline_case(draw):
    """Small A over a prime q <= 101 and any G over F_q, proper or not: the
    base is a generator, -1 (order 2) or any other residue."""
    q = draw(st.sampled_from(REFERENCE_PRIMES))
    generator = next(g for g in range(2, q)
                     if multiplicative_order(PrimeFieldElement(g, q)) == q - 1)
    g0 = draw(st.one_of(st.sampled_from([generator, q - 1]), st.integers(2, q - 1)))
    A = draw(st.sets(st.integers(0, q - 1), min_size=2, max_size=min(6, q)))
    d = draw(st.integers(1, 2))
    gap = GapSpec(draw(st.integers(-2, 2)),
                  tuple(draw(st.integers(-3, 4)) for _ in range(d)),
                  tuple(draw(st.integers(3, 4)) for _ in range(d)))
    G = GgpSpec(PrimeFieldElement(g0, q), gap)
    eps = draw(st.sampled_from([Fraction(1, 100), Fraction(1, 2), Fraction(1)]))
    delta = draw(st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(9, 10)]))
    return q, A, G, eps, delta, draw(st.booleans())


@settings(max_examples=200)
@given(_field_pipeline_case())
def test_field_report_matches_reference(case):
    q, A, G, eps, delta, skew_e = case
    inp = PipelineInput(q=q, A=ScalarSet(PrimeFieldElement(a, q) for a in A), G=G,
                        epsilon=eps, delta=delta, skew_e=skew_e)
    expected = reference_ff_report(q, A, G, eps, delta, skew_e)
    assert dataclasses.asdict(run_pipeline(inp)) == dataclasses.asdict(expected)
