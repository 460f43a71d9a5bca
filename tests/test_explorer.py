import dataclasses
import itertools
from fractions import Fraction

import pytest

from conftest import make_int_set
from shiftprod.cli import main
from shiftprod.explorer import (
    CoverQuery,
    ScanRow,
    conjecture_scan,
    search_bc,
)
from shiftprod.explorer import _hit, _universe
from shiftprod.numeric import PrimeField
from shiftprod.setalg import ScalarSet, productset, shift


def brute_best_hit(U, Tset, m):
    """Plain double loop over all subset pairs of U with both sides >= m."""
    best = -1
    n = len(U)
    for bsz in range(m, n + 1):
        for B in itertools.combinations(U, bsz):
            for csz in range(m, n + 1):
                for C in itertools.combinations(U, csz):
                    h = _hit(B, C, Tset)
                    if h > best:
                        best = h
    return max(best, 0)


def test_query_validation():
    A = ScalarSet([1, 2])
    with pytest.raises(ValueError):
        CoverQuery(A=ScalarSet([]))
    with pytest.raises(ValueError):
        CoverQuery(A=A, min_factor_size=0)
    with pytest.raises(ValueError):
        conjecture_scan([("a", A)], coverage_target=Fraction(0))
    with pytest.raises(ValueError):
        conjecture_scan([("a", A)], coverage_target=Fraction(3, 2))
    with pytest.raises(ValueError):
        CoverQuery(A=A, search_budget=0)
    CoverQuery(A=A, min_factor_size=1)


def test_universe_known():
    A = ScalarSet([2, -2])
    T = shift(productset(A, A), 1)
    assert T.sorted() == [-3, 5]
    U = _universe(T)
    assert U == [-3, Fraction(-5, 3), Fraction(-3, 5), 1, 5]


def test_universe_skips_zero_quotients():
    A = ScalarSet([1, -1])
    T = shift(productset(A, A), 1)
    assert T.sorted() == [0, 2]
    assert _universe(T) == [0, 1, 2]


def test_exhaustive_matches_brute_oracle():
    for elems in ([1, -1], [2, -2], [-3, 3], [3], [6, -6]):
        A = ScalarSet(elems)
        T = shift(productset(A, A), 1)
        U = _universe(T)
        assert len(U) <= 5
        for m in (1, 2):
            res = search_bc(CoverQuery(A=A, min_factor_size=m))
            assert res.exhaustive
            assert res.hit_count == brute_best_hit(U, T.elems, m)
            assert res.coverage_fraction == Fraction(res.hit_count, len(T))
            assert _hit(res.best_B, res.best_C, T.elems) == res.hit_count


def test_single_factor_cover_is_always_full():
    # with one pivot allowed, B = T/t hits every element of T
    for elems in ([1, 3], [2, 3, 7, 11, 19], [5, 9, 13]):
        A = ScalarSet(elems)
        T = shift(productset(A, A), 1)
        res = search_bc(CoverQuery(A=A, min_factor_size=1))
        assert res.hit_count == len(T)
        assert res.coverage_fraction == 1


def test_budget_exhaustion_reported():
    res = search_bc(CoverQuery(A=ScalarSet([1, -1]), min_factor_size=1, search_budget=3))
    assert not res.exhaustive
    assert res.hit_count >= 1


def test_heuristic_tier_known_instance():
    A = ScalarSet([2, 3, 7, 11, 19])
    T = shift(productset(A, A), 1)
    assert len(_universe(T)) == 220
    res = search_bc(CoverQuery(A=A, min_factor_size=2))
    assert not res.exhaustive
    assert res.hit_count == 4
    assert res.coverage_fraction == Fraction(4, 15)
    assert res.best_B.sorted() == [1, Fraction(39, 5)]
    assert res.best_C.sorted() == [5, 10]
    products = {b * c for b in res.best_B for c in res.best_C}
    assert len(products & T.elems) == 4


def test_heuristic_factors_stay_inside_claim(rng):
    # every reported pair must reproduce its own hit count
    for _ in range(5):
        A = make_int_set(rng, 4, hi=30)
        res = search_bc(CoverQuery(A=A, min_factor_size=2))
        T = shift(productset(A, A), 1)
        assert _hit(res.best_B, res.best_C, T.elems) == res.hit_count


def test_field_mode_scan():
    F5 = PrimeField(5)
    A = ScalarSet([F5(1), F5(4)])
    rows = conjecture_scan([("f", A)], min_factor_size=1)
    row = rows[0]
    assert row.a_size == 2
    assert row.aa1_size == 2
    assert row.hit_count == 2
    assert row.coverage_fraction == 1
    assert row.exhaustive
    assert row.tension_flag


def test_structured_instance_flags_tension():
    rows = conjecture_scan([("a", ScalarSet([1, 3]))], min_factor_size=2)
    row = rows[0]
    assert row.aa1_size == 3
    assert row.b_size == 2
    assert row.c_size == 2
    assert row.hit_count == 3
    assert row.coverage_fraction == 1
    assert row.tension_flag


def test_scan_csv_layout(capsys):
    rows = conjecture_scan([("a", ScalarSet([1, 3]))], min_factor_size=2)
    assert ScanRow(*("a", 2, 3, 2, 2, 3, Fraction(1), True, True)) == rows[0]
    # the same A = {1, 3} through the command line, as CSV
    assert main(["conjecture-scan", "--family", "arithmetic", "--count", "1",
                 "--start", "1", "--step", "2", "--length", "2"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == ",".join(f.name for f in dataclasses.fields(ScanRow))
    assert row == "arithmetic-000,2,3,2,2,3,1,true,true"


def test_scan_determinism(rng):
    instances = [(f"i{k}", make_int_set(rng, 3, hi=25)) for k in range(3)]
    first = conjecture_scan(instances, min_factor_size=2)
    second = conjecture_scan(instances, min_factor_size=2)
    assert first == second
