import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_int_set
from reference import _div, _hit
from shiftprod import explorer
from shiftprod.cli import main
from shiftprod.explorer import (
    EXHAUSTIVE_CUTOFF_CAP,
    CoverQuery,
    ScanRow,
    conjecture_scan,
    search_bc,
)
from shiftprod.explorer import _universe
from shiftprod.numeric import PrimeField, PrimeFieldElement, scalar_is_zero, sort_key
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


# The two tiers as they were written before the search shared one T and
# skipped the universe above the cutoff: nested loops with a stop flag and
# two size filters, and a heuristic that took U without reading it.  They
# are the reference for the search as it stands; the exact tier spends no
# budget, so its reference runs to completion.
def ref_search_exhaustive(U, Tset, m, budget):
    n = len(U)
    subsets = [tuple(U[i] for i in range(n) if mask >> i & 1)
               for mask in range(1 << n)]
    best_hit = -1
    best = (ScalarSet(), ScalarSet())
    evals = 0
    complete = True
    full = subsets[-1]
    for bmask in range(1, 1 << n):
        B = subsets[bmask]
        if len(B) < m:
            continue
        if _hit(B, full, Tset) <= best_hit:
            continue
        stop = False
        for cmask in range(1, 1 << n):
            C = subsets[cmask]
            if len(C) < m:
                continue
            evals += 1
            if evals > budget:
                complete = False
                stop = True
                break
            h = _hit(B, C, Tset)
            if h > best_hit:
                best_hit = h
                best = (ScalarSet(B), ScalarSet(C))
        if stop:
            break
    if best_hit < 0:
        return ScalarSet(), ScalarSet(), 0, complete
    return best[0], best[1], best_hit, complete


def ref_search_heuristic(T, U, m, budget):
    Tset = T.elems
    pivots = [t for t in T.sorted() if not scalar_is_zero(t)]
    quotients = {t: frozenset(_div(s, t) for s in T) for t in pivots}
    best_hit = -1
    best = (ScalarSet(), ScalarSet())
    evals = 0
    for S in itertools.combinations(pivots, m):
        B = quotients[S[0]]
        for t in S[1:]:
            B = B & quotients[t]
        if len(B) < m:
            continue
        evals += 1
        if evals > budget:
            break
        h = _hit(B, S, Tset)
        if h > best_hit:
            best_hit = h
            best = (ScalarSet(B), ScalarSet(S))
    if best_hit < 0:
        return ScalarSet(), ScalarSet(), 0
    return best[0], best[1], best_hit


def ref_search_bc(A, m, budget, cutoff):
    T = shift(productset(A, A), 1)
    U = _universe(T)
    if len(U) <= cutoff:
        return ref_search_exhaustive(U, T.elems, m, float("inf"))
    return (*ref_search_heuristic(T, U, m, budget), False)


@st.composite
def _cover_queries(draw):
    kind = draw(st.sampled_from(["int", "fraction", 5, 7, 11, 13]))
    if kind == "int":
        elem = st.integers(-6, 9)
    elif kind == "fraction":
        elem = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        elem = st.integers(0, kind - 1).map(PrimeField(kind))
    A = ScalarSet(draw(st.lists(elem, min_size=1, max_size=7)))
    return CoverQuery(A=A, min_factor_size=draw(st.integers(1, 3)),
                      search_budget=draw(st.sampled_from([1, 2, 7, 60, 900, 4000])),
                      exhaustive_cutoff=draw(st.integers(1, 10)))


@settings(max_examples=150)
@given(_cover_queries())
def test_search_matches_reference_tiers(query):
    res = search_bc(query)
    expected = ref_search_bc(query.A, query.min_factor_size,
                             query.search_budget, query.exhaustive_cutoff)
    assert (res.best_B, res.best_C, res.hit_count, res.exhaustive) == expected
    T = shift(productset(query.A, query.A), 1)
    assert res.coverage_fraction == Fraction(res.hit_count, len(T))


@settings(max_examples=60)
@given(_cover_queries())
def test_universe_matches_element_quotients(query):
    # the universe from int keys is the one from element quotients
    T = query.T
    U = set(T.elems)
    U.update(_div(s, t) for t in T if not scalar_is_zero(t) for s in T)
    assert _universe(T) == sorted(U, key=sort_key)


def test_universe_not_built_above_cutoff(monkeypatch):
    def refuse(T):
        raise AssertionError("universe built")

    monkeypatch.setattr(explorer, "_universe", refuse)
    A = ScalarSet([2, 3, 7, 11, 19])
    # |T| = 15 is above the cutoff, so U cannot be within it
    res = search_bc(CoverQuery(A=A, min_factor_size=2, exhaustive_cutoff=12))
    assert (res.hit_count, res.exhaustive) == (4, False)


def test_scan_builds_one_target_per_instance(monkeypatch):
    calls = []

    def counted(A, B):
        calls.append((A, B))
        return productset(A, B)

    monkeypatch.setattr(explorer, "productset", counted)
    instances = [("a", ScalarSet([1, 3])), ("b", ScalarSet([2, 3, 7, 11, 19])),
                 ("c", ScalarSet([PrimeField(5)(1), PrimeField(5)(4)]))]
    rows = conjecture_scan(instances, min_factor_size=1)
    assert len(calls) == len(instances)
    assert [r.aa1_size for r in rows] == [3, 15, 2]


def test_exhaustive_cutoff_cap(capsys, monkeypatch):
    A = ScalarSet([1, 2, 4])
    CoverQuery(A=A, exhaustive_cutoff=EXHAUSTIVE_CUTOFF_CAP)
    with pytest.raises(ValueError, match="exhaustive_cutoff"):
        CoverQuery(A=A, exhaustive_cutoff=EXHAUSTIVE_CUTOFF_CAP + 1)

    def refuse(*_):
        raise AssertionError("search ran")

    monkeypatch.setattr(explorer, "_universe", refuse)
    # A = {1, 2, 4} has |U| = 25: a cutoff of 25 would list 2**25 subsets
    code = main(["conjecture-scan", "--family", "geometric", "--count", "1",
                 "--base", "2", "--length", "3", "--exhaustive-cutoff", "25"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: exhaustive_cutoff must lie in "
                            f"[1, {EXHAUSTIVE_CUTOFF_CAP}]\n")


def test_scan_knobs_reach_query(monkeypatch, tmp_path):
    queries = []
    search = explorer.search_bc
    monkeypatch.setattr(explorer, "search_bc",
                        lambda query: queries.append(query) or search(query))
    argv = ["conjecture-scan", "--family", "arithmetic", "--count", "1",
            "--length", "2", "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 0
    assert queries[-1] == CoverQuery(A=ScalarSet([1, 2]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"budget": 5, "exhaustive_cutoff": 3}')
    assert main(argv + ["--config", str(cfg), "--min-factor-size", "1"]) == 0
    assert queries[-1] == CoverQuery(A=ScalarSet([1, 2]), min_factor_size=1,
                                     search_budget=5, exhaustive_cutoff=3)


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


def test_budget_leaves_exact_tier_whole():
    A = ScalarSet([1, -1])
    T = shift(productset(A, A), 1)
    res = search_bc(CoverQuery(A=A, min_factor_size=1, search_budget=1))
    assert res.exhaustive
    assert res.hit_count == brute_best_hit(_universe(T), T.elems, 1) == 2


@pytest.mark.parametrize("elems", [[1, 3], [2, 5]])
def test_exact_tier_hit_counts(monkeypatch, elems):
    A = ScalarSet(elems)
    T = shift(productset(A, A), 1)
    n = len(_universe(T))
    scans = []
    first_cover = explorer._first_cover

    def counted(rows, top, m):
        mask = first_cover(rows, top, m)
        # a first-match scan walks the masks 1, 2, ... up to its answer
        scans.append((len(rows), mask))
        return mask

    monkeypatch.setattr(explorer, "_first_cover", counted)
    res = search_bc(CoverQuery(A=A, min_factor_size=2))
    assert res.exhaustive
    # one scan for B, one for C, each over the n rows of U
    assert [size for size, _ in scans] == [n, n]
    assert all(mask is not None and mask.bit_count() >= 2 for _, mask in scans)
    # hit(U, U), then two first-match scans of at most 2^n - 1 masks each
    assert 1 + sum(mask for _, mask in scans) <= 2 * (2 ** n - 1) + 1
    assert min(len(res.best_B), len(res.best_C)) >= 2
    assert _hit(res.best_B, res.best_C, T.elems) == res.hit_count


def test_exact_tier_product_count(monkeypatch):
    # the universe build plus one product table: no product per subset
    F = PrimeField(17)
    A = ScalarSet([F(1), F(2), F(3)])
    T = shift(productset(A, A), 1)
    n = len(_universe(T))
    assert n == EXHAUSTIVE_CUTOFF_CAP
    calls = []
    mul = PrimeFieldElement.__mul__

    def counted(x, y):
        calls.append(None)
        return mul(x, y)

    monkeypatch.setattr(PrimeFieldElement, "__mul__", counted)
    res = search_bc(CoverQuery(A=A, min_factor_size=2,
                               exhaustive_cutoff=EXHAUSTIVE_CUTOFF_CAP))
    assert res.exhaustive
    assert len(calls) <= len(T) ** 2 + n ** 2


@pytest.mark.parametrize("m, B, C", [
    (1, [1], [2, 3, 4, 5, 7, 10]),
    (2, [1, 2], [2, 3, 5, 7]),
    (4, [1, 2, 3, 4], [1, 2, 5, 6]),
])
def test_exact_tier_at_cutoff_cap(m, B, C):
    # |U| = 16: the pairs the double loop keeps, found by the two scans
    F = PrimeField(17)
    A = ScalarSet([F(1), F(2), F(3)])
    res = search_bc(CoverQuery(A=A, min_factor_size=m,
                               exhaustive_cutoff=EXHAUSTIVE_CUTOFF_CAP))
    assert res.best_B == ScalarSet(map(F, B))
    assert res.best_C == ScalarSet(map(F, C))
    assert (res.hit_count, res.exhaustive) == (6, True)


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


def test_heuristic_pivots_of_both_signs():
    # T = {-2, 2, 10}: only the pivots -2 and 2 share two quotients, 1 and
    # -1, each keyed once whatever the sign of the pivot
    A = ScalarSet([-1, 3])
    res = search_bc(CoverQuery(A=A, min_factor_size=2, exhaustive_cutoff=1))
    assert not res.exhaustive
    assert res.best_B == ScalarSet([-1, 1])
    assert res.best_C == ScalarSet([-2, 2])
    assert res.hit_count == 2


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
