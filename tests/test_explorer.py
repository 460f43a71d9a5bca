import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_int_set
from reference import _quotients, ref_cover_maximal, ref_cover_pairs
from shiftprod import explorer
from shiftprod.cli import main
from shiftprod.explorer import (
    CoverQuery,
    ScanRow,
    _key_set,
    _quotient_keys,
    conjecture_scan,
    search_bc,
)
from shiftprod.numeric import PrimeField, PrimeFieldElement, sort_key
from shiftprod.setalg import ScalarSet, productset, shift


def _check_pair(res, T, m):
    """B*C lies inside T, and a pair with hits has both factors of size at
    least m and reports |B*C| hits; no pair means empty factors."""
    products = {b * c for b in res.best_B for c in res.best_C}
    assert products <= T.elems
    assert res.hit_count == len(products)
    assert res.coverage_fraction == Fraction(res.hit_count, len(T))
    if res.hit_count:
        assert min(len(res.best_B), len(res.best_C)) >= m
    else:
        assert (len(res.best_B), len(res.best_C)) == (0, 0)


def _universe(T):
    """The quotients T/T from the int keys, sorted."""
    _, rows = _quotient_keys(T)
    return _key_set({k for row in rows if row for k in row}, T.domain).sorted()


# |A| <= 4 keeps |T| <= 10, within reach of the maximal-C oracle
@st.composite
def _cover_queries(draw):
    kind = draw(st.sampled_from(["int", "fraction", 5, 7, 11, 13]))
    if kind == "int":
        elem = st.integers(-6, 9)
    elif kind == "fraction":
        elem = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        elem = st.integers(0, kind - 1).map(PrimeField(kind))
    A = ScalarSet(draw(st.lists(elem, min_size=1, max_size=4)))
    return CoverQuery(A=A, min_factor_size=draw(st.integers(1, 3)),
                      search_budget=draw(st.sampled_from([1, 2, 7, 60, 900, 4000])))


@settings(max_examples=150, deadline=None)
@given(_cover_queries())
def test_search_matches_oracle(query):
    res = search_bc(query)
    T = shift(productset(query.A, query.A), 1)
    assert len(T) <= 10
    _check_pair(res, T, query.min_factor_size)
    best = ref_cover_maximal(T.elems, query.min_factor_size)
    assert res.hit_count == best if res.exhaustive else res.hit_count <= best


@settings(max_examples=60)
@given(_cover_queries())
def test_universe_matches_element_quotients(query):
    # the quotients from int keys are the ones from element quotients
    T = query.T
    assert _universe(T) == sorted(_quotients(T.elems), key=sort_key)


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


def test_exhaustive_cutoff_cap(capsys):
    # the cutoff is retired: no query field, and the flag is unknown
    with pytest.raises(TypeError):
        CoverQuery(A=ScalarSet([1, 2, 4]), exhaustive_cutoff=3)
    code = main(["conjecture-scan", "--family", "geometric", "--count", "1",
                 "--exhaustive-cutoff", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --exhaustive-cutoff 3" in captured.err


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
                                     search_budget=5)


def test_retired_cutoff_config_key_is_ignored(capsys, tmp_path):
    # like any unknown key, "exhaustive_cutoff" leaves the run as it was
    argv = ["conjecture-scan", "--family", "arithmetic", "--count", "3",
            "--length", "3"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"exhaustive_cutoff": 3}')
    assert main(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr() == plain


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
    assert _universe(T) == [Fraction(-5, 3), Fraction(-3, 5), 1]


def test_universe_skips_zero_quotients():
    # 0 is a quotient 0/t, never a divisor: its row is None
    A = ScalarSet([1, -1])
    T = shift(productset(A, A), 1)
    assert T.sorted() == [0, 2]
    assert _quotient_keys(T) == ([0, 2], [None, [(0, 1), (1, 1)]])
    assert _universe(T) == [0, 1]


# |T| <= 4, within reach of the double loop over both subset families
TINY = ([1, -1], [2, -2], [-3, 3], [3], [6, -6], [1, 2], [2, Fraction(-1, 2)],
        [0, 1, 2], [PrimeField(5)(1), PrimeField(5)(4)],
        [PrimeField(7)(2), PrimeField(7)(3)])


def test_exhaustive_matches_brute_oracle():
    for elems in TINY:
        A = ScalarSet(elems)
        T = shift(productset(A, A), 1)
        assert len(T) <= 4
        for m in (1, 2, 3):
            res = search_bc(CoverQuery(A=A, min_factor_size=m))
            assert res.exhaustive
            _check_pair(res, T, m)
            assert (res.hit_count == ref_cover_pairs(T.elems, m)
                    == ref_cover_maximal(T.elems, m))


def test_zero_pivot_holds_every_quotient():
    # -1 in AA puts 0 in T, and 0 may lie in either factor
    A = ScalarSet([1, -1])
    T = shift(productset(A, A), 1)
    res = search_bc(CoverQuery(A=A, min_factor_size=2))
    assert res.best_B == ScalarSet([0, 1])
    assert res.best_C == ScalarSet([0, 2])
    assert (res.hit_count, res.exhaustive) == (2, True)
    assert res.hit_count == ref_cover_pairs(T.elems, 2) == len(T)
    [row] = conjecture_scan([("z", A)], min_factor_size=2)
    assert row.tension_flag


def test_single_factor_cover_is_always_full():
    # with one pivot allowed, B = T/t hits every element of T
    for elems in ([1, 3], [2, 3, 7, 11, 19], [5, 9, 13]):
        A = ScalarSet(elems)
        T = shift(productset(A, A), 1)
        res = search_bc(CoverQuery(A=A, min_factor_size=1))
        assert res.hit_count == len(T)
        assert res.coverage_fraction == 1


def test_budget_counts_walk_nodes():
    # T = {0, 2}: the walk visits {0}, which hits 1, then {0, 2}, which
    # hits all of T and stops it
    A = ScalarSet([1, -1])
    res = search_bc(CoverQuery(A=A, min_factor_size=1, search_budget=1))
    assert (res.hit_count, res.exhaustive) == (1, False)
    assert (res.best_B, res.best_C) == (ScalarSet([0, 1]), ScalarSet([0]))
    res = search_bc(CoverQuery(A=A, min_factor_size=1, search_budget=2))
    assert (res.hit_count, res.exhaustive) == (2, True)
    # exact from a budget of 137 on: the nodes the pruned walk visits
    A = ScalarSet(range(1, 9))
    exact = [search_bc(CoverQuery(A=A, min_factor_size=2, search_budget=b))
             for b in range(1, 200)]
    flags = [res.exhaustive for res in exact]
    assert flags == [False] * 136 + [True] * 63
    assert len({(r.best_B, r.best_C, r.hit_count) for r in exact[136:]}) == 1


@pytest.mark.parametrize("elems", [[1, 3], [2, 5], [1, 2]])
def test_exact_tier_hit_counts(elems):
    # |A| = 2 and m = 2: no product of two pairs fits in the three
    # elements of T, so the row reports no pair rather than a cover
    A = ScalarSet(elems)
    T = shift(productset(A, A), 1)
    res = search_bc(CoverQuery(A=A, min_factor_size=2))
    assert res.exhaustive
    assert res.hit_count == ref_cover_maximal(T.elems, 2) == 0
    _check_pair(res, T, 2)
    [row] = conjecture_scan([("a", A)], min_factor_size=2)
    assert (row.coverage_fraction, row.tension_flag) == (0, False)


def test_exact_tier_product_count(monkeypatch):
    # the search runs on int keys: it multiplies no field elements
    F = PrimeField(17)
    A = ScalarSet([F(1), F(2), F(3)])
    query = CoverQuery(A=A, min_factor_size=2)
    query.T
    calls = []
    mul = PrimeFieldElement.__mul__

    def counted(x, y):
        calls.append(None)
        return mul(x, y)

    monkeypatch.setattr(PrimeFieldElement, "__mul__", counted)
    res = search_bc(query)
    assert res.exhaustive
    assert calls == []


# F_17, A = {1, 2, 3}: T and its quotients fill 16 of the 17 residues
@pytest.mark.parametrize("m, B, C", [
    (1, [1, 2, 5, 10, 11, 12], [2]),
    (2, [1, 5, 11], [2, 4]),
    (4, [], []),
])
def test_exact_tier_at_cutoff_cap(m, B, C):
    F = PrimeField(17)
    A = ScalarSet([F(1), F(2), F(3)])
    T = shift(productset(A, A), 1)
    res = search_bc(CoverQuery(A=A, min_factor_size=m))
    assert res.best_B == ScalarSet(map(F, B))
    assert res.best_C == ScalarSet(map(F, C))
    assert res.exhaustive
    _check_pair(res, T, m)
    assert res.hit_count == ref_cover_maximal(T.elems, m)


def test_heuristic_tier_known_instance():
    A = ScalarSet([2, 3, 7, 11, 19])
    T = shift(productset(A, A), 1)
    res = search_bc(CoverQuery(A=A, min_factor_size=2))
    assert res.exhaustive
    assert res.hit_count == 4
    assert res.coverage_fraction == Fraction(4, 15)
    assert res.best_B.sorted() == [1, Fraction(39, 5)]
    assert res.best_C.sorted() == [5, 10]
    _check_pair(res, T, 2)


def test_heuristic_pivots_of_both_signs():
    # T = {-2, 2, 10}: only the pivots -2 and 2 share two quotients, 1 and
    # -1, each keyed once whatever the sign of the pivot
    A = ScalarSet([-1, 3])
    res = search_bc(CoverQuery(A=A, min_factor_size=2))
    assert res.exhaustive
    assert res.best_B == ScalarSet([-1, 1])
    assert res.best_C == ScalarSet([-2, 2])
    assert res.hit_count == 2


def test_heuristic_factors_stay_inside_claim(rng):
    # larger sets, past the oracles' reach, and a budget that cuts the walk
    for size in (4, 5, 6, 7):
        A = make_int_set(rng, size, hi=30)
        T = shift(productset(A, A), 1)
        for budget in (3, 200_000):
            res = search_bc(CoverQuery(A=A, min_factor_size=2, search_budget=budget))
            _check_pair(res, T, 2)


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
    # F_7, A = {1, 2, 5}: T = {2, ..., 6} = {1, 2, 3, 6} * {2, 3}
    F = PrimeField(7)
    rows = conjecture_scan([("a", ScalarSet(map(F, [1, 2, 5])))], min_factor_size=2)
    row = rows[0]
    assert row.aa1_size == 5
    assert row.b_size == 4
    assert row.c_size == 2
    assert row.hit_count == 5
    assert row.coverage_fraction == 1
    assert row.tension_flag


def test_scan_csv_layout(capsys):
    rows = conjecture_scan([("a", ScalarSet([1, 3]))], min_factor_size=2)
    assert ScanRow(*("a", 2, 3, 0, 0, 0, Fraction(0), True, False)) == rows[0]
    # the same A = {1, 3} through the command line, as CSV
    assert main(["conjecture-scan", "--family", "arithmetic", "--count", "1",
                 "--start", "1", "--step", "2", "--length", "2"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == ",".join(f.name for f in dataclasses.fields(ScanRow))
    assert row == "arithmetic-000,2,3,0,0,0,0,true,false"


def test_scan_determinism(rng):
    instances = [(f"i{k}", make_int_set(rng, 3, hi=25)) for k in range(3)]
    first = conjecture_scan(instances, min_factor_size=2)
    second = conjecture_scan(instances, min_factor_size=2)
    assert first == second
