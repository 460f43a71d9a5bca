import dataclasses
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import make_int_set
from reference import (
    _quotients,
    ref_cover_maximal,
    ref_cover_pairs,
    ref_quotient_bits,
    ref_quotient_keys,
)
from shiftprod import explorer
from shiftprod.cli import main
from shiftprod.explorer import (
    CoverQuery,
    CoverResult,
    ScanRow,
    P,
    _key,
    _key_base,
    _key_set,
    _quotient_bits,
    _search_exhaustive,
    conjecture_scan,
    search_bc,
)
from shiftprod.numeric import PrimeField, PrimeFieldElement, is_prime
from shiftprod.setalg import PAIR_CAP, ScalarSet, productset, shift


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


def _quotients_from_keys(T):
    """The quotients T/T from the int keys, sorted."""
    ts, R = _key_base(T)
    keys = {_key(s, t, R, T.domain) for t in ts if t for s in ts}
    return _key_set(keys, R, T.domain).sorted()


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
def test_quotient_keys_match_element_quotients(query):
    # the quotients from int keys are the ones the oracle divides out
    T = query.T
    assert _quotients_from_keys(T) == ScalarSet(_quotients(T.elems)).sorted()


# the key base R = max|t| + 1 at which R * R passes 2**63 is EDGE + 1
EDGE = isqrt(2 ** 63)


@st.composite
def _targets(draw):
    """Sets T over Q, on a lattice with a denominator, with negative items
    and 0 among them, or over F_q, with q on either side of P; or integer
    sets whose largest |t| puts the key base R = max|t| + 1 on either side
    of EDGE or far past it; or integer sets whose items differ by P, so
    that distinct quotients share a key mod P, with +-P among them, which
    has no inverse mod P."""
    kind = draw(st.sampled_from(["fraction", "edge", "collide",
                                 2, 3, 13, 2 ** 31 - 1, P, 4294967291]))
    if kind == "fraction":
        elem = st.fractions(min_value=-40, max_value=40, max_denominator=12)
    elif kind == "edge":
        elem = st.one_of(st.integers(-9, 9),
                         st.sampled_from([EDGE - 2, 1 - EDGE, EDGE, -EDGE]),
                         st.integers(-10 ** 13, 10 ** 13))
    elif kind == "collide":
        elem = st.one_of(st.integers(-6, 6),
                         st.builds(lambda x, sign: sign * (x + P),
                                   st.integers(-5, 5),
                                   st.sampled_from([1, -1])))
    else:
        elem = st.one_of(st.integers(0, 9), st.integers(0, kind - 1),
                         st.integers(max(0, kind - 9), kind - 1)).map(PrimeField(kind))
    return ScalarSet(draw(st.lists(elem, min_size=1, max_size=12)))


@settings(max_examples=200, deadline=None)
@given(_targets())
def test_quotient_key_rows_decode_to_quotients(T):
    # the key of ts[i] / ts[j] is the reduced p/r with r > 0 as p*R + r
    # over Q, ts[i] * ts[j]^-1 mod q over F_q; it is the oracle's
    # rows[j][i], and the pivot 0 has no row
    ts, R = _key_base(T)
    rows = ref_quotient_keys(ts, R, T.domain)
    assert ts == sorted(T.lat[0]) and len(rows) == len(ts)
    for t, row in zip(ts, rows):
        if t == 0:
            assert row is None
            continue
        assert row == [_key(s, t, R, T.domain) for s in ts]
        for s, k in zip(ts, row):
            if T.domain == "Q":
                p, r = divmod(k, R)
                assert 0 < r < R and gcd(p, r) == 1
                assert Fraction(p, r) == Fraction(s, t)
            else:
                assert R == T.domain and k == s * pow(t, -1, R) % R


def _assert_bits_match_oracle(ts, R, domain, need):
    """``_quotient_bits`` keeps the oracle's quotients on the same bits,
    ``_key`` gives the oracle's key of each bit's first entry, and the
    images are the oracle's, or None exactly when fewer than
    m = need + [0 in ts] quotients are kept."""
    first, images = _quotient_bits(ts, R, domain, need)
    ref_first, ref_images = ref_quotient_bits(ts, R, domain, need)
    assert first.tolist() == ref_first
    assert (images is None) == (len(ref_first) < need + (0 in ts))
    assert images is None or images == ref_images
    rows, n = ref_quotient_keys(ts, R, domain), len(ts)
    for a in first.tolist():
        assert _key(ts[a % n], ts[a // n], R, domain) == rows[a // n][a % n]
    return first, images


@settings(max_examples=200, deadline=None)
@given(_targets(), st.integers(1, 4))
def test_int64_route_matches_python_route(T, m):
    # the int64 hash and its split keep the quotients of the Python-int
    # oracle, any R and q, on the same bits with the same images, and the
    # search returns what it returns on the oracle's bits, which never
    # answer early: the same pair, hit and exhaustive flag at every budget
    ts, R = _key_base(T)
    _assert_bits_match_oracle(ts, R, T.domain, m - (0 in ts))
    budgets = (1, 2, 3, CoverQuery.search_budget)
    found = [_search_exhaustive(T, m, b) for b in budgets]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer, "_quotient_bits", ref_quotient_bits)
        assert found == [_search_exhaustive(T, m, b) for b in budgets]


F_EDGE, F_PAST = PrimeField(3037000493), PrimeField(4294967291)


@pytest.mark.parametrize("T", [
    ScalarSet([1 - EDGE, -6, 0, 2, 3, EDGE - 2]),    # R = EDGE
    ScalarSet([-EDGE, -6, 0, 2, 3, EDGE - 2]),       # R = EDGE + 1
    ScalarSet([Fraction(EDGE - 2, 3), Fraction(-1, 3), 2]),
    ScalarSet(map(F_EDGE, [0, 1, 2, 3, 6, 3037000492])),   # q = P
    ScalarSet(map(F_PAST, [0, 1, 2, 3, 6, 4294967290])),   # q > P
])
def test_keys_near_the_int64_bound(T):
    # keys near +-EDGE**2, and over F_q on either side of P, give the
    # oracle's bits and the search on the oracle's bits
    ts, R = _key_base(T)
    for m in (1, 2):
        _assert_bits_match_oracle(ts, R, T.domain, m - (0 in ts))
        found = _search_exhaustive(T, m, 5000)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(explorer, "_quotient_bits", ref_quotient_bits)
            assert found == _search_exhaustive(T, m, 5000)
        _check_pair(CoverResult(*found[:3], Fraction(found[2], len(T)), found[3]),
                    T, m)


def test_hash_prime_is_the_largest_whose_square_fits_int64():
    assert is_prime(P) and P * P <= 2 ** 63
    assert not any(map(is_prime, range(P + 1, EDGE + 1)))


def _spy_split(monkeypatch):
    """The number of entries of each split of runs by exact key."""
    split, real = [], explorer._split
    monkeypatch.setattr(explorer, "_split", lambda at, *a:
                        split.append(len(at)) or real(at, *a))
    return split


def test_recount_drops_quotients_that_share_a_key_mod_p(monkeypatch):
    # 2/1 and (2 + P)/1 share the key 2 mod P, and 1/2 and 1/(2 + P) the
    # key of 1/2: at need 2 their runs can hold two quotients, though each
    # lies in one row; the split keeps only 1, which lies in all three
    # rows, and one quotient is no B of two, so no images are built
    T = ScalarSet([1, 2, 2 + P])
    ts, R = _key_base(T)
    split = _spy_split(monkeypatch)
    first, images = _assert_bits_match_oracle(ts, R, T.domain, 2)
    assert split == [9]
    assert first.tolist() == [0] and images is None
    keys = [_key(ts[a % 3], ts[a // 3], R, T.domain) for a in first.tolist()]
    assert _key_set(keys, R, T.domain).sorted() == [1]
    # at need 1 every quotient is kept, and the split keeps 2 and (2 + P)
    # on bits of their own, with the oracle's images
    first, images = _assert_bits_match_oracle(ts, R, T.domain, 1)
    assert len(first) == 7 and images is not None


@pytest.mark.parametrize("T, recount", [
    (ScalarSet([1, 2, 3, 38967]), False),     # R = 38968, 2 * 38967**2 < P
    (ScalarSet([-38968, 1, 2, 3]), True),     # R = 38969, 2 * 38968**2 > P
    (ScalarSet([-P, 1, 2, 2 + P]), True),     # +-P steps the prime down
    (ScalarSet(map(F_EDGE, [1, 2, 3, 3037000492])), False),  # M = q, exact
])
def test_keys_mod_p_are_exact_below_the_bound(T, recount, monkeypatch):
    # the hash alone gives the bits while distinct quotients of items below
    # R differ mod M; past that its runs are split by exact key
    ts, R = _key_base(T)
    split = _spy_split(monkeypatch)
    for m in (2, 3):
        _assert_bits_match_oracle(ts, R, T.domain, m)
        assert bool(split) == recount
    # need 1 keeps every entry, but splits only the runs of two or more:
    # a single entry is one quotient, and the len(ts) entries of 1 are one
    # run, so fewer than all entries are keyed exactly
    split.clear()
    _assert_bits_match_oracle(ts, R, T.domain, 1)
    assert bool(split) == recount
    assert all(len(ts) <= k < len(ts) ** 2 for k in split)


@st.composite
def _product_targets(draw):
    """Sets T of at most 10 items holding a product B*C with noise, over
    Q with negatives and 0 among the items, or over F_q."""
    kind = draw(st.sampled_from(["int", "fraction", 5, 11, 101]))
    if kind == "int":
        elem = st.integers(-5, 5)
    elif kind == "fraction":
        elem = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        elem = st.integers(0, kind - 1).map(PrimeField(kind))
    B, C, noise = (draw(st.lists(elem, min_size=lo, max_size=3))
                   for lo in (1, 1, 0))
    T = ScalarSet([b * c for b in B for c in C] + noise)
    assume(len(T) <= 10)
    return T


@settings(max_examples=200, deadline=None)
@given(_product_targets(), st.integers(1, 4))
def test_a_pair_keeps_at_least_m_quotients(T, m):
    # each b of a pair's B lies in m - [0 in T] nonzero rows, so a pair
    # keeps |B| >= m quotients; with fewer the search answers no pair,
    # exactly, whatever the budget
    ts, R = _key_base(T)
    first, images = _quotient_bits(ts, R, T.domain, m - (0 in ts))
    assert (images is None) == (len(first) < m)
    if ref_cover_maximal(T.elems, m) > 0:
        assert len(first) >= m
    if images is None:
        assert _search_exhaustive(T, m, 1) == (ScalarSet(), ScalarSet(), 0, True)


def test_scan_over_f_q_past_p_matches_oracle_bits(capsys, monkeypatch):
    # q > P: each entry is hashed as its exact key mod P, and the runs that
    # can hold two quotients are split; the row is the one the search
    # gives on the oracle's bits
    q = 3037004501
    assert q > P and is_prime(q)
    argv = ["conjecture-scan", "--family", "subgroup", "--q", str(q),
            "--t", "500", "--min-factor-size", "2"]
    split = _spy_split(monkeypatch)
    assert main(argv) == 0
    row = capsys.readouterr().out
    assert split and row.splitlines()[1].split(",")[1:3] == ["500", "500"]
    monkeypatch.setattr(explorer, "_quotient_bits", ref_quotient_bits)
    assert main(argv) == 0
    assert capsys.readouterr().out == row


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


def test_retired_cutoff_option_is_unknown(capsys):
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


def _refuse_keys(monkeypatch):
    """Make the quotient keys fail the test if they are built."""
    def refuse(*args):
        raise AssertionError("quotient keys built")

    monkeypatch.setattr(explorer, "_quotient_bits", refuse)


def test_cover_search_refused_above_pair_cap(monkeypatch):
    # the products of two of the first 80 primes are distinct: |T| = 80 * 81 / 2
    primes = [p for p in range(2, 420) if is_prime(p)][:80]
    query = CoverQuery(A=ScalarSet(primes))
    assert len(query.T) == 3240 and 3240 ** 2 > PAIR_CAP
    _refuse_keys(monkeypatch)
    with pytest.raises(ValueError, match=f"cover search needs {3240 ** 2} pair "
                                         f"evaluations, above the cap {PAIR_CAP}"):
        search_bc(query)


def test_cover_search_refusal_exits_2(capsys, monkeypatch):
    # items up to about 10**12, past the bound where keys mod P are exact
    _refuse_keys(monkeypatch)
    code = main(["conjecture-scan", "--family", "random-integer", "--count", "1",
                 "--size-min", "80", "--size-max", "80", "--hi", "1000000",
                 "--seed", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: cover search needs ")
    assert captured.err.endswith(f" pair evaluations, above the cap {PAIR_CAP}\n")


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


def test_quotient_keys_known():
    A = ScalarSet([2, -2])
    T = shift(productset(A, A), 1)
    assert T.sorted() == [-3, 5]
    assert _quotients_from_keys(T) == [Fraction(-5, 3), Fraction(-3, 5), 1]


def test_quotient_keys_give_zero_no_row():
    # 0 is a quotient 0/t, never a divisor: its row is None
    A = ScalarSet([1, -1])
    T = shift(productset(A, A), 1)
    assert T.sorted() == [0, 2]
    # R = 3: 0/2 = 0/1 is keyed 0*3 + 1, and 2/2 = 1/1 is keyed 1*3 + 1
    assert _key_base(T) == ([0, 2], 3)
    assert [_key(s, 2, 3, T.domain) for s in (0, 2)] == [1, 4]
    assert ref_quotient_keys([0, 2], 3, T.domain) == [None, [1, 4]]
    assert _quotients_from_keys(T) == [0, 1]


# |T| <= 4, within reach of the double loop over both subset families
TINY = ([1, -1], [2, -2], [-3, 3], [3], [6, -6], [1, 2], [2, Fraction(-1, 2)],
        [0, 1, 2], [PrimeField(5)(1), PrimeField(5)(4)],
        [PrimeField(7)(2), PrimeField(7)(3)])


def test_exhaustive_matches_brute_oracle():
    for elems in TINY:
        A = ScalarSet(elems)
        T = shift(productset(A, A), 1)
        assert len(T) <= 4
        brute = ref_cover_pairs(T.elems, (1, 2, 3))
        for m in (1, 2, 3):
            res = search_bc(CoverQuery(A=A, min_factor_size=m))
            assert res.exhaustive
            _check_pair(res, T, m)
            assert res.hit_count == brute[m] == ref_cover_maximal(T.elems, m)


F5, F13, F17 = PrimeField(5), PrimeField(13), PrimeField(17)


# a quotient takes a bit once it lies in m rows, counting the pivot 0 as a
# row of every quotient; at m = 1, or at m = 2 with 0 in T, all take bits
@pytest.mark.parametrize("elems, m", [
    ([2, 3, 7], 1),
    ([Fraction(1, 2), -3, 5, 6], 1),
    ([F13(2), F13(3), F13(7)], 1),
    ([1, -1], 1),
    ([1, -1], 2),
    ([1, -1, 2], 2),
    ([2, Fraction(-1, 2), 3], 2),
    ([Fraction(1, 3), -3, 2, Fraction(-1, 2)], 2),
    ([F5(2), F5(3)], 2),
    ([F13(5), F13(1), F13(2)], 2),
    ([F17(4), F17(3), F17(7), F17(13)], 2),
])
def test_search_with_every_quotient_on_a_bit(elems, m):
    A = ScalarSet(elems)
    T = shift(productset(A, A), 1)
    assert len(T) <= 10 and (m == 1 or 0 in T.lat[0])
    res = search_bc(CoverQuery(A=A, min_factor_size=m))
    assert res.exhaustive
    _check_pair(res, T, m)
    assert res.hit_count == ref_cover_maximal(T.elems, m)
    if len(T) <= 4:
        assert res.hit_count == ref_cover_pairs(T.elems, (m,))[m]


def test_zero_pivot_holds_every_quotient():
    # -1 in AA puts 0 in T, and 0 may lie in either factor
    A = ScalarSet([1, -1])
    T = shift(productset(A, A), 1)
    res = search_bc(CoverQuery(A=A, min_factor_size=2))
    assert res.best_B == ScalarSet([0, 1])
    assert res.best_C == ScalarSet([0, 2])
    assert (res.hit_count, res.exhaustive) == (2, True)
    assert res.hit_count == ref_cover_pairs(T.elems, (2,))[2] == len(T)
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
def test_two_element_sets_have_no_cover(elems):
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


def test_no_pair_builds_no_image_or_mask(monkeypatch):
    # T = {5, 11, 26}: at m = 2 only the quotient 1 lies in two rows, so
    # the search answers no pair before any image or mask is built
    calls = []
    for name in ("_images", "_mask"):
        monkeypatch.setattr(explorer, name, lambda *a, name=name,
                            real=getattr(explorer, name):
                            calls.append(name) or real(*a))
    [row] = conjecture_scan([("a", ScalarSet([2, 5]))], min_factor_size=2)
    assert calls == []
    assert (row.aa1_size, row.hit_count, row.exhaustive) == (3, 0, True)


def test_search_multiplies_no_elements(monkeypatch):
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
def test_search_known_field_instance(m, B, C):
    F = PrimeField(17)
    A = ScalarSet([F(1), F(2), F(3)])
    T = shift(productset(A, A), 1)
    res = search_bc(CoverQuery(A=A, min_factor_size=m))
    assert res.best_B == ScalarSet(map(F, B))
    assert res.best_C == ScalarSet(map(F, C))
    assert res.exhaustive
    _check_pair(res, T, m)
    assert res.hit_count == ref_cover_maximal(T.elems, m)


def test_search_known_instance():
    A = ScalarSet([2, 3, 7, 11, 19])
    T = shift(productset(A, A), 1)
    res = search_bc(CoverQuery(A=A, min_factor_size=2))
    assert res.exhaustive
    assert res.hit_count == 4
    assert res.coverage_fraction == Fraction(4, 15)
    assert res.best_B.sorted() == [1, Fraction(39, 5)]
    assert res.best_C.sorted() == [5, 10]
    _check_pair(res, T, 2)


def test_search_pivots_of_both_signs():
    # T = {-2, 2, 10}: only the pivots -2 and 2 share two quotients, 1 and
    # -1, each keyed once whatever the sign of the pivot
    A = ScalarSet([-1, 3])
    res = search_bc(CoverQuery(A=A, min_factor_size=2))
    assert res.exhaustive
    assert res.best_B == ScalarSet([-1, 1])
    assert res.best_C == ScalarSet([-2, 2])
    assert res.hit_count == 2


def test_search_factors_stay_inside_target(rng):
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
