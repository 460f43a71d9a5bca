"""Acceptance gate: each test exercises one headline guarantee end to end,
prints a single PASS/FAIL line, and enforces a wall-clock budget."""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import (
    identity_sides,
    make_int_set,
    make_proper_field_ggp,
    make_proper_gap,
    make_proper_ggp,
)
from shiftprod.cli import auto_progression
from reference import _progression, lattice_item, ref_cover_maximal, ref_cover_pairs
from shiftprod.explorer import CoverQuery, conjecture_scan, search_bc
from shiftprod.ffharness import coverage_check, subgroup_ggp
from shiftprod.harness import (
    PipelineInput,
    run_pipeline,
    square_part,
    square_part_bound_check,
)
from shiftprod.numeric import PrimeField
from shiftprod.progressions import (
    enumerate_ggp,
    ggp_membership,
    ggp_powers,
)
from shiftprod.setalg import (
    Point2,
    PointSet2,
    ScalarSet,
    productset,
    shift,
    sumset,
)


def _report(capsys, num, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {label}: {status} "
              f"({elapsed:.2f}s, budget {budget:g}s)")
    assert ok
    assert elapsed < budget


def test_acceptance_1_dot_identity(capsys):
    rng = random.Random(101)
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        A = make_int_set(rng, rng.randint(2, 12), hi=60)
        G = make_proper_ggp(rng)
        B = square_part(G)
        lhs, rhs = identity_sides(A, B, ggp_powers(G, [G.exponents.r0]))
        ok = ok and lhs == rhs
    for _ in range(100):
        G = make_proper_field_ggp(rng)
        F = PrimeField(G.domain)
        A = ScalarSet(F(v) for v in rng.sample(range(G.domain), rng.randint(2, 12)))
        B = square_part(G)
        lhs, rhs = identity_sides(A, B, ggp_powers(G, [G.exponents.r0]))
        ok = ok and lhs == rhs
    _report(capsys, 1, "dot products factor exactly as g1*BB*(AA+1)",
            ok, time.perf_counter() - t0, 10.0)


def test_acceptance_2_square_part_bound(capsys):
    rng = random.Random(102)
    t0 = time.perf_counter()
    ok = True
    specs = [make_proper_ggp(rng) for _ in range(60)]
    specs += [make_proper_field_ggp(rng) for _ in range(40)]
    for G in specs:
        B = square_part(G)
        bound, good = square_part_bound_check(G, B)
        ok = ok and good and len(B) >= bound
    _report(capsys, 2, "square part reaches the half-length product bound",
            ok, time.perf_counter() - t0, 5.0)


def test_acceptance_3_progression_growth(capsys):
    rng = random.Random(103)
    t0 = time.perf_counter()
    ok = True
    for _ in range(50):
        R = make_proper_gap(rng)
        bound = 1
        for l in R.lengths:
            bound *= 2 * l - 1
        S = ScalarSet(R.residues)
        ok = ok and len(sumset(S, S)) <= bound
    for _ in range(50):
        G = make_proper_ggp(rng)
        bound = 1
        for l in G.exponents.lengths:
            bound *= 2 * l - 1
        S = enumerate_ggp(G)
        ok = ok and len(productset(S, S)) <= bound
    _report(capsys, 3, "self sums and self products stay under prod(2l-1)",
            ok, time.perf_counter() - t0, 10.0)


def test_acceptance_4_exceptional_set_nonempty(capsys):
    rng = random.Random(104)
    t0 = time.perf_counter()
    ok = True
    for _ in range(50):
        A = make_int_set(rng, rng.randint(2, 8), hi=50)
        G = auto_progression(A)
        rep = run_pipeline(PipelineInput(A=A, G=G, delta=Fraction(1, 3)))
        ok = ok and rep.corollary1_ok and rep.structural_ok()
    _report(capsys, 4, "shifted products always escape a size-matched progression",
            ok, time.perf_counter() - t0, 10.0)


def test_acceptance_5_coverage_bound(capsys):
    rng = random.Random(105)
    t0 = time.perf_counter()
    ok = True
    for q in (5, 7, 11, 13):
        F = PrimeField(q)
        plane = [Point2(F(x), F(y)) for x in range(q) for y in range(q)]
        n = math.isqrt(q ** 3)
        if n * n < q ** 3:
            n += 1
        n += 1
        for _ in range(10):
            E = PointSet2(rng.sample(plane, n))
            cov = coverage_check(E, E, q)
            ok = ok and cov.hypothesis_ok and cov.full
    _report(capsys, 5, "large planar sets dot-cover every unit",
            ok, time.perf_counter() - t0, 30.0)


def test_acceptance_6_subgroup_instance(capsys):
    t0 = time.perf_counter()
    A, G = subgroup_ggp(101, 50)
    rep = run_pipeline(
        PipelineInput(q=101, A=A, G=G, epsilon=Fraction(1, 100), delta=Fraction(1, 10))
    )
    ok = (
        (rep.a_size * rep.aa_size) ** 2 >= 101 ** 3
        and rep.a_size * rep.aa_size == 2500
        and 101 ** 3 == 1030301
        and rep.aa_size ** 10 <= 101 ** 9
        and rep.cond1_ok
        and rep.cond2_ok
        and rep.identity_ok
        and rep.coverage_ok
        and rep.q_delta_bound
        and rep.c_size >= 2
        and rep.structural_ok()
    )
    _report(capsys, 6, "order-50 subgroup of F_101 meets every hypothesis and bound",
            ok, time.perf_counter() - t0, 5.0)


def test_acceptance_7_membership_oracle(capsys):
    rng = random.Random(107)
    t0 = time.perf_counter()
    ok = True
    nonmembers = 0
    while nonmembers < 100:
        G = make_proper_ggp(rng)
        if G.formal_length > 200:
            continue
        S = _progression(Fraction(G.g0), G.exponents)[0]
        ok = ok and all(ggp_membership(G, *lattice_item(x)) for x in S)
        for _ in range(30):
            probe = Fraction(rng.randint(1, 400), rng.randint(1, 40))
            arg = probe.numerator if probe.denominator == 1 else probe
            expected = arg in S
            ok = ok and ggp_membership(G, *lattice_item(arg)) == expected
            if not expected:
                nonmembers += 1
    while nonmembers < 200:
        G = make_proper_field_ggp(rng)
        if G.formal_length > 200:
            continue
        F = PrimeField(G.domain)
        S = _progression(G.g0.residue, G.exponents, G.domain)[0]
        ok = ok and all(ggp_membership(G, *lattice_item(F(x))) for x in S)
        for _ in range(30):
            probe = rng.randrange(G.domain)
            expected = probe in S
            ok = ok and ggp_membership(G, *lattice_item(F(probe))) == expected
            if not expected:
                nonmembers += 1
    ok = ok and nonmembers >= 200
    _report(capsys, 7, "membership agrees with exhaustive enumeration",
            ok, time.perf_counter() - t0, 10.0)


def test_acceptance_8_cover_search(capsys):
    rng = random.Random(108)
    t0 = time.perf_counter()
    ok = True
    instances = [(f"r{k}", make_int_set(rng, rng.randint(2, 4), hi=30))
                 for k in range(10)]
    for row in conjecture_scan(instances, min_factor_size=1):
        ok = ok and row.coverage_fraction == 1 and row.exhaustive
    tiny = [
        ScalarSet([3]),
        ScalarSet([1, -1]),
        ScalarSet([2, -2]),
        ScalarSet([-3, 3]),
        ScalarSet([6, -6]),
        ScalarSet([2, Fraction(-1, 2)]),
    ]
    for A in tiny:
        T = shift(productset(A, A), 1)
        ok = ok and len(T) <= 4
        brute = ref_cover_pairs(T.elems, (1, 2, 3))
        for m in (1, 2, 3):
            res = search_bc(CoverQuery(A=A, min_factor_size=m))
            products = {b * c for b in res.best_B for c in res.best_C}
            ok = ok and res.exhaustive and products <= T.elems
            ok = ok and res.hit_count == len(products)
            ok = ok and (res.hit_count == 0
                         or min(len(res.best_B), len(res.best_C)) >= m)
            ok = ok and res.hit_count == brute[m] == ref_cover_maximal(T.elems, m)
    _report(capsys, 8, "cover search is full-coverage at one pivot and brute-exact on small targets",
            ok, time.perf_counter() - t0, 60.0)


def test_acceptance_9_cli_determinism(capsys):
    t0 = time.perf_counter()
    ok = True
    commands = [
        ["verify-main", "--random-A", "3", "--count", "3",
         "--delta", "1/3", "--seed", "11"],
        ["conjecture-scan", "--family", "random-integer", "--count", "3",
         "--seed", "11"],
        ["gen", "--family", "geometric", "--count", "2", "--seed", "11"],
    ]
    for cmd in commands:
        argv = [sys.executable, "-m", "shiftprod.cli"] + cmd
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        ok = ok and first.returncode == second.returncode == 0
        ok = ok and first.stdout == second.stdout
        ok = ok and first.stderr == second.stderr
    _report(capsys, 9, "seeded command line runs are byte identical",
            ok, time.perf_counter() - t0, 5.0)
