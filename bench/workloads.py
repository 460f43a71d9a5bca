"""Seeded instance batches for the four benchmark workloads.

Each workload builds a fixed number of instances from the seed.  An
instance has a ``run`` callable, timed by the caller, that goes through
shiftprod's public entry points and returns a verdict, and a ``check``
callable, run outside the timed region, that compares the verdict with a
reference and returns a list of disagreements.

Input shapes are fixed per slot (set sizes, progression lengths, subgroup
orders); the seed draws the values.  That keeps the work of a batch close
to the same on every seed, so seeds can be compared run against run.
Why each workload exists, and which layers it stresses and bypasses, is
recorded in WORKLOADS.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

from shiftprod import explorer, ffharness, harness
from shiftprod.numeric import PrimeFieldElement, is_prime, multiplicative_order
from shiftprod.progressions import GapSpec, GgpSpec, enumerate_ggp
from shiftprod.setalg import Point2, PointSet2, ScalarSet

BATCH = 40
EPSILON, DELTA = Fraction(1, 100), Fraction(1, 10)
RATIONAL_BASES = [Fraction(3, 2), Fraction(2, 3), Fraction(5, 3),
                  Fraction(1, 2), Fraction(7, 5)]
# the largest prime q with 2(q-1)**2 < 2**63, the top of the int64 range
# the field dot kernel is exact on
LARGE_Q = 2 ** 31 - 1


@dataclass
class Instance:
    label: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]


@dataclass(frozen=True)
class Refused:
    """The verdict of a call that raised instead of returning."""

    error: str


def _aa1(A):
    return {a * b + 1 for a in A for b in A}


def _literal_sizes(A, G):
    """|B| and |C| by enumerating G and its normalization, the route the
    acceptance gate holds symbolic membership against."""
    gset = set(enumerate_ggp(G))
    R = G.exponents
    gn = set(enumerate_ggp(GgpSpec(G.g0, GapSpec(0, R.generators, R.lengths))))
    b = sum(1 for g in gn if g * g in gn)
    c = len(_aa1(A) - gset)
    return b, c


def _check_pipeline(rep, A, G, q=None):
    errors = []
    if not rep.identity_ok:
        errors.append("identity_ok is false")
    if rep.constants.get("decomposition") != "pass":
        errors.append("decomposition failed")
    b, c = _literal_sizes(A, G)
    if rep.b_size != b:
        errors.append(f"b_size {rep.b_size} != {b}")
    if rep.c_size != c:
        errors.append(f"c_size {rep.c_size} != {c}")
    if q is not None:
        # E = g1*F with F = {(b, b*a)}, so |E| = |F| = |A||B|
        holds = (len(A) * b) ** 2 > q ** 3
        if rep.constants.get("coverage_hypothesis") != ("holds" if holds else "fails"):
            errors.append("coverage hypothesis misjudged")
        if holds and not rep.coverage_ok:
            errors.append("coverage not full under the hypothesis")
    return errors


def _verdict(call):
    """Run ``call``; an error it raises becomes a Refused verdict, which
    counts as a failed instance."""
    def run():
        try:
            return call()
        except Exception as exc:
            return Refused(repr(exc))
    return run


# ---------------------------------------------------------------------------
# rational-verify

def _rational_instance(rng, k):
    size = 8 + k % 5
    base = RATIONAL_BASES[k // 5 % 5]
    A = ScalarSet(rng.sample(range(1, 61), size))
    aa = len({a * b for a in A for b in A})
    # |G| about |AA|/2, the low end of the pipeline's factor-2 size match
    l1 = 3 + k % 4
    l2 = max(3, math.ceil(aa / (2 * l1)))
    # exponent sizes set the Fraction sizes, so r1 is fixed per slot; r2
    # beyond every first-coordinate difference of 2x makes the GAP proper
    # and the square part generic, |B| = ceil(l1/2) * ceil(l2/2)
    r1 = 1 + k % 3
    r2 = r1 * (2 * l1 - 1) + rng.randint(1, 3)
    G = GgpSpec(base, GapSpec(rng.randint(-3, 3), (r1, r2), (l1, l2)))
    inp = harness.PipelineInput(A=A, G=G, delta=Fraction(1, 3))

    def check(rep):
        return _check_pipeline(rep, A, G)

    return Instance(f"rational |A|={size} l=({l1},{l2})",
                    _verdict(lambda: harness.run_main_pipeline(inp)), check)


def rational_verify(rng):
    return [_rational_instance(rng, k) for k in range(BATCH)]


# ---------------------------------------------------------------------------
# field-dot

SUBGROUP_ORDERS = [48, 44, 40, 36, 32, 30, 28, 26, 24, 22, 20, 18, 16, 14]
FULL_PLANE_QS = [53, 47, 43, 37]
SMALL_QS = [p for p in range(5, 54) if is_prime(p)]


def _ff_instance(label, q, make):
    """run_field_pipeline on the inputs ``make`` returns; subgroup inputs
    are built inside the timed call, as ``verify-ff --subgroup-t`` does."""
    def call():
        A, G = make()
        return ffharness.run_field_pipeline(ffharness.FfInput(
            q=q, A=A, G=G, epsilon=EPSILON, delta=DELTA))

    def check(rep):
        return _check_pipeline(rep, *make(), q)

    return Instance(label, _verdict(call), check)


def _subgroup(q, t):
    return _ff_instance(f"subgroup q={q} t={t}", q,
                        lambda: ffharness.subgroup_ggp(q, t))


def _coverage(label, q, E, F):
    def check(rep):
        holds = len(E) == len(F) and len(E) ** 2 > q ** 3
        errors = []
        if rep.hypothesis_ok != holds:
            errors.append("coverage hypothesis misjudged")
        if holds and not rep.full:
            errors.append("coverage not full under the hypothesis")
        if rep.full != (rep.covered_size == q - 1):
            errors.append("full disagrees with covered_size")
        return errors

    return Instance(label, _verdict(lambda: ffharness.coverage_check(E, F, q)),
                    check)


def _punctured_plane(q):
    return [Point2(PrimeFieldElement(x, q), PrimeFieldElement(y, q))
            for x in range(q) for y in range(q) if (x, y) != (0, 0)]


def _small_order_base(rng, q):
    """A large-q instance whose base has small order: cheap membership,
    so the O(q) residue table of the dot kernel is what shows."""
    m = rng.choice([3, 7, 9, 11])
    # 7 is a primitive root of 2**31 - 1, so g0 has order exactly m
    g0 = PrimeFieldElement(pow(7, (q - 1) // m, q), q)
    A = ScalarSet(PrimeFieldElement(v, q) for v in rng.sample(range(2, q), 4))
    G = GgpSpec(g0, GapSpec(0, (1,), (3,)))
    return _ff_instance(f"small-order base q={q} ord={m}", q, lambda: (A, G))


def field_dot(rng):
    out = [_subgroup(101, 50), _subgroup(1009, 56)]   # dense, then sparse
    for t in SUBGROUP_ORDERS:
        # membership walks up to q steps, so q is one of the three smallest
        # primes above 1000 that carry a subgroup of order t
        q = rng.choice([p for p in range(1000, 2004)
                        if (p - 1) % t == 0 and is_prime(p)][:3])
        out.append(_subgroup(q, t))
    for q in FULL_PLANE_QS:
        E = PointSet2(_punctured_plane(q))
        out.append(_coverage(f"full plane q={q}", q, E, E))
    for k in range(18):
        q = SMALL_QS[k % len(SMALL_QS)]
        n = math.isqrt(q ** 3) + 1
        plane = _punctured_plane(q)
        E, F = PointSet2(rng.sample(plane, n)), PointSet2(rng.sample(plane, n))
        out.append(_coverage(f"random sets q={q} n={n}", q, E, F))
    out += [_small_order_base(rng, LARGE_Q) for _ in range(2)]
    return out


# ---------------------------------------------------------------------------
# field-membership

def _generator(rng, q):
    while True:
        g = PrimeFieldElement(rng.randrange(2, q - 1), q)
        if multiplicative_order(g) == q - 1:
            return g


def _membership_instance(rng, k):
    big = k % 20 == 19
    q = 1000003 if big else 100003
    size = 8 if big else 8 + k % 2
    length = 25 if big else 25 + k % 4
    A = ScalarSet(PrimeFieldElement(v, q) for v in rng.sample(range(2, q), size))
    G = GgpSpec(_generator(rng, q),
                GapSpec(rng.randint(0, 100), (rng.randint(1, q - 2),), (length,)))
    return _ff_instance(f"full-order base q={q} |A|={size} |G|={length}", q,
                        lambda: (A, G))


def field_membership(rng):
    return [_membership_instance(rng, k) for k in range(BATCH)]


# ---------------------------------------------------------------------------
# cover-scan

def _cover_instance(rng, k):
    if k % 2 == 0:
        size, m = 2, 2          # |U| = 10: the exhaustive tier
    else:
        size, m = 10 + k // 2 % 3, 3   # the pivot heuristic
    A = ScalarSet(rng.sample(range(1, 61), size))

    def call():
        found = []
        search = explorer.search_bc
        explorer.search_bc = lambda query: found.append(search(query)) or found[-1]
        try:
            [row] = explorer.conjecture_scan([(f"c{k}", A)], min_factor_size=m)
        finally:
            explorer.search_bc = search
        return row, found[0].best_B, found[0].best_C

    def check(verdict):
        row, B, C = verdict
        T = _aa1(A)
        hit = len({b * c for b in B for c in C} & T)
        errors = []
        if row.hit_count != hit:
            errors.append(f"hit_count {row.hit_count} != {hit} recomputed")
        if (row.b_size, row.c_size, row.aa1_size) != (len(B), len(C), len(T)):
            errors.append("factor or target sizes disagree")
        if row.coverage_fraction != Fraction(hit, len(T)):
            errors.append("coverage_fraction disagrees")
        if hit and min(len(B), len(C)) < m:
            errors.append("a factor is below min_factor_size")
        return errors

    return Instance(f"cover |A|={size} m={m}", _verdict(call), check)


def cover_scan(rng):
    return [_cover_instance(rng, k) for k in range(BATCH)]


WORKLOADS = {
    "rational-verify": rational_verify,
    "field-dot": field_dot,
    "field-membership": field_membership,
    "cover-scan": cover_scan,
}


def build(name, seed):
    batch = WORKLOADS[name](random.Random(f"{name}:{seed}"))
    for k, inst in enumerate(batch):
        inst.label = f"#{k} {inst.label}"
    return batch
