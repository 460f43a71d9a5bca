"""Slow reference for both pipelines, straight from the definitions.

Every set is a plain Python set of scalars built by literal loops: int and
Fraction values over Q, PrimeFieldElement values over F_q.  G comes from
powers of its base, B from a literal ``g*g in Gn``, Pi from the double loop
over the point sets, C as AA+1 minus G and the decomposition of G*(AA+1)
from literal products.  No shiftprod set type, kernel or membership test is
used; the decimal strings still come from ``power_ratio_decimal``, which is
exact and tested on its own.

The cover search's oracles live here too.  Both return the most hits
|B*C| over pairs with B inside T, C inside the quotients T/T = {s/t : s, t
in T, t != 0}, both of size at least m and B*C inside T: ``ref_cover_pairs``
by the double loop over both subset families, ``ref_cover_maximal`` by
taking for each B the largest C, the quotients c with B*c inside T.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

from shiftprod.ffharness import FfReport
from shiftprod.harness import DECIMAL_DIGITS, MainReport
from shiftprod.numeric import (
    PreconditionError,
    PrimeFieldElement,
    as_rational,
    power_ratio_decimal,
    scalar_is_zero,
)


def _floor_log2(n: int) -> int:
    k = 0
    while 2 ** (k + 1) <= n:
        k += 1
    return k


def _power_sign(x: int, base: int, exp: Fraction) -> int:
    """The sign of x - base**exp, by cross powers."""
    lhs, rhs = x ** exp.denominator, base ** exp.numerator
    return (lhs > rhs) - (lhs < rhs)


def _collinear(points) -> bool:
    """Every point on the line through the first two."""
    pts = list(points)
    if len(pts) <= 2:
        return True
    (px, py), (qx, qy) = pts[0], pts[1]
    return all((qx - px) * (ry - py) == (qy - py) * (rx - px) for rx, ry in pts[2:])


def _progression(g0, R):
    """G as {g0**(r0 + k)} over the exponent vectors, with the vectors, the
    offsets k and the formal length."""
    vectors = list(itertools.product(*(range(l) for l in R.lengths)))
    offsets = [sum(x * r for x, r in zip(v, R.generators)) for v in vectors]
    return {g0 ** (R.r0 + k) for k in offsets}, vectors, offsets, len(vectors)


def _core(A, g0, R, one, eps, delta, skew_e, constants):
    """The fields both reports share, then E, F and Pi; ``one`` is the
    unit of the domain."""
    Gset, vectors, offsets, formal = _progression(g0, R)
    AA = {a * b for a in A for b in A}
    AA1 = {x + one for x in AA}
    g1 = g0 ** R.r0
    Gn = {g0 ** k for k in offsets}
    B = {g for g in Gn if g * g in Gn}
    bound = prod(l // 2 for l in R.lengths)
    proper = len(Gset) == formal
    constants["proper"] = "true" if proper else "false"
    constants["claim_bb"] = ("pass" if len(B) >= bound
                             and bound * 3 ** len(R.lengths) >= formal else "fail")
    constants["b_even_size"] = str(len({g0 ** k for v, k in zip(vectors, offsets)
                                        if all(x % 2 == 0 for x in v)}))

    F = {(b, b * a) for b in B for a in A}
    if skew_e:
        E = {(b * g1, b * a) for b in B for a in A}
    else:
        E = {(g1 * b, g1 * b * a) for b in B for a in A}
    if len(A) >= 2 and len(B) >= 2:
        constants["ef_non_collinear"] = (
            "pass" if not _collinear(E) and not _collinear(F) else "fail")
    else:
        constants["ef_non_collinear"] = "skipped"

    Pi = set()
    for ex, ey in E:
        for fx, fy in F:
            Pi.add(ex * fx + ey * fy)
    BB = {b * c for b in B for c in B}
    rhs = {g1 * x * y for x in BB for y in AA1}
    if proper:
        constants["g_bb_inclusion"] = (
            "pass" if all(g1 * x in Gset for x in BB) else "fail")
    else:
        constants["g_bb_inclusion"] = "skipped"

    C = AA1 - Gset
    G_inter = {g * x for g in Gset for x in AA1 if x in Gset}
    lhs_dec = {g * x for g in Gset for x in AA1}
    rhs_dec = G_inter | {g * c for g in Gset for c in C}
    constants["decomposition"] = "pass" if lhs_dec == rhs_dec else "fail"
    GG = {g * h for g in Gset for h in Gset}
    constants["gg_over_g"] = str(Fraction(len(GG), len(Gset)))
    constants["g_inter_le_gg"] = "pass" if len(G_inter) <= len(GG) else "fail"
    constants["pi_over_e_pow"] = power_ratio_decimal(
        len(Pi), max(1, len(E)), 1 - eps, DECIMAL_DIGITS)

    shared = dict(
        a_size=len(A),
        aa_size=len(AA),
        g_formal_len=formal,
        g_realized_size=len(Gset),
        b_size=len(B),
        e_size=len(E),
        pi_size=len(Pi),
        c_size=len(C),
        epsilon=str(eps),
        delta=str(delta),
        claim_bb_bound=bound,
        identity_ok=Pi == rhs,
        corollary1_ok=len(C) >= 1,
    )
    return shared, E, F, Pi


def reference_main_report(A_values, G, delta, config) -> MainReport:
    """The MainReport of ``run_main_pipeline`` for rational A and G,
    computed element by element; raises PreconditionError where the
    pipeline refuses."""
    A = {Fraction(a) for a in A_values}
    delta = Fraction(delta)
    if len(A) < 2:
        raise PreconditionError("need |A| >= 2")
    if not 0 < delta < 1:
        raise PreconditionError("delta out of range")
    g0, R = Fraction(G.g0), G.exponents
    Gset, _, _, formal = _progression(g0, R)
    constants = {}
    ratio = Fraction(len(Gset), len({a * b for a in A for b in A}))
    constants["size_match_ratio"] = str(ratio)
    if max(ratio, 1 / ratio) > config.size_match_factor:
        if config.on_size_mismatch == "reject":
            raise PreconditionError("size mismatch")
        constants["size_match"] = "warn"
    degeneracy = Fraction(len(R.lengths), _floor_log2(formal))
    constants["degeneracy_ratio"] = str(degeneracy)
    if degeneracy > config.degeneracy_threshold:
        raise PreconditionError("degenerate progression")

    shared, _, _, _ = _core(A, g0, R, 1, delta / 3, delta, config.skew_e, constants)
    return MainReport(
        **shared,
        bound_ratio=power_ratio_decimal(shared["c_size"], len(A), 1 - delta,
                                        DECIMAL_DIGITS),
        constants=constants,
    )


def reference_ff_report(q, A_values, G, epsilon, delta, skew_e) -> FfReport:
    """The FfReport of ``run_field_pipeline`` for A (ints, read mod q) and
    G over F_q, computed element by element, for inputs the pipeline
    accepts."""
    A = {PrimeFieldElement(a, q) for a in A_values}
    eps, delta = Fraction(epsilon), Fraction(delta)
    constants = {}
    shared, E, F, Pi = _core(A, G.g0, G.exponents, PrimeFieldElement(1, q),
                             eps, delta, skew_e, constants)
    hypothesis = len(E) == len(F) and len(E) ** 2 > q ** 3
    constants["coverage_hypothesis"] = "holds" if hypothesis else "fails"
    a_aa, aa, c = len(A) * shared["aa_size"], shared["aa_size"], shared["c_size"]
    return FfReport(
        q=q,
        **shared,
        cond1_ok=_power_sign(a_aa, q, Fraction(3, 2) + eps) >= 0,
        cond1_margin=power_ratio_decimal(a_aa, q, Fraction(3, 2) + eps,
                                         DECIMAL_DIGITS),
        cond2_ok=_power_sign(aa, q, 1 - delta) <= 0,
        cond2_margin=power_ratio_decimal(aa, q, 1 - delta, DECIMAL_DIGITS),
        coverage_ok=Pi >= {PrimeFieldElement(u, q) for u in range(1, q)},
        q_delta_bound=_power_sign(c, q, delta) >= 0,
        bound_ratio=power_ratio_decimal(c, q, delta, DECIMAL_DIGITS),
        constants=constants,
    )


def _div(s, t):
    if isinstance(s, PrimeFieldElement):
        return s / t
    return as_rational(Fraction(s) / t)


def _quotients(T) -> list:
    return list({_div(s, t) for t in T if not scalar_is_zero(t) for s in T})


def _subsets(items, m):
    for size in range(m, len(items) + 1):
        yield from itertools.combinations(items, size)


def ref_cover_pairs(T, m) -> int:
    """The most hits, by the double loop over every B inside T and every C
    inside T/T: 2**|T| * 2**|T/T| pairs, so for |T| <= 4."""
    T, Q = set(T), _quotients(T)
    best = 0
    for B in _subsets(list(T), m):
        for C in _subsets(Q, m):
            if all(b * c in T for b in B for c in C):
                best = max(best, len({b * c for b in B for c in C}))
    return best


def ref_cover_maximal(T, m) -> int:
    """The most hits, by taking for each B inside T the largest C, the
    quotients c with B*c inside T; for |T| <= 10."""
    T = set(T)
    # fits[c]: the b in T with b*c in T
    fits = {c: {b for b in T if b * c in T} for c in _quotients(T)}
    best = 0
    for B in _subsets(list(T), m):
        C = [c for c, bs in fits.items() if bs.issuperset(B)]
        if len(C) >= m:
            best = max(best, len({b * c for b in B for c in C}))
    return best
