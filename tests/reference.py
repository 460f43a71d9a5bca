"""Slow reference for both pipelines, straight from the definitions.

Every set is a plain Python set of values built by literal loops: int and
Fraction values over Q, residues over F_q.  The oracle keeps its own
arithmetic: over F_q every sum, product and power is taken on ints and
reduced mod q, so no element operator is used.  G comes from
powers of its base, B from a literal ``g*g in Gn``, Pi from the double loop
over the point sets, C as AA+1 minus G and the decomposition of G*(AA+1)
from literal products.  No shiftprod set type, kernel or membership test is
used.  The field flags cond1_ok, cond2_ok and q_delta_bound come from
``compare_power``, the exact sign of x - base**exp by cross powers, where
the pipeline reads them off its own readouts.  The decimal strings come
from ``ref_power_ratio_decimal``, the same formula on
``ref_nth_root_floor``: it divides by base**a first and takes
integer Newton steps from 2**ceil(bits/k) down to the floor, without the
start read off logs, the +-1 steps below 2**40 or the divisor folded into
each step of ``numeric.nth_root_floor``.

The cover search's oracles live here too.  Both return the most hits
|B*C| over pairs with B inside T, C inside the quotients T/T = {s/t : s, t
in T, t != 0}, both of size at least m and B*C inside T: ``ref_cover_pairs``
by one double loop over both subset families for several m at once, ``ref_cover_maximal`` by
taking for each B the largest C, the quotients c with B*c inside T.
``ref_quotient_keys`` keys every quotient of T's sorted lattice items as a
Python int, and ``ref_quotient_bits`` counts those keys with a Counter
into the bits and images that ``explorer._quotient_bits`` hashes its way
to.

``ref_values`` lists the values of a GAP or a GGP from every exponent
vector, and ``ref_sum_size`` counts their self sums (GAP) or self products
(GGP) over every pair, the value-side count of ``progressions.sum_size``.

``lattice_item`` turns one scalar into the int lattice item (n, d) that
``ggp_membership`` reads, by way of a one-element ScalarSet, and
``ref_ggp_powers`` is the per-power route to ``progressions.ggp_powers``:
one ``_pow`` per exponent, lifted into a ScalarSet.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd, prod

from shiftprod.harness import DECIMAL_DIGITS, READOUT_DEGREE_CAP, Report
from shiftprod.numeric import (
    RATIONAL_DOMAIN,
    PreconditionError,
    PrimeFieldElement,
    as_rational,
)
from shiftprod.progressions import GgpSpec
from shiftprod.setalg import ScalarSet


def ref_nth_root_floor(x: int, k: int) -> int:
    """floor(x ** (1/k)) by integer Newton from 2**ceil(bits/k), which can
    be twice the root, so at large k it crawls down by a factor of about
    1 - 1/k a step."""
    if x < 2 or k == 1:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


def ref_power_ratio_decimal(num: int, base: int, exp: Fraction,
                            digits: int = DECIMAL_DIGITS) -> str:
    """num / base**exp floor-rounded to ``digits`` fractional digits."""
    d = exp.denominator
    r = ref_nth_root_floor(num ** d * 10 ** (digits * d) // base ** exp.numerator, d)
    return f"{r // 10 ** digits}.{r % 10 ** digits:0{digits}d}"


def _floor_log2(n: int) -> int:
    k = 0
    while 2 ** (k + 1) <= n:
        k += 1
    return k


def compare_power(x: int, base: int, exp: Fraction) -> int:
    """The exact sign of x - base**exp, by cross powers; exp >= 0 rational."""
    if x < 0 or base < 1:
        raise ValueError("need x >= 0 and base >= 1")
    exp = Fraction(exp)
    if exp < 0:
        raise ValueError("need exp >= 0")
    lhs, rhs = x ** exp.denominator, base ** exp.numerator
    return (lhs > rhs) - (lhs < rhs)


def _red(x, q):
    """x over Q (q None), x mod q over F_q."""
    return x if q is None else x % q


def _pow(g, k, q):
    """g**k for k of either sign: over Q exactly, over F_q mod q."""
    return Fraction(g) ** k if q is None else pow(g, k, q)


def _collinear(points, q) -> bool:
    """Every point on the line through the first two."""
    pts = list(points)
    if len(pts) <= 2:
        return True
    (px, py), (qx, qy) = pts[0], pts[1]
    return all(_red((qx - px) * (ry - py) - (qy - py) * (rx - px), q) == 0
               for rx, ry in pts[2:])


def _progression(g0, R, q=None):
    """G as {g0**(r0 + k)} over the exponent vectors, with the vectors, the
    offsets k and the formal length."""
    vectors = list(itertools.product(*(range(l) for l in R.lengths)))
    offsets = [sum(x * r for x, r in zip(v, R.generators)) for v in vectors]
    return {_pow(g0, R.r0 + k, q) for k in offsets}, vectors, offsets, len(vectors)


def _core(A, g0, R, q, eps, delta, skew_e, constants):
    """The fields both reports share, then E, F and Pi.  ``q`` is None over
    Q, where A and g0 are rationals, and the modulus over F_q, where they
    are residues."""
    def red(x):
        return _red(x, q)

    Gset, vectors, offsets, formal = _progression(g0, R, q)
    AA = {red(a * b) for a in A for b in A}
    AA1 = {red(x + 1) for x in AA}
    g1 = _pow(g0, R.r0, q)
    Gn = {_pow(g0, k, q) for k in offsets}
    B = {g for g in Gn if red(g * g) in Gn}
    bound = prod(l // 2 for l in R.lengths)
    proper = len(Gset) == formal
    constants["proper"] = "true" if proper else "false"
    constants["claim_bb"] = ("pass" if len(B) >= bound
                             and bound * 3 ** len(R.lengths) >= formal else "fail")
    constants["b_even_size"] = str(len({_pow(g0, k, q) for v, k in zip(vectors, offsets)
                                        if all(x % 2 == 0 for x in v)}))

    F = {(b, red(b * a)) for b in B for a in A}
    if skew_e:
        E = {(red(b * g1), red(b * a)) for b in B for a in A}
    else:
        E = {(red(g1 * b), red(g1 * b * a)) for b in B for a in A}
    if len(A) >= 2 and len(B) >= 2:
        constants["ef_non_collinear"] = (
            "pass" if not _collinear(E, q) and not _collinear(F, q) else "fail")
    else:
        constants["ef_non_collinear"] = "skipped"

    Pi = set()
    for ex, ey in E:
        for fx, fy in F:
            Pi.add(red(ex * fx + ey * fy))
    BB = {red(b * c) for b in B for c in B}
    rhs = {red(g1 * x * y) for x in BB for y in AA1}
    if proper:
        constants["g_bb_inclusion"] = (
            "pass" if all(red(g1 * x) in Gset for x in BB) else "fail")
    else:
        constants["g_bb_inclusion"] = "skipped"

    C = AA1 - Gset
    G_inter = {red(g * x) for g in Gset for x in AA1 if x in Gset}
    lhs_dec = {red(g * x) for g in Gset for x in AA1}
    rhs_dec = G_inter | {red(g * c) for g in Gset for c in C}
    constants["decomposition"] = "pass" if lhs_dec == rhs_dec else "fail"
    GG = {red(g * h) for g in Gset for h in Gset}
    constants["gg_over_g"] = str(Fraction(len(GG), len(Gset)))
    constants["g_inter_le_gg"] = "pass" if len(G_inter) <= len(GG) else "fail"
    constants["pi_over_e_pow"] = ref_power_ratio_decimal(
        len(Pi), max(1, len(E)), 1 - eps)

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


def reference_main_report(A_values, G, delta, config, skew_e=False) -> Report:
    """The Report of ``run_pipeline`` for rational A and G,
    computed element by element; raises PreconditionError where the
    pipeline refuses."""
    A = {Fraction(a) for a in A_values}
    delta = Fraction(delta)
    if len(A) < 2:
        raise PreconditionError("need |A| >= 2")
    if not 0 < delta < 1:
        raise PreconditionError("delta out of range")
    if (delta / 3).denominator > READOUT_DEGREE_CAP:
        raise PreconditionError("readout degree above the cap")
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

    shared, _, _, _ = _core(A, g0, R, None, delta / 3, delta, skew_e, constants)
    return Report(
        **shared,
        bound_ratio=ref_power_ratio_decimal(shared["c_size"], len(A), 1 - delta),
        constants=constants,
    )


def reference_ff_report(q, A_values, G, epsilon, delta, skew_e) -> Report:
    """The Report of ``run_pipeline`` for A (ints, read mod q) and
    G over F_q, computed element by element, for inputs the pipeline
    accepts."""
    A = {a % q for a in A_values}
    eps, delta = Fraction(epsilon), Fraction(delta)
    constants = {}
    shared, E, F, Pi = _core(A, G.g0.residue, G.exponents, q,
                             eps, delta, skew_e, constants)
    hypothesis = len(E) == len(F) and len(E) ** 2 > q ** 3
    constants["coverage_hypothesis"] = "holds" if hypothesis else "fails"
    a_aa, aa, c = len(A) * shared["aa_size"], shared["aa_size"], shared["c_size"]
    return Report(
        q=q,
        **shared,
        cond1_ok=compare_power(a_aa, q, Fraction(3, 2) + eps) >= 0,
        cond1_margin=ref_power_ratio_decimal(a_aa, q, Fraction(3, 2) + eps),
        cond2_ok=compare_power(aa, q, 1 - delta) <= 0,
        cond2_margin=ref_power_ratio_decimal(aa, q, 1 - delta),
        coverage_ok=Pi >= set(range(1, q)),
        q_delta_bound=compare_power(c, q, delta) >= 0,
        bound_ratio=ref_power_ratio_decimal(c, q, delta),
        constants=constants,
    )


def _plain(T):
    """The scalars T as plain values and their modulus: the residues and q
    over F_q, the values themselves and None over Q."""
    T = list(T)
    if T and isinstance(T[0], PrimeFieldElement):
        return {t.residue for t in T}, T[0].modulus
    return set(T), None


def _plain_quotients(T, q) -> set:
    if q is None:
        return {as_rational(Fraction(s) / t) for t in T if t for s in T}
    return {s * pow(t, -1, q) % q for t in T if t for s in T}


def _quotients(T) -> list:
    """T/T as scalars of T's domain."""
    T, q = _plain(T)
    Q = _plain_quotients(T, q)
    return list(Q) if q is None else [PrimeFieldElement(x, q) for x in Q]


def _subsets(items, m):
    for size in range(m, len(items) + 1):
        yield from itertools.combinations(items, size)


def ref_cover_pairs(T, ms) -> dict:
    """{m: the most hits} for each least factor size m in ``ms``, by one
    double loop over every B inside T and every C inside T/T: 2**|T| *
    2**|T/T| pairs, so for |T| <= 4.  A pair counts for each m up to the
    size of its smaller factor."""
    T, q = _plain(T)
    Q = list(_plain_quotients(T, q))
    best = dict.fromkeys(ms, 0)
    for B in _subsets(list(T), min(ms)):
        for C in _subsets(Q, min(ms)):
            products = {_red(b * c, q) for b in B for c in C}
            if products <= T:
                for m in best:
                    if m <= min(len(B), len(C)):
                        best[m] = max(best[m], len(products))
    return best


def ref_cover_maximal(T, m) -> int:
    """The most hits, by taking for each B inside T the largest C, the
    quotients c with B*c inside T; for |T| <= 10."""
    T, q = _plain(T)
    # fits[c]: the b in T with b*c in T
    fits = {c: {b for b in T if _red(b * c, q) in T} for c in _plain_quotients(T, q)}
    best = 0
    for B in _subsets(list(T), m):
        C = [c for c, bs in fits.items() if bs.issuperset(B)]
        if len(C) >= m:
            best = max(best, len({_red(b * c, q) for b in B for c in C}))
    return best


def ref_quotient_keys(ts, R, domain) -> list:
    """For each item t of ``ts``, in order, the keys of s/t for the items
    s of ``ts`` in order; None for t = 0.  Over Q the reduced p/r with
    r > 0 is keyed p*R + r; over F_q the key is s * t^-1 mod q."""
    if domain == RATIONAL_DOMAIN:
        sR = [s * R for s in ts]
        neg = [-x for x in sR]

        def row(t):
            # (s*R + t) // gcd(s, t), or for t < 0 the key of -s/-t,
            # (-s*R - t) // gcd(s, t)
            a, base = abs(t), sR if t > 0 else neg
            return [(x + a) // gcd(s, t) for s, x in zip(ts, base)]
    else:
        def row(t):
            inv = pow(t, -1, R)
            return [s * inv % R for s in ts]
    return [row(t) if t else None for t in ts]


def ref_quotient_bits(ts, R, domain, need):
    """(first, images) of ``explorer._quotient_bits`` on Python int keys,
    any R: the quotient keys that lie in at least ``need`` rows take bits
    in order of first occurrence, and ``first`` holds the flat index
    j * len(ts) + i of each one's first entry ts[i] / ts[j]; for each
    pivot ts[j], the dict from the bit position of b to the index in ts of
    b * ts[j]; None for the pivot 0."""
    n, rows = len(ts), ref_quotient_keys(ts, R, domain)
    seen = Counter(itertools.chain.from_iterable(filter(None, rows)))
    bit = dict(zip(itertools.compress(seen, map(need.__le__, seen.values())),
                   itertools.count()))
    first = {}
    for j, row in enumerate(rows):
        for i, k in enumerate(row or ()):
            first.setdefault(k, j * n + i)
    index = {s: i for i, s in enumerate(ts)}
    images = []
    for t, row in zip(ts, rows):
        if row is None:
            images.append(None)
        elif domain == RATIONAL_DOMAIN:
            # p*t // r for the key p*R + r
            images.append({bit[k]: index[k // R * t // (k % R)]
                           for k in bit.keys() & row})
        else:
            images.append({bit[k]: index[k * t % R] for k in bit.keys() & row})
    return [first[k] for k in bit], images


def lattice_item(x):
    """(n, d) for the scalar x as a ScalarSet stores it: the residue and q
    over F_q, the reduced numerator and denominator over Q."""
    (n,), d = ScalarSet([x]).lat
    return n, d


def ref_ggp_powers(G, ks) -> ScalarSet:
    """{g0**k : k in ks}, one exact power per exponent."""
    if G.order is None:
        return ScalarSet(_pow(G.g0, k, None) for k in ks)
    q = G.domain
    return ScalarSet(PrimeFieldElement(_pow(G.g0.residue, k, q), q) for k in ks)


def ref_values(spec) -> set:
    """The values of a GAP (integers) or a GGP (its powers; residues over
    F_q), one per exponent vector."""
    if not isinstance(spec, GgpSpec):
        _, _, offsets, _ = _progression(1, spec)
        return {spec.r0 + k for k in offsets}
    g0, q = spec.g0, None
    if isinstance(g0, PrimeFieldElement):
        g0, q = g0.residue, g0.modulus
    return _progression(g0, spec.exponents, q)[0]


def ref_sum_size(spec) -> int:
    """|S+S| for a GAP S and |G*G| for a GGP G, over every pair of values."""
    S = ref_values(spec)
    if not isinstance(spec, GgpSpec):
        return len({a + b for a in S for b in S})
    q = spec.g0.modulus if isinstance(spec.g0, PrimeFieldElement) else None
    return len({_red(a * b, q) for a in S for b in S})
