"""The pipeline, over the rationals and over F_q.

Given a finite set A and a generalized geometric progression G of
comparable size, the pipeline measures how much of the shifted product set
AA+1 escapes G.  The route:

  * read the square part B = {g in G/g1 : g*g in G/g1}, for g1 the first
    element of G, off G's own exponents less r0 and bound it from below
    by the product of the half lengths;
  * lift A and B to planar point sets E = g1*F and F = {(b, b*a)} whose
    dot-product set factors exactly as g1 * BB * (AA+1);
  * verify that factorization against BB * (g1*(AA+1)): g1 scales the
    small AA+1 rather than the whole product, and not BB, since g1*BB is
    often G itself and a passing run forms no product of G with AA+1;
  * collect the exceptional set C = (AA+1) \\ G by looking each int
    lattice item of AA+1 up in the cached powers of G;
  * verify the exact decomposition of G*(AA+1) into G*(G & (AA+1)) and
    G*C, which holds once the two parts cover AA+1, as
    G*X | G*Y = G*(X | Y); only when they miss some of it are the product
    sets formed and compared.  The pair caps of G*(AA+1) and G*G refuse
    on the realized size of G, before its powers are built, and their bit
    caps right after, before any pairwise work;
  * read properness, |GG| and the size of the even part of G off the
    exponents, each as the size of a progression of exponents (R, R + R,
    and the vectors with even coordinates), folded mod ord(g0) over F_q,
    with no power or product set built; a size is the same for G and
    G/g1, whose exponents are G's shifted by -r0;
  * read off |C| / |A|**(1-delta) over Q, |C| / q**delta over F_q, to
    fixed digits.

Over Q epsilon is delta/3, and |G| must match |AA| within a factor and G
must not be degenerate.  Over F_q the asymptotic hypotheses are read off
readouts too: |A||AA| against q**(3/2 + eps) and |AA| against
q**(1 - delta).  Each readout prints floor(10**20 * v) for an exact ratio
v, and each flag is read off its own readout: v >= 1 exactly when that
root is at least 10**20, which gives cond1_ok and q_delta_bound.
cond2_ok is v <= 1, and there v = 1 cannot happen: with 1 - delta = a/b
in lowest terms, |AA|**b = q**a would make |AA| a power q**m of the prime
q with m*b = a, and no integer m has 0 < m*b < b.  So cond2_ok is v < 1.
The coverage hypothesis |E| = |F| > q**(3/2) is len(E)**2 > q**3.

Every check is exact; measured stand-ins for asymptotic constants are
reported as rational or fixed-digit decimal strings in the constants
ledger of the report, and Report.finding() alone reads a run's verdict
off the checks, the empty C of Corollary 1 over Q included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Tuple

from .numeric import (
    RATIONAL_DOMAIN,
    PreconditionError,
    is_prime,
    join_domains,
    power_ratio_decimal,
)
from .progressions import (
    GgpSpec,
    degeneracy_ratio,
    enumerate_ggp,
    gap_size,
    ggp_membership,
    ggp_powers,
    is_proper,
    realized_size,
    sum_size,
)
from .setalg import (
    PointSet2,
    ScalarSet,
    _check_lattice_bits,
    _check_pair_budget,
    collinear,
    dot_product_set,
    productset,
    set_intersect,
    set_minus,
    set_union,
    shift,
)

__all__ = [
    "HarnessConfig",
    "PipelineInput",
    "PreconditionError",
    "Report",
    "build_point_sets",
    "decomposition_holds",
    "exceptional_set",
    "run_pipeline",
    "square_part",
    "square_part_bound_check",
]

DECIMAL_DIGITS = 20

# A decimal readout of num / base**(a/b) raises num to the b-th power and
# takes a b-th root, so its cost grows about quadratically in b.  At this
# cap the slowest readout seen, |A||AA| = 2**35 against q**(9999/10000)
# at q = 2**50, takes 0.05-0.08 s on 2 vCPUs (Python 3.11).
READOUT_DEGREE_CAP = 10000


def require_readout_degree(exponents: dict) -> None:
    """Refuse, before any pipeline work, a readout exponent (named by the
    key) whose denominator is above READOUT_DEGREE_CAP."""
    for name, e in exponents.items():
        if e.denominator > READOUT_DEGREE_CAP:
            raise PreconditionError(
                f"readout exponent {name} = {e} has denominator "
                f"{e.denominator}, above READOUT_DEGREE_CAP = {READOUT_DEGREE_CAP}")


@dataclass(frozen=True)
class HarnessConfig:
    """The three gates of a rational run.

    size_match_factor bounds |G| / |AA| from both sides,
    degeneracy_threshold caps the degeneracy ratio of G, and
    on_size_mismatch picks reject (error) or warn (run anyway, ledger the
    ratio).  A run over F_q refuses any config but the default.
    """

    size_match_factor: Fraction = Fraction(2)
    degeneracy_threshold: Fraction = Fraction(1)
    on_size_mismatch: str = "reject"

    def __post_init__(self):
        if self.on_size_mismatch not in ("reject", "warn"):
            raise ValueError("on_size_mismatch must be 'reject' or 'warn'")
        if self.size_match_factor < 1:
            raise ValueError("size_match_factor must be at least 1")
        if self.degeneracy_threshold <= 0:
            raise ValueError("degeneracy_threshold must be positive")


@dataclass(frozen=True)
class PipelineInput:
    """A run over Q when q is None, else over F_q for a prime q.

    epsilon is given over F_q and refused over Q, where it is delta/3.
    skew_e switches the point-set lift to the variant that scales only the
    first coordinate of E, which breaks the exact factorization whenever
    g1 != 1 and is kept for comparison runs.
    """

    A: ScalarSet
    G: GgpSpec
    delta: Fraction
    config: HarnessConfig = field(default_factory=HarnessConfig)
    q: int | None = None
    epsilon: Fraction | None = None
    skew_e: bool = False


@dataclass(frozen=True, kw_only=True)
class Report:
    """One pipeline run, over Q or over F_q.

    The field order is the output order.  q and the six field readouts
    (cond1_ok through q_delta_bound) are None on a rational run and set on
    a field run.  The command line's one writer leaves None fields out of
    the row it writes, so a rational row has 15 keys and a field row 22;
    no other row it writes holds a None.
    """

    q: int | None = None
    a_size: int
    aa_size: int
    g_formal_len: int
    g_realized_size: int
    b_size: int
    e_size: int
    pi_size: int
    c_size: int
    epsilon: str
    delta: str
    claim_bb_bound: int
    identity_ok: bool
    corollary1_ok: bool
    cond1_ok: bool | None = None
    cond1_margin: str | None = None
    cond2_ok: bool | None = None
    cond2_margin: str | None = None
    coverage_ok: bool | None = None
    q_delta_bound: bool | None = None
    bound_ratio: str
    constants: dict

    def structural_ok(self) -> bool:
        """All exactness checks a correct run must satisfy.  The square
        part bound only counts against proper progressions."""
        claim = self.constants.get("claim_bb")
        proper = self.constants.get("proper") == "true"
        return (self.identity_ok
                and self.constants.get("decomposition") == "pass"
                and not (proper and claim == "fail")
                and self.constants.get("g_bb_inclusion") != "fail")

    def finding(self) -> bool:
        """True when a guaranteed property measured false on this run: a
        structural check failed; over Q, C is empty, against Corollary 1;
        over F_q, the dot-product set misses part of F_q* where the
        coverage hypothesis holds.  Both commands exit 1 on it alone."""
        return (not self.structural_ok()
                or (self.q is None and not self.corollary1_ok)
                or (self.constants.get("coverage_hypothesis") == "holds"
                    and not self.coverage_ok))


def square_part(G: GgpSpec) -> ScalarSet:
    """B = {g in G/g1 : g*g in G/g1} for g1 = g0**r0, the first element of
    G, read off G's cached exponents less r0, the exponents of G/g1: g0**k
    is in B exactly when k and 2k (mod ord(g0) over F_q) are among them."""
    r0, n = G.exponents.r0, G.order
    ks = ({k - r0 for k in G.residues} if n is None
          else {(k - r0) % n for k in G.residues})
    return ggp_powers(G, [k for k in ks if (2 * k if n is None else 2 * k % n) in ks])


def square_part_bound_check(G: GgpSpec, B: ScalarSet) -> Tuple[int, bool]:
    """Lower bound prod(floor(l_j / 2)) for |B|, and the companion check
    that the bound times 3**d still reaches the formal length."""
    lengths = G.exponents.lengths
    bound = prod(l // 2 for l in lengths)
    ok = len(B) >= bound and bound * 3 ** len(lengths) >= G.formal_length
    return bound, ok


def build_point_sets(A: ScalarSet, B: ScalarSet, G1: ScalarSet,
                     skew: bool = False) -> Tuple[PointSet2, PointSet2]:
    """Lift A, B and G1 = {g1} to the planar pair (E, F).

    F = {(b, b*a)} and E = g1 * F, so every dot product expands to
    g1 * b * b' * (a*a' + 1).  With skew=True only the first coordinate of
    E is scaled; the products then expand to b * b' * (g1 + a*a') instead.
    Both are built on the int lattices of A, B and G1, which share a
    domain: over Q, F is {(b * da, b * a)} over da * db and E scales it by
    g1 = gn / gd; over F_q gn is g1's residue.  When g1 = 1, with or
    without skew, E is F, and F is returned twice.
    """
    domain = join_domains(join_domains(A.domain, B.domain), G1.domain)
    (na, da), (nb, db), ((gn,), gd) = A.lat, B.lat, G1.lat
    if domain != RATIONAL_DOMAIN:
        # residues, each reduced once as it is made
        q = domain
        F = [(b, b * a % q) for b in nb for a in na]
        Fset = PointSet2._canonical(F, q, q)
        if gn == 1:
            return Fset, Fset
        E = [(gn * x % q, y if skew else gn * y % q) for x, y in F]
        return PointSet2._canonical(E, q, q), Fset
    F = [(b * da, b * a) for b in nb for a in na]
    Fset = PointSet2.from_lattice(F, da * db, domain)
    if gn == gd == 1:
        return Fset, Fset
    E = [(gn * x, (gd if skew else gn) * y) for x, y in F]
    return PointSet2.from_lattice(E, gd * da * db, domain), Fset


def exceptional_set(AA1: ScalarSet, G: GgpSpec) -> ScalarSet:
    """C = AA1 \\ G for AA1 = AA+1, decided by one membership lookup per
    int lattice item of AA1; AA1 and G must share a domain."""
    (items, d), domain = AA1.lat, join_domains(AA1.domain, G.domain)
    # residues stay residues, but a part of a canonical set over Q may not be
    make = ScalarSet.from_lattice if domain == RATIONAL_DOMAIN else ScalarSet._canonical
    return make([n for n in items if not ggp_membership(G, n, d)], d, domain)


def decomposition_holds(Gset: ScalarSet, AA1: ScalarSet, inter: ScalarSet,
                        C: ScalarSet) -> bool:
    """G*(AA+1) == G*inter | G*C, for inter = G & (AA+1) and C the
    exceptional set.  The right side is G*(inter | C), so the two products
    are formed only when the parts miss some of AA+1."""
    parts = set_union(inter, C)
    return parts == AA1 or productset(Gset, AA1) == productset(Gset, parts)


def _coverage(E: PointSet2, F: PointSet2, dots: ScalarSet,
              q: int) -> Tuple[bool, int]:
    """The hypothesis |E| = |F| > q**(3/2), as len(E)**2 > q**3, and the
    number of units of F_q that the dot-product set reaches."""
    return len(E) == len(F) and len(E) ** 2 > q ** 3, len(dots) - (0 in dots.lat[0])


def run_pipeline(inp: PipelineInput) -> Report:
    """One run over Q (inp.q is None) or over F_q; see the module docstring."""
    A, G, q, delta, cfg = inp.A, inp.G, inp.q, Fraction(inp.delta), inp.config
    if q is None:
        if len(A) < 2:
            raise PreconditionError("need |A| >= 2")
        if A.domain != RATIONAL_DOMAIN or G.domain != RATIONAL_DOMAIN:
            raise PreconditionError("this pipeline runs over the rationals")
        if inp.epsilon is not None:
            raise PreconditionError("epsilon is delta/3 over the rationals and is not given")
        eps = delta / 3
        degrees = {"1 - delta/3": 1 - eps}
    else:
        if not is_prime(q):
            raise PreconditionError(f"{q} is not prime")
        if len(A) < 2:
            raise PreconditionError("need |A| >= 2")
        if A.domain != q or G.domain != q:
            raise PreconditionError(f"A and G must live in F_{q}")
        if cfg != HarnessConfig():
            raise PreconditionError("the config gates apply over the rationals only")
        if inp.epsilon is None:
            raise PreconditionError("a run over F_q needs epsilon")
        eps = Fraction(inp.epsilon)
        if eps <= 0:
            raise PreconditionError("epsilon must be positive")
        if eps > 1:
            raise PreconditionError("epsilon must be at most 1")
        degrees = {"3/2 + epsilon": Fraction(3, 2) + eps, "1 - epsilon": 1 - eps,
                   "delta": delta}
    if not (0 < delta < 1):
        raise PreconditionError("delta must lie strictly between 0 and 1")
    require_readout_degree({**degrees, "1 - delta": 1 - delta})

    constants = {}
    AA = productset(A, A)
    size = realized_size(G)
    if q is None:
        ratio = Fraction(size, len(AA))
        constants["size_match_ratio"] = str(ratio)
        if max(ratio, 1 / ratio) > cfg.size_match_factor:
            if cfg.on_size_mismatch == "reject":
                raise PreconditionError(
                    f"|G| = {size} vs |AA| = {len(AA)} is outside factor "
                    f"{cfg.size_match_factor}")
            constants["size_match"] = "warn"
        degeneracy = degeneracy_ratio(G)
        constants["degeneracy_ratio"] = str(degeneracy)
        if degeneracy > cfg.degeneracy_threshold:
            raise PreconditionError(
                f"degenerate progression: ratio {degeneracy} above "
                f"threshold {cfg.degeneracy_threshold}")

    AA1 = shift(AA, 1)
    # G*(AA+1) and G*G are refused as productset would refuse them, the
    # pairs before G's powers are built and the bits after, before G1 is;
    # every product of G with a part of AA+1 falls under the first
    for n in (len(AA1), size):
        _check_pair_budget(size, n, "productset")
    Gset = enumerate_ggp(G)
    for X in (AA1, Gset):
        _check_lattice_bits(Gset, X, "productset")
    G1 = ggp_powers(G, [G.exponents.r0])
    B = square_part(G)
    bb_bound, bb_ok = square_part_bound_check(G, B)
    # each size below is that of a set of exponents, so G and G/g1 share it
    proper = is_proper(G)
    constants["proper"] = "true" if proper else "false"
    constants["claim_bb"] = "pass" if bb_ok else "fail"
    # the exponent vectors with every coordinate even
    R = G.exponents
    constants["b_even_size"] = str(gap_size(0, [2 * r for r in R.generators],
                                            [(l + 1) // 2 for l in R.lengths], G.order))

    E, F = build_point_sets(A, B, G1, skew=inp.skew_e)
    if len(B) >= 2:
        # E is the image of F under g1*(x, y), or (g1*x, y) with skew_e, an
        # invertible linear map, so the two are collinear together
        constants["ef_non_collinear"] = "fail" if collinear(F) else "pass"
    else:
        constants["ef_non_collinear"] = "skipped"

    Pi = dot_product_set(E, F)
    BB = productset(B, B)
    rhs = productset(BB, productset(AA1, G1))

    if proper:
        constants["g_bb_inclusion"] = (
            "fail" if set_minus(productset(BB, G1), Gset) else "pass")
    else:
        constants["g_bb_inclusion"] = "skipped"

    C = exceptional_set(AA1, G)
    inter = set_intersect(Gset, AA1)
    G_inter = productset(Gset, inter)
    constants["decomposition"] = (
        "pass" if decomposition_holds(Gset, AA1, inter, C) else "fail")
    gg = sum_size(G)
    constants["gg_over_g"] = str(Fraction(gg, len(Gset)))
    constants["g_inter_le_gg"] = "pass" if len(G_inter) <= gg else "fail"

    if q is None:
        readouts = dict(bound_ratio=power_ratio_decimal(len(C), len(A), 1 - delta,
                                                        DECIMAL_DIGITS))
    else:
        hypothesis, covered = _coverage(E, F, Pi, q)
        constants["coverage_hypothesis"] = "holds" if hypothesis else "fails"
        cond1 = power_ratio_decimal(len(A) * len(AA), q, Fraction(3, 2) + eps,
                                    DECIMAL_DIGITS)
        cond2 = power_ratio_decimal(len(AA), q, 1 - delta, DECIMAL_DIGITS)
        bound = power_ratio_decimal(len(C), q, delta, DECIMAL_DIGITS)
        # each flag off its own readout, floor(10**20 * v) / 10**20 >= 1
        # exactly when v >= 1; cond2's v is never 1 (module docstring)
        readouts = dict(q=q, cond1_ok=Fraction(cond1) >= 1, cond1_margin=cond1,
                        cond2_ok=Fraction(cond2) < 1, cond2_margin=cond2,
                        coverage_ok=covered == q - 1,
                        q_delta_bound=Fraction(bound) >= 1, bound_ratio=bound)
    constants["pi_over_e_pow"] = power_ratio_decimal(
        len(Pi), max(1, len(E)), 1 - eps, DECIMAL_DIGITS)
    return Report(
        a_size=len(A),
        aa_size=len(AA),
        g_formal_len=G.formal_length,
        g_realized_size=len(Gset),
        b_size=len(B),
        e_size=len(E),
        pi_size=len(Pi),
        c_size=len(C),
        epsilon=str(eps),
        delta=str(delta),
        claim_bb_bound=bb_bound,
        identity_ok=Pi == rhs,
        corollary1_ok=len(C) >= 1,
        **readouts,
        constants=constants,
    )


# The benchmark still calls the pipeline by this name; ROADMAP item 1a
# deletes it with the next benchmark change.
run_main_pipeline = run_pipeline
