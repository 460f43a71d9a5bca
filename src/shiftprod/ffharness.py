"""Prime-field twin of the pipeline, plus the dot-product coverage bound.

Over F_q the asymptotic hypotheses become exact integer comparisons by
clearing denominators: |A||AA| against q**(3/2 + eps) and |AA| against
q**(1 - delta), both via cross powers.  The conclusion reads |C| against
q**delta the same way.

The coverage bound says that planar point sets with |E| = |F| > q**(3/2)
have F_q* inside their dot-product set; it is checked by exhaustive
enumeration under a hard pair cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Tuple

from .harness import (
    DECIMAL_DIGITS,
    HarnessConfig,
    PreconditionError,
    Report,
    _run_core,
)
from .numeric import (
    PrimeFieldElement,
    compare_power,
    is_prime,
    multiplicative_order,
    power_ratio_decimal,
)
from .progressions import GapSpec, GgpSpec, enumerate_ggp
from .setalg import PAIR_CAP, PointSet2, ScalarSet, dot_product_set

__all__ = [
    "CoverageReport",
    "FfInput",
    "FfReport",
    "coverage_check",
    "run_field_pipeline",
    "subgroup_ggp",
]


@dataclass(frozen=True)
class FfInput:
    q: int
    A: ScalarSet
    G: GgpSpec
    epsilon: Fraction
    delta: Fraction
    config: HarnessConfig = field(default_factory=HarnessConfig)


@dataclass(frozen=True)
class FfReport(Report):
    """One prime-field pipeline run."""

    q: int
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
    cond1_ok: bool
    cond1_margin: str
    cond2_ok: bool
    cond2_margin: str
    coverage_ok: bool
    q_delta_bound: bool
    bound_ratio: str
    constants: dict

    def finding(self) -> bool:
        """True when a guaranteed property measured false on this run."""
        if not self.structural_ok():
            return True
        if self.constants.get("coverage_hypothesis") == "holds" and not self.coverage_ok:
            return True
        return False


@dataclass(frozen=True)
class CoverageReport:
    q: int
    e_size: int
    f_size: int
    hypothesis_ok: bool
    covered_size: int
    full: bool


def _coverage(E: PointSet2, F: PointSet2, dots: ScalarSet,
              q: int) -> Tuple[bool, int]:
    """The hypothesis |E| = |F| > q**(3/2), by exact cross powers, and the
    number of units of F_q that the dot-product set reaches."""
    hypothesis = (len(E) == len(F)
                  and compare_power(len(E), q, Fraction(3, 2)) > 0)
    return hypothesis, sum(1 for x in dots if x.residue != 0)


def coverage_check(E: PointSet2, F: PointSet2, q: int) -> CoverageReport:
    """Does the dot-product set of E and F reach every unit of F_q?

    hypothesis_ok records the exact comparison |E| = |F| > q**(3/2)
    (cross powers, no floats); when it holds and full is false, the run
    is a reportable finding.
    """
    if not is_prime(q):
        raise PreconditionError(f"{q} is not prime")
    if len(E) * len(F) > PAIR_CAP:
        raise PreconditionError(
            f"coverage scan needs {len(E) * len(F)} pairs, above the cap {PAIR_CAP}")
    hypothesis, covered = _coverage(E, F, dot_product_set(E, F), q)
    return CoverageReport(q=q, e_size=len(E), f_size=len(F),
                          hypothesis_ok=hypothesis, covered_size=covered,
                          full=covered == q - 1)


def subgroup_ggp(q: int, t: int) -> Tuple[ScalarSet, GgpSpec]:
    """The order-t subgroup of F_q*, realized as a progression.

    The base is the smallest generator of F_q*; exponents run through
    0, (q-1)/t, ..., (t-1)(q-1)/t.  Requires t | q-1 and t >= 3.
    """
    if not is_prime(q):
        raise PreconditionError(f"{q} is not prime")
    if t < 3:
        raise PreconditionError("subgroup order must be at least 3 for a progression")
    if (q - 1) % t != 0:
        raise PreconditionError(f"{t} does not divide {q - 1}")
    gamma = None
    for g in range(2, q):
        if multiplicative_order(PrimeFieldElement(g, q)) == q - 1:
            gamma = g
            break
    if gamma is None:
        raise PreconditionError(f"no generator found for F_{q}*")
    G = GgpSpec(PrimeFieldElement(gamma, q),
                GapSpec(0, ((q - 1) // t,), (t,)))
    return enumerate_ggp(G), G


def run_field_pipeline(inp: FfInput) -> FfReport:
    q, A, G = inp.q, inp.A, inp.G
    eps, delta, cfg = Fraction(inp.epsilon), Fraction(inp.delta), inp.config
    if not is_prime(q):
        raise PreconditionError(f"{q} is not prime")
    if len(A) < 2:
        raise PreconditionError("need |A| >= 2")
    if A.domain != q or G.domain != q:
        raise PreconditionError(f"A and G must live in F_{q}")
    if eps <= 0:
        raise PreconditionError("epsilon must be positive")
    if not (0 < delta < 1):
        raise PreconditionError("delta must lie strictly between 0 and 1")

    constants = {}
    core = _run_core(A, G, cfg, constants)
    a, aa, c = len(A), len(core.AA), len(core.C)

    cond1_ok = compare_power(a * aa, q, Fraction(3, 2) + eps) >= 0
    cond1_margin = power_ratio_decimal(a * aa, q, Fraction(3, 2) + eps,
                                       DECIMAL_DIGITS)
    cond2_ok = compare_power(aa, q, 1 - delta) <= 0
    cond2_margin = power_ratio_decimal(aa, q, 1 - delta, DECIMAL_DIGITS)

    hypothesis, covered = _coverage(core.E, core.F, core.Pi, q)
    constants["coverage_hypothesis"] = "holds" if hypothesis else "fails"
    coverage_ok = covered == q - 1

    q_delta_bound = compare_power(c, q, delta) >= 0
    bound_ratio = power_ratio_decimal(c, q, delta, DECIMAL_DIGITS)
    constants["pi_over_e_pow"] = power_ratio_decimal(
        len(core.Pi), max(1, len(core.E)), 1 - eps, DECIMAL_DIGITS)

    return FfReport(
        q=q,
        a_size=a,
        aa_size=aa,
        g_formal_len=G.formal_length,
        g_realized_size=len(core.Gset),
        b_size=len(core.B),
        e_size=len(core.E),
        pi_size=len(core.Pi),
        c_size=c,
        epsilon=str(eps),
        delta=str(delta),
        claim_bb_bound=core.bb_bound,
        identity_ok=core.identity_ok,
        corollary1_ok=c >= 1,
        cond1_ok=cond1_ok,
        cond1_margin=cond1_margin,
        cond2_ok=cond2_ok,
        cond2_margin=cond2_margin,
        coverage_ok=coverage_ok,
        q_delta_bound=q_delta_bound,
        bound_ratio=bound_ratio,
        constants=constants,
    )
