"""Prime-field twin of the pipeline, plus the dot-product coverage bound.

Over F_q the asymptotic hypotheses become exact integer comparisons by
clearing denominators: |A||AA| against q**(3/2 + eps) and |AA| against
q**(1 - delta), both via cross powers.  The conclusion reads |C| against
q**delta the same way.

The coverage bound says that planar point sets with |E| = |F| > q**(3/2)
have F_q* inside their dot-product set; it is checked on that set under a
hard pair cap.  The grouped dot kernel or numpy's blocks compute the set,
and both stop once it holds every residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .harness import (
    DECIMAL_DIGITS,
    PreconditionError,
    Report,
    _run_core,
    require_readout_degree,
)
from .numeric import (
    PrimeFieldElement,
    compare_power,
    is_prime,
    multiplicative_order,
    power_ratio_decimal,
)
from .progressions import GapSpec, GgpSpec, enumerate_ggp
from .setalg import PointSet2, ScalarSet, _check_pair_budget, dot_product_set, productset

__all__ = [
    "CoverageReport",
    "FfInput",
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
    skew_e: bool = False


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
    return hypothesis, len(dots) - (0 in dots.lat[0])


def coverage_check(E: PointSet2, F: PointSet2, q: int) -> CoverageReport:
    """Does the dot-product set of E and F reach every unit of F_q?

    hypothesis_ok records the exact comparison |E| = |F| > q**(3/2)
    (cross powers, no floats); when it holds and full is false, the run
    is a reportable finding.
    """
    if not is_prime(q):
        raise PreconditionError(f"{q} is not prime")
    if E.domain != q or F.domain != q:
        raise PreconditionError(f"E and F must live in F_{q}")
    _check_pair_budget(len(E), len(F), "coverage scan")
    hypothesis, covered = _coverage(E, F, dot_product_set(E, F), q)
    return CoverageReport(q=q, e_size=len(E), f_size=len(F),
                          hypothesis_ok=hypothesis, covered_size=covered,
                          full=covered == q - 1)


def subgroup_ggp(q: int, t: int) -> Tuple[ScalarSet, GgpSpec]:
    """The order-t subgroup of F_q*, realized as a progression.

    The base is the smallest generator of F_q*; exponents run through
    0, (q-1)/t, ..., (t-1)(q-1)/t.  Requires t | q-1 and t >= 3.

    The scan for the base tries g = 2, 3, ... within range(2, q), and it
    ends there: F_q* is cyclic, so it has a generator, and 1 is none, since
    the preconditions admit only q >= 5.  Each step is one
    multiplicative_order call, which reads the cached factorization of q-1
    and makes at most one modular power per prime factor of q-1, counted
    with multiplicity.
    """
    if not is_prime(q):
        raise PreconditionError(f"{q} is not prime")
    if t < 3:
        raise PreconditionError("subgroup order must be at least 3 for a progression")
    if (q - 1) % t != 0:
        raise PreconditionError(f"{t} does not divide {q - 1}")
    gamma = next(g for g in range(2, q)
                 if multiplicative_order(PrimeFieldElement(g, q)) == q - 1)
    G = GgpSpec(PrimeFieldElement(gamma, q),
                GapSpec(0, ((q - 1) // t,), (t,)))
    return enumerate_ggp(G), G


def run_field_pipeline(inp: FfInput) -> Report:
    q, A, G = inp.q, inp.A, inp.G
    eps, delta = Fraction(inp.epsilon), Fraction(inp.delta)
    if not is_prime(q):
        raise PreconditionError(f"{q} is not prime")
    if len(A) < 2:
        raise PreconditionError("need |A| >= 2")
    if A.domain != q or G.domain != q:
        raise PreconditionError(f"A and G must live in F_{q}")
    if eps <= 0:
        raise PreconditionError("epsilon must be positive")
    if eps > 1:
        raise PreconditionError("epsilon must be at most 1")
    if not (0 < delta < 1):
        raise PreconditionError("delta must lie strictly between 0 and 1")
    require_readout_degree({"3/2 + epsilon": Fraction(3, 2) + eps,
                            "1 - epsilon": 1 - eps, "delta": delta,
                            "1 - delta": 1 - delta})

    constants = {}
    shared, E, F, Pi = _run_core(A, productset(A, A), G, eps, delta,
                                 inp.skew_e, constants)
    aa, c = shared["aa_size"], shared["c_size"]
    hypothesis, covered = _coverage(E, F, Pi, q)
    constants["coverage_hypothesis"] = "holds" if hypothesis else "fails"
    constants["pi_over_e_pow"] = power_ratio_decimal(
        len(Pi), max(1, len(E)), 1 - eps, DECIMAL_DIGITS)
    return Report(
        q=q,
        **shared,
        cond1_ok=compare_power(len(A) * aa, q, Fraction(3, 2) + eps) >= 0,
        cond1_margin=power_ratio_decimal(len(A) * aa, q, Fraction(3, 2) + eps,
                                         DECIMAL_DIGITS),
        cond2_ok=compare_power(aa, q, 1 - delta) <= 0,
        cond2_margin=power_ratio_decimal(aa, q, 1 - delta, DECIMAL_DIGITS),
        coverage_ok=covered == q - 1,
        q_delta_bound=compare_power(c, q, delta) >= 0,
        bound_ratio=power_ratio_decimal(c, q, delta, DECIMAL_DIGITS),
        constants=constants,
    )
