"""Coverage bound and subgroups over F_q.

The coverage bound says that planar point sets with |E| = |F| > q**(3/2)
have F_q* inside their dot-product set; coverage_check checks it on that
set under a hard pair cap, by the pipeline's own rule.  The grouped dot
kernel or numpy's blocks compute the set, and both stop once it holds
every residue.  subgroup_ggp realizes a subgroup of F_q* as a progression.
The pipeline itself, over Q and over F_q, is harness.run_pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .harness import PipelineInput, PreconditionError, _coverage, run_pipeline
from .numeric import PrimeFieldElement, is_prime, multiplicative_order
from .progressions import GapSpec, GgpSpec, enumerate_ggp
from .setalg import PointSet2, ScalarSet, _check_pair_budget, dot_product_set

__all__ = [
    "CoverageReport",
    "coverage_check",
    "subgroup_ggp",
]

# The benchmark still calls the pipeline by these names; ROADMAP item 1a
# deletes them with the next benchmark change.
FfInput, run_field_pipeline = PipelineInput, run_pipeline


@dataclass(frozen=True)
class CoverageReport:
    q: int
    e_size: int
    f_size: int
    hypothesis_ok: bool
    covered_size: int
    full: bool

    def finding(self) -> bool:
        """The coverage bound measured false; verify-ff --full-plane exits 1 on it."""
        return self.hypothesis_ok and not self.full


def coverage_check(E: PointSet2, F: PointSet2, q: int) -> CoverageReport:
    """Does the dot-product set of E and F reach every unit of F_q?

    hypothesis_ok records the exact comparison |E| = |F| > q**(3/2), as
    len(E)**2 > q**3; when it holds and full is false, finding() is true.
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
