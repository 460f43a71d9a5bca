"""End-to-end pipeline over the rationals.

Given a finite set A and a generalized geometric progression G of
comparable size, the pipeline measures how much of the shifted product set
AA+1 escapes G.  The route:

  * normalize G by its first element g1, so the progression starts at 1;
  * collect the square part B = {g in G' : g*g in G'} and bound it from
    below by the product of the half lengths;
  * lift A and B to planar point sets E = g1*F and F = {(b, b*a)} whose
    dot-product set factors exactly as g1 * BB * (AA+1);
  * verify that factorization and the exact decomposition of G*(AA+1);
  * collect the exceptional set C = (AA+1) \\ G by symbolic membership and
    read off |C| / |A|**(1-delta) to a fixed number of digits.

Every check is exact; measured stand-ins for asymptotic constants are
reported as rational or fixed-digit decimal strings in the constants
ledger of the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional, Tuple

from .numeric import (
    PrimeFieldElement,
    RATIONAL_DOMAIN,
    power_ratio_decimal,
    scalar_pow,
)
from .progressions import (
    GapSpec,
    GgpSpec,
    degeneracy_ratio,
    enumerate_ggp,
    ggp_membership,
    is_proper,
    realized_size,
)
from .setalg import (
    Point2,
    PointSet2,
    ScalarSet,
    collinear,
    dot_product_set,
    productset,
    scale,
    set_intersect,
    set_union,
    shift,
)

__all__ = [
    "HarnessConfig",
    "MainReport",
    "PipelineInput",
    "PreconditionError",
    "Report",
    "build_point_sets",
    "dot_identity_check",
    "exceptional_set",
    "first_element",
    "normalize",
    "run_main_pipeline",
    "shift_escape_experiment",
    "square_part",
    "square_part_bound_check",
]

DECIMAL_DIGITS = 20


class PreconditionError(ValueError):
    """Input rejected before any pipeline work ran."""


@dataclass(frozen=True)
class HarnessConfig:
    """Policy knobs of the pipelines.

    size_match_factor, degeneracy_threshold and on_size_mismatch are
    preconditions of the rational pipeline only: size_match_factor bounds
    |G| / |AA| from both sides, degeneracy_threshold caps the degeneracy
    ratio of G, and on_size_mismatch picks reject (error) or warn (run
    anyway, ledger the ratio).  skew_e applies to both pipelines: it
    switches the point-set lift to the variant that scales only the first
    coordinate of E, which breaks the exact factorization whenever g1 != 1
    and is kept for comparison runs.
    """

    size_match_factor: Fraction = Fraction(2)
    degeneracy_threshold: Fraction = Fraction(1)
    on_size_mismatch: str = "reject"
    skew_e: bool = False

    def __post_init__(self):
        if self.on_size_mismatch not in ("reject", "warn"):
            raise ValueError("on_size_mismatch must be 'reject' or 'warn'")
        if self.size_match_factor < 1:
            raise ValueError("size_match_factor must be at least 1")


@dataclass(frozen=True)
class PipelineInput:
    A: ScalarSet
    G: GgpSpec
    delta: Fraction
    config: HarnessConfig = field(default_factory=HarnessConfig)


class Report:
    """Serialization and structural checks shared by the pipeline reports.

    Subclasses are frozen dataclasses whose field order is the
    serialization order.
    """

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str):
        return cls(**json.loads(text))

    @classmethod
    def csv_header(cls):
        return [f.name for f in fields(cls)]

    def to_csv_row(self):
        row = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, dict):
                row.append(json.dumps(v, sort_keys=True))
            elif isinstance(v, bool):
                row.append("true" if v else "false")
            else:
                row.append(str(v))
        return row

    def structural_ok(self) -> bool:
        """All exactness checks a correct run must satisfy.  The square
        part bound only counts against proper progressions."""
        claim = self.constants.get("claim_bb")
        proper = self.constants.get("proper") == "true"
        return (self.identity_ok
                and self.constants.get("decomposition") == "pass"
                and not (proper and claim == "fail")
                and self.constants.get("g_bb_inclusion") != "fail")


@dataclass(frozen=True)
class MainReport(Report):
    """One rational pipeline run."""

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
    bound_ratio: str
    constants: dict


def _one_for(domain):
    if domain == RATIONAL_DOMAIN or domain is None:
        return 1
    return PrimeFieldElement(1, domain)


def first_element(G: GgpSpec):
    """g0 ** r0, the anchor the progression is normalized by."""
    return scalar_pow(G.g0, G.exponents.r0)


def normalize(G: GgpSpec) -> GgpSpec:
    """Same progression divided by its first element: r0 becomes 0."""
    R = G.exponents
    return GgpSpec(G.g0, GapSpec(0, R.generators, R.lengths))


def square_part(Gn: GgpSpec) -> ScalarSet:
    """B = {g in Gn : g*g in Gn}, by the literal membership predicate."""
    elems = enumerate_ggp(Gn)
    return ScalarSet(g for g in elems if ggp_membership(Gn, g * g))


def square_part_bound_check(G: GgpSpec, B: ScalarSet) -> Tuple[int, bool]:
    """Lower bound prod(floor(l_j / 2)) for |B|, and the companion check
    that the bound times 3**d still reaches the formal length."""
    lengths = G.exponents.lengths
    bound = 1
    for l in lengths:
        bound *= l // 2
    ok = len(B) >= bound and bound * 3 ** len(lengths) >= G.formal_length
    return bound, ok


def _even_part_size(Gn: GgpSpec) -> int:
    R = Gn.exponents
    exps = {R.value_at(v) for v in R.vectors() if all(x % 2 == 0 for x in v)}
    return len(ScalarSet(scalar_pow(Gn.g0, k) for k in exps))


def build_point_sets(A: ScalarSet, B: ScalarSet, g1,
                     skew: bool = False) -> Tuple[PointSet2, PointSet2]:
    """Lift (A, B, g1) to the planar pair (E, F).

    F = {(b, b*a)} and E = g1 * F, so every dot product expands to
    g1 * b * b' * (a*a' + 1).  With skew=True only the first coordinate of
    E is scaled; the products then expand to b * b' * (g1 + a*a') instead.
    """
    F = PointSet2(Point2(b, b * a) for b in B for a in A)
    if skew:
        E = PointSet2(Point2(b * g1, b * a) for b in B for a in A)
    else:
        E = PointSet2(Point2(g1 * b, g1 * b * a) for b in B for a in A)
    return E, F


def dot_identity_check(A: ScalarSet, B: ScalarSet, g1,
                       skew: bool = False) -> Tuple[ScalarSet, ScalarSet, bool]:
    """Both sides of the factorization, computed independently."""
    E, F = build_point_sets(A, B, g1, skew=skew)
    lhs = dot_product_set(E, F)
    AA1 = shift(productset(A, A), _one_for(A.domain))
    rhs = scale(productset(productset(B, B), AA1), g1)
    return lhs, rhs, lhs == rhs


def exceptional_set(A: ScalarSet, G: GgpSpec) -> ScalarSet:
    """C = (AA+1) \\ G, decided pointwise by symbolic membership."""
    AA1 = shift(productset(A, A), _one_for(A.domain))
    return ScalarSet(x for x in AA1 if not ggp_membership(G, x))


def _run_core(A: ScalarSet, G: GgpSpec, cfg: HarnessConfig,
              constants: dict) -> SimpleNamespace:
    """The mode-independent middle of both pipelines."""
    AA = productset(A, A)
    AA1 = shift(AA, _one_for(A.domain))
    g1 = first_element(G)
    Gn = normalize(G)
    Gset = enumerate_ggp(G)
    B = square_part(Gn)
    bb_bound, bb_ok = square_part_bound_check(G, B)
    proper = is_proper(Gn)
    constants["proper"] = "true" if proper else "false"
    constants["claim_bb"] = "pass" if bb_ok else "fail"
    constants["b_even_size"] = str(_even_part_size(Gn))

    E, F = build_point_sets(A, B, g1, skew=cfg.skew_e)
    if len(A) >= 2 and len(B) >= 2:
        constants["ef_non_collinear"] = (
            "pass" if not collinear(E) and not collinear(F) else "fail")
    else:
        constants["ef_non_collinear"] = "skipped"

    Pi = dot_product_set(E, F)
    BB = productset(B, B)
    rhs = scale(productset(BB, AA1), g1)
    identity_ok = Pi == rhs

    if proper:
        constants["g_bb_inclusion"] = (
            "pass" if scale(BB, g1).elems <= Gset.elems else "fail")
    else:
        constants["g_bb_inclusion"] = "skipped"

    C = exceptional_set(A, G)
    inter = set_intersect(Gset, AA1)
    G_inter = productset(Gset, inter)
    lhs_dec = productset(Gset, AA1)
    rhs_dec = set_union(G_inter, productset(Gset, C))
    constants["decomposition"] = "pass" if lhs_dec == rhs_dec else "fail"
    GG = productset(Gset, Gset)
    constants["gg_over_g"] = str(Fraction(len(GG), len(Gset)))
    constants["g_inter_le_gg"] = "pass" if len(G_inter) <= len(GG) else "fail"

    return SimpleNamespace(AA=AA, AA1=AA1, g1=g1, Gset=Gset, B=B,
                           bb_bound=bb_bound, E=E, F=F, Pi=Pi,
                           identity_ok=identity_ok, C=C, proper=proper)


def run_main_pipeline(inp: PipelineInput) -> MainReport:
    A, G, delta, cfg = inp.A, inp.G, Fraction(inp.delta), inp.config
    if len(A) < 2:
        raise PreconditionError("need |A| >= 2")
    if A.domain != RATIONAL_DOMAIN or G.domain != RATIONAL_DOMAIN:
        raise PreconditionError("this pipeline runs over the rationals")
    if not (0 < delta < 1):
        raise PreconditionError("delta must lie strictly between 0 and 1")

    constants = {}
    aa_size = len(productset(A, A))
    g_realized = realized_size(G)
    ratio = Fraction(g_realized, aa_size)
    constants["size_match_ratio"] = str(ratio)
    if max(ratio, 1 / ratio) > cfg.size_match_factor:
        if cfg.on_size_mismatch == "reject":
            raise PreconditionError(
                f"|G| = {g_realized} vs |AA| = {aa_size} is outside factor "
                f"{cfg.size_match_factor}")
        constants["size_match"] = "warn"
    degeneracy = degeneracy_ratio(G)
    constants["degeneracy_ratio"] = str(degeneracy)
    if degeneracy > cfg.degeneracy_threshold:
        raise PreconditionError(
            f"degenerate progression: ratio {degeneracy} above "
            f"threshold {cfg.degeneracy_threshold}")

    core = _run_core(A, G, cfg, constants)
    eps = delta / 3
    constants["pi_over_e_pow"] = power_ratio_decimal(
        len(core.Pi), max(1, len(core.E)), 1 - eps, DECIMAL_DIGITS)
    bound_ratio = power_ratio_decimal(len(core.C), len(A), 1 - delta,
                                      DECIMAL_DIGITS)

    return MainReport(
        a_size=len(A),
        aa_size=aa_size,
        g_formal_len=G.formal_length,
        g_realized_size=len(core.Gset),
        b_size=len(core.B),
        e_size=len(core.E),
        pi_size=len(core.Pi),
        c_size=len(core.C),
        epsilon=str(eps),
        delta=str(delta),
        claim_bb_bound=core.bb_bound,
        identity_ok=core.identity_ok,
        corollary1_ok=len(core.C) >= 1,
        bound_ratio=bound_ratio,
        constants=constants,
    )


def shift_escape_experiment(H: GgpSpec, G: GgpSpec, delta: Fraction,
                            config: Optional[HarnessConfig] = None):
    """Shift escape for progressions themselves.

    H is lifted to A = H union {1}, so that A*A covers H and the pipeline
    applies; the experiment then checks directly that H+1 leaves G.
    Returns (report, escape set, escaped flag).
    """
    Hset = enumerate_ggp(H)
    A = set_union(Hset, ScalarSet([_one_for(Hset.domain)]))
    inp = PipelineInput(A=A, G=G, delta=Fraction(delta),
                        config=config or HarnessConfig())
    report = run_main_pipeline(inp)
    H1 = shift(Hset, _one_for(Hset.domain))
    escape = ScalarSet(x for x in H1 if not ggp_membership(G, x))
    return report, escape, len(escape) >= 1
