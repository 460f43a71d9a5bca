"""Exact-arithmetic workbench for the multiplicative structure of shifted
product sets AA+1 against generalized geometric progressions, over the
rationals and over prime fields."""

from .numeric import (
    DomainMismatchError,
    ParseError,
    PrimeField,
    PrimeFieldElement,
    Scalar,
)
from .setalg import Point2, PointSet2, ScalarSet
from .progressions import GapSpec, GgpSpec
from .harness import HarnessConfig, PipelineInput, Report, run_pipeline
from .ffharness import subgroup_ggp
from .explorer import CoverQuery, CoverResult, conjecture_scan, search_bc

__version__ = "0.1.0"

__all__ = [
    "CoverQuery",
    "CoverResult",
    "DomainMismatchError",
    "GapSpec",
    "GgpSpec",
    "HarnessConfig",
    "ParseError",
    "PipelineInput",
    "Point2",
    "PointSet2",
    "PrimeField",
    "PrimeFieldElement",
    "Report",
    "Scalar",
    "ScalarSet",
    "conjecture_scan",
    "run_pipeline",
    "search_bc",
    "subgroup_ggp",
    "__version__",
]
