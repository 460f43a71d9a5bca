"""The benchmark reaches into the program from ``bench/``: the traced run
wraps named functions of the program, and the workloads' checks recompute
sizes on elements.  Each must keep working, or the benchmark breaks."""

from fractions import Fraction
from pathlib import Path

from shiftprod.ffharness import FfInput, run_field_pipeline, subgroup_ggp
from shiftprod.harness import PipelineInput, run_main_pipeline
from shiftprod.numeric import PrimeField
from shiftprod.progressions import GapSpec, GgpSpec
from shiftprod.setalg import ScalarSet, productset, shift

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def test_every_traced_boundary_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans

    for mod, attr, _, _ in spans.BOUNDARIES:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"


def test_workload_checks_agree_with_the_field_pipeline(monkeypatch):
    # the checks multiply field elements and shift them by 1, so they need
    # PrimeFieldElement's * and +; over F_13, 12*1 + 1 wraps to 0
    monkeypatch.syspath_prepend(BENCH)
    import workloads

    q = 13
    A, G = subgroup_ggp(q, 4)
    rep = run_field_pipeline(FfInput(q=q, A=A, G=G, epsilon=workloads.EPSILON,
                                     delta=workloads.DELTA))
    aa1 = workloads._aa1(A)
    assert aa1 == shift(productset(A, A), 1).elems
    assert PrimeField(q)(0) in aa1
    assert workloads._literal_sizes(A, G) == (rep.b_size, rep.c_size) == (4, 4)
    assert workloads._check_pipeline(rep, A, G, q) == []


def test_workload_checks_agree_with_the_rational_pipeline(monkeypatch):
    # a proper 2-D progression with a non-integer base, as rational-verify
    # draws them
    monkeypatch.syspath_prepend(BENCH)
    import workloads

    A = ScalarSet([1, 2, 3, 5])
    G = GgpSpec(Fraction(3, 2), GapSpec(1, (1, 5), (3, 3)))
    rep = run_main_pipeline(PipelineInput(A=A, G=G, delta=workloads.DELTA))
    assert workloads._literal_sizes(A, G) == (rep.b_size, rep.c_size) == (4, 10)
    assert workloads._check_pipeline(rep, A, G) == []
