"""The traced benchmark run wraps named functions of the program; each of
those names must stay bound, or ``--trace 1`` breaks."""

from pathlib import Path

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def test_every_traced_boundary_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans

    for mod, attr, _, _ in spans.BOUNDARIES:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"
