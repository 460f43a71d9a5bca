import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from shiftprod.numeric import PrimeFieldElement
from shiftprod.progressions import GapSpec, GgpSpec, is_proper
from shiftprod.setalg import ScalarSet

SRC = str(Path(__file__).resolve().parent.parent / "src")

RATIONAL_BASES = [2, 3, 5, 7, 10, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)]
FIELD_PRIMES = [53, 101, 103, 151]


def make_int_set(rng: random.Random, size: int, lo: int = 1, hi: int = 50) -> ScalarSet:
    return ScalarSet(rng.sample(range(lo, hi + 1), size))


def make_proper_gap(rng: random.Random, d: int = None, max_len: int = 6,
                    gen_hi: int = 60, tries: int = 2000) -> GapSpec:
    if d is None:
        d = rng.randint(1, 3)
    for _ in range(tries):
        lens = tuple(rng.randint(3, max_len) for _ in range(d))
        gens = tuple(rng.randint(1, gen_hi) * rng.choice([1, 1, 1, -1])
                     for _ in range(d))
        r0 = rng.randint(-5, 5)
        spec = GapSpec(r0, gens, lens)
        if is_proper(spec):
            return spec
    raise AssertionError("no proper progression found")


def make_proper_ggp(rng: random.Random, d: int = None) -> GgpSpec:
    gap = make_proper_gap(rng, d=d, gen_hi=12)
    return GgpSpec(rng.choice(RATIONAL_BASES), gap)


def make_proper_field_ggp(rng: random.Random, d: int = None, tries: int = 4000) -> GgpSpec:
    q = rng.choice(FIELD_PRIMES)
    if d is None:
        d = rng.randint(1, 3)
    # properness here means the exponent grid stays injective modulo the
    # order of the base, so the progression is built directly and filtered
    for _ in range(tries):
        lens = tuple(rng.randint(3, 6) for _ in range(d))
        gens = tuple(rng.randint(1, q - 1) for _ in range(d))
        r0 = rng.randint(0, 5)
        g0 = PrimeFieldElement(rng.randint(2, q - 1), q)
        spec = GgpSpec(g0, GapSpec(r0, gens, lens))
        if is_proper(spec):
            return spec
    raise AssertionError("no proper field progression found")


@pytest.fixture
def rng():
    return random.Random(20260822)


@pytest.fixture(autouse=True, scope="session")
def src_on_child_path():
    """Child interpreters (``python -m shiftprod.cli``) import the package
    from this checkout too, also when it is not installed."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield
