import random
import tracemalloc
from fractions import Fraction

import pytest

from cfrealize import AnalyticModel, BilinearModel, MultiPoly, PolyVectorField


def rand_fraction(rng, bound=2, max_den=4):
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-bound * den, bound * den), den)


def rand_bilinear(rng, n, m, bound=2, max_den=4):
    mats = tuple(
        tuple(tuple(rand_fraction(rng, bound, max_den) for _ in range(n)) for _ in range(n))
        for _ in range(m + 1)
    )
    x0 = tuple(rand_fraction(rng, bound, max_den) for _ in range(n))
    c = tuple(rand_fraction(rng, bound, max_den) for _ in range(n))
    return BilinearModel(n, m, x0, mats, c)


def rand_poly(rng, n, deg, density=0.5, bound=2):
    import itertools

    terms = {}
    for exps in itertools.product(range(deg + 1), repeat=n):
        if sum(exps) <= deg and rng.random() < density:
            c = rng.randint(-bound, bound)
            if c:
                terms[exps] = Fraction(c)
    return MultiPoly(n, terms)


def rand_analytic(rng, n, m, field_deg=2):
    fields = tuple(
        PolyVectorField(tuple(rand_poly(rng, n, field_deg) for _ in range(n)))
        for _ in range(m + 1)
    )
    readout = rand_poly(rng, n, 2, density=0.8)
    x0 = tuple(Fraction(rng.randint(-1, 1)) for _ in range(n))
    return AnalyticModel(n, m, x0, fields, readout)


def traced_peak(fn, *args):
    """The peak bytes tracemalloc traces while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return random.Random(20240901)
