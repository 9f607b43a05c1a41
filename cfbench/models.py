"""Seeded model generators and the model-file text that the program reads.

Everything here is independent of ``cfrealize``: models are plain data, and
their files are written with this module's own formatter, so the program
only ever sees text.

A polynomial is a dict mapping exponent tuples to ``Fraction`` coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Bilinear:
    """dx = A0 x dt + sum_i A_i x o dW_i, y = C x; coefficient of the word
    (i1, ..., ik) is C A_i1 ... A_ik x0."""

    n: int
    m: int
    x0: tuple
    mats: tuple  # m + 1 matrices, each a tuple of row tuples
    c: tuple


@dataclass(frozen=True)
class Analytic:
    """dx = g0(x) dt + sum_i g_i(x) o dW_i, y = h(x), polynomial fields."""

    n: int
    m: int
    x0: tuple
    fields: tuple  # m + 1 vector fields, each a tuple of n polynomials
    readout: dict


def rand_fraction(rng, bound=2, max_den=4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-bound * den, bound * den), den)


def dense_bilinear(rng, n: int, m: int) -> Bilinear:
    """Every entry drawn from rand_fraction (zeros allowed)."""

    def mat():
        return tuple(tuple(rand_fraction(rng) for _ in range(n)) for _ in range(n))

    mats = tuple(mat() for _ in range(m + 1))
    x0 = tuple(rand_fraction(rng) for _ in range(n))
    c = tuple(rand_fraction(rng) for _ in range(n))
    return Bilinear(n, m, x0, mats, c)


def filter_bilinear(rng, d: int, m: int) -> Bilinear:
    """Order-d linear filter dX = A X dt + B dW, Y = C X, X(0) = 0, written
    as a (d+1)-state bilinear model whose last state is the constant 1.

    The word 0^k i then has coefficient C A^k B_i (the Markov parameter) and
    every other word has coefficient 0.
    """
    a = [[rand_fraction(rng) for _ in range(d)] for _ in range(d)]
    b = [[rand_fraction(rng) for _ in range(m)] for _ in range(d)]
    c = [rand_fraction(rng) for _ in range(d)]
    zero = Fraction(0)
    a0 = tuple(tuple(a[r]) + (zero,) for r in range(d)) + ((zero,) * (d + 1),)
    mats = [a0]
    for i in range(m):
        ai = tuple((zero,) * d + (b[r][i],) for r in range(d)) + ((zero,) * (d + 1),)
        mats.append(ai)
    x0 = (zero,) * d + (Fraction(1),)
    return Bilinear(d + 1, m, x0, tuple(mats), tuple(c) + (zero,))


def rand_poly(rng, n: int, deg: int, density=0.5, bound=2) -> dict:
    terms = {}
    for exps in itertools.product(range(deg + 1), repeat=n):
        if sum(exps) <= deg and rng.random() < density:
            c = rng.randint(-bound, bound)
            if c:
                terms[exps] = Fraction(c)
    return terms


def rand_analytic(rng, n: int, m: int, field_deg=2) -> Analytic:
    fields = tuple(
        tuple(rand_poly(rng, n, field_deg) for _ in range(n)) for _ in range(m + 1)
    )
    readout = rand_poly(rng, n, 2, density=0.8)
    x0 = tuple(Fraction(rng.randint(-1, 1)) for _ in range(n))
    return Analytic(n, m, x0, fields, readout)


# -- change of coordinates ---------------------------------------------------
#
# z = T x with T = P D: coordinate j is scaled by diag[j] and moved to
# position perm[j].  Such a T maps every monomial to a single monomial, so a
# sparse model stays sparse, and the generating series (the input-output map)
# is unchanged.

SCALES = tuple(Fraction(v) for v in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-2/3"))


def draw_coordinates(rng, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    diag = [rng.choice(SCALES) for _ in range(n)]
    return perm, diag


def transform_bilinear(model: Bilinear, perm, diag) -> Bilinear:
    n = model.n

    def mat(a):
        # (T A T^-1)[perm[r]][perm[s]] = diag[r] * A[r][s] / diag[s]
        out = [[Fraction(0)] * n for _ in range(n)]
        for r in range(n):
            for s in range(n):
                out[perm[r]][perm[s]] = diag[r] * a[r][s] / diag[s]
        return tuple(tuple(row) for row in out)

    x0 = [Fraction(0)] * n
    c = [Fraction(0)] * n
    for j in range(n):
        x0[perm[j]] = diag[j] * model.x0[j]
        c[perm[j]] = model.c[j] / diag[j]
    return Bilinear(n, model.m, tuple(x0), tuple(mat(a) for a in model.mats), tuple(c))


def transform_poly(p: dict, perm, diag) -> dict:
    """p(x) rewritten in z = T x, i.e. p(T^-1 z)."""
    out = {}
    for exps, c in p.items():
        new = [0] * len(exps)
        scale = Fraction(1)
        for j, e in enumerate(exps):
            new[perm[j]] = e
            scale /= diag[j] ** e
        out[tuple(new)] = c * scale
    return out


def transform_analytic(model: Analytic, perm, diag) -> Analytic:
    n = model.n
    fields = []
    for g in model.fields:
        comps = [None] * n
        for j in range(n):
            comps[perm[j]] = {
                e: diag[j] * c for e, c in transform_poly(g[j], perm, diag).items()
            }
        fields.append(tuple(comps))
    x0 = [Fraction(0)] * n
    for j in range(n):
        x0[perm[j]] = diag[j] * model.x0[j]
    return Analytic(n, model.m, tuple(x0), tuple(fields), transform_poly(model.readout, perm, diag))


# -- model files -------------------------------------------------------------


def _q(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def poly_text(p: dict) -> str:
    parts = []
    for exps, c in sorted(p.items()):
        if c == 0:
            continue
        factors = [f"({_q(c)})"] + [f"x{j + 1}^{e}" for j, e in enumerate(exps) if e]
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def model_text(model) -> str:
    lines = [f"n = {model.n}", f"m = {model.m}", "x0 = " + ", ".join(map(_q, model.x0))]
    if isinstance(model, Bilinear):
        for i, a in enumerate(model.mats):
            lines.append(f"A{i} = " + ", ".join(_q(v) for row in a for v in row))
        lines.append("C = " + ", ".join(map(_q, model.c)))
    else:
        for i, g in enumerate(model.fields):
            lines.append(f"g{i} = " + ", ".join(poly_text(p) for p in g))
        lines.append("h = " + poly_text(model.readout))
    return "\n".join(lines) + "\n"
