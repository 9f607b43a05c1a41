"""Computations the benchmark checks the program against.

None of them imports ``cfrealize``: ranks come from plain Fraction Gaussian
elimination, bilinear coefficients from this module's own matrix products,
and analytic coefficients from sympy's iterated Lie derivatives.  The file
readers here parse the program's text artifacts on their own.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from models import Bilinear


def frac_rank(rows) -> int:
    """Rank of a rational matrix by Gaussian elimination over Fraction."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] / prow[col]
            if f:
                row = mat[i]
                for j in range(col, ncols):
                    row[j] -= f * prow[j]
        rank += 1
        if rank == len(mat):
            break
    return rank


def words_up_to(m: int, n: int) -> list[tuple]:
    """Words over {0..m} of length <= n, shortest first, then lexicographic."""
    out = []
    for d in range(n + 1):
        out.extend(itertools.product(range(m + 1), repeat=d))
    return out


def bilinear_coefficient(model: Bilinear, word) -> Fraction:
    """C A_i1 ... A_ik x0, multiplied right to left."""
    v = list(model.x0)
    for letter in reversed(word):
        a = model.mats[letter]
        v = [sum(a[r][s] * v[s] for s in range(model.n)) for r in range(model.n)]
    return sum((ci * vi for ci, vi in zip(model.c, v)), Fraction(0))


def hankel_rows(coeffs: dict, m: int, d_r: int, d_c: int) -> list[list[Fraction]]:
    """Hankel block [s(u v)] over rows |u| <= d_r and columns |v| <= d_c."""
    cols = words_up_to(m, d_c)
    zero = Fraction(0)
    return [[coeffs.get(u + v, zero) for v in cols] for u in words_up_to(m, d_r)]


# -- readers for the program's text artifacts --------------------------------


def _key_values(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def parse_bilinear(text: str) -> Bilinear:
    kv = _key_values(text)
    n, m = int(kv["n"]), int(kv["m"])

    def fracs(key):
        return [Fraction(v) for v in kv[key].split(",")] if n else []

    mats = []
    for i in range(m + 1):
        flat = fracs(f"A{i}")
        mats.append(tuple(tuple(flat[r * n : (r + 1) * n]) for r in range(n)))
    return Bilinear(n, m, tuple(fracs("x0")), tuple(mats), tuple(fracs("C")))


def parse_series(text: str):
    """(m, N, mode, {word: value}) of a series file; values are Fraction in
    rational mode and float in float mode."""
    lines = text.splitlines()
    head = dict(tok.split("=", 1) for tok in lines[0].split()[1:])
    mode = head["mode"]
    convert = Fraction if mode == "rational" else float
    coeffs = {}
    for line in lines[1:]:
        wtxt, vtxt = line.split(";", 1)
        word = tuple(int(x) for x in wtxt.split(",")) if wtxt else ()
        coeffs[word] = convert(vtxt)
    return int(head["m"]), int(head["N"]), mode, coeffs


# -- sympy oracle for analytic models ----------------------------------------


class LieOracle:
    """Coefficients of an analytic model file by sympy: the coefficient of
    (i1, ..., ik) is L_{g_ik} ... L_{g_i1} h evaluated at x0."""

    def __init__(self, text: str):
        import sympy

        self._sympy = sympy
        kv = _key_values(text)
        self.xs = sympy.symbols(f"x1:{int(kv['n']) + 1}")
        names = {str(x): x for x in self.xs}

        def poly(src):
            expr = sympy.sympify(src.replace("^", "**"), locals=names)
            return sympy.Poly(expr, *self.xs, domain=sympy.QQ)

        self.fields = [
            [poly(c) for c in kv[f"g{i}"].split(",")] for i in range(int(kv["m"]) + 1)
        ]
        self.x0 = [sympy.Rational(v.strip()) for v in kv["x0"].split(",")]
        self._phi = {(): poly(kv["h"])}

    def _derivative(self, word):
        phi = self._phi.get(word)
        if phi is None:
            prev = self._derivative(word[:-1])
            g = self.fields[word[-1]]
            phi = sum((prev.diff(x) * gx for x, gx in zip(self.xs, g)), prev * 0)
            self._phi[word] = phi
        return phi

    def coefficient(self, word) -> Fraction:
        value = self._sympy.Rational(self._derivative(tuple(word)).eval(tuple(self.x0)))
        return Fraction(int(value.p), int(value.q))
