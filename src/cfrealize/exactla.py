"""Exact linear algebra over the rationals.

Provides a fraction-free (Bareiss) rank computation and an incremental row
span that can express new vectors as exact linear combinations of previously
inserted ones.  Both are used for Hankel ranks and for realization synthesis,
where floating-point rank decisions would be meaningless.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def over_common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of rationals over their least common denominator."""
    fracs = [x if type(x) is Fraction else Fraction(x) for x in values]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def rank(rows) -> int:
    """Exact rank of a rational matrix (list of rows).

    Rows are scaled to integers (rank preserving) and eliminated with the
    Bareiss fraction-free scheme, bailing out as soon as the remaining block
    is zero, which keeps low-rank Hankel blocks cheap.  Every row below the
    pivot is updated at every step, also a row whose pivot-column entry is
    already 0: the next step's division by this pivot is exact only for
    rows that were multiplied by it.
    """
    mat = [row for row, _ in map(over_common_denominator, rows) if any(row)]
    if not mat:
        return 0
    ncols = len(mat[0])
    rk = 0
    prev = 1
    r = 0
    col = 0
    while r < len(mat) and col < ncols:
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            col += 1
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pr = mat[r]
        p = pr[col]
        tail = pr[col + 1 :]
        for i in range(r + 1, len(mat)):
            ri = mat[i]
            f = ri[col]
            ri[col + 1 :] = [(p * a - f * b) // prev for a, b in zip(ri[col + 1 :], tail)]
            ri[col] = 0
        prev = p
        rk += 1
        r += 1
        col += 1
        if all(not any(row[col:]) for row in mat[r:]):
            break
    return rk


class RowSpan:
    """Incrementally built row space with exact coordinate solves.

    Vectors are sequences of rationals of a fixed length.  ``add`` inserts a
    vector if it is independent of the current span; ``coords`` expresses a
    vector as a combination of the *inserted* vectors (None if outside the
    span).
    """

    def __init__(self, length: int):
        self.length = length
        # Echelon rows: (pivot column, normalized row, expression of the row
        # as coefficients over the inserted original vectors).
        self._rows: list[tuple[int, list[Fraction], list[Fraction]]] = []
        self._count = 0

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec):
        v = [Fraction(x) for x in vec]
        if len(v) != self.length:
            raise ValueError(f"vector length {len(v)} != span length {self.length}")
        expr = [Fraction(0)] * self._count
        for piv, row, rexpr in self._rows:
            c = v[piv]
            if c == 0:
                continue
            for j in range(piv, self.length):
                v[j] -= c * row[j]
            for j in range(self._count):
                if rexpr[j]:
                    expr[j] += c * rexpr[j]
        return v, expr

    def add(self, vec) -> bool:
        """Insert ``vec``; returns True if it enlarged the span."""
        v, expr = self._reduce(vec)
        piv = next((j for j, x in enumerate(v) if x != 0), None)
        self._count += 1
        for _, _, rexpr in self._rows:
            rexpr.append(Fraction(0))
        expr.append(Fraction(0))
        if piv is None:
            self._count -= 1
            for _, _, rexpr in self._rows:
                rexpr.pop()
            return False
        p = v[piv]
        row = [x / p for x in v]
        # vec = sum(expr_j * original_j) + p * new_row, so the new echelon row
        # is (vec - combination)/p in terms of the originals.
        rexpr = [-e / p for e in expr]
        rexpr[-1] = Fraction(1) / p
        self._rows.append((piv, row, rexpr))
        return True

    def coords(self, vec):
        """Coefficients over the inserted vectors, or None if not in the span."""
        v, expr = self._reduce(vec)
        if any(x != 0 for x in v):
            return None
        return expr

