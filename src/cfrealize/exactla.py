"""Exact linear algebra over the rationals.

One fraction-free incremental echelon, :class:`RowSpan`, answers every exact
rank question: does a vector lie in the span of the vectors inserted so far,
and with which coordinates.  :func:`rank` is the dimension of a fresh span
fed every row.  Hankel ranks and realization synthesis both rest on it, where
floating-point rank decisions would be meaningless.

Each vector is scaled to integers over its common denominator.  Echelon row k
keeps its pivot p_k, and a vector v is reduced by
``v <- (p_k * v - v[piv_k] * row_k) // p_{k-1}`` for every k in order, with
p_{-1} = 1 (Bareiss 1968).  Every entry is then a minor of the integer
matrix, so every division is exact.  No row is skipped when v[piv_k] is
already 0: v must still be multiplied by p_k, or the next division by p_k is
not exact.  Each echelon row also carries its expression over the inserted
vectors (the identity block of the augmented matrix), reduced by the same
step, so coordinates cost one ``Fraction`` each and none inside the loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def over_common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of rationals over their least common denominator."""
    pairs = [(x if type(x) is Fraction else Fraction(x)).as_integer_ratio() for x in values]
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def rank(rows) -> int:
    """Exact rank of a rational matrix (a sequence of equal-length rows)."""
    if not rows:
        return 0
    return sum(map(RowSpan(len(rows[0])).add, rows))


class RowSpan:
    """Incrementally built row space with exact coordinate solves.

    Vectors are sequences of rationals of a fixed length.  ``add`` inserts a
    vector if it is independent of the current span; ``coords`` expresses a
    vector as a combination of the *inserted* vectors (None if outside the
    span).
    """

    def __init__(self, length: int):
        self.length = length
        # Echelon rows: (pivot column, pivot, integer row, its integer
        # expression over the inserted vectors' integer scalings).
        self._rows: list[tuple[int, int, list[int], list[int]]] = []
        self._dens: list[int] = []  # common denominator of each inserted vector

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, vec):
        """Reduce den * vec to v = sum(expr_k * den_k * inserted_k) + last * den * vec."""
        v, den = over_common_denominator(vec)
        if len(v) != self.length:
            raise ValueError(f"vector length {len(v)} != span length {self.length}")
        expr: list[int] = []
        last = 1
        for piv, p, row, rexpr in self._rows:
            c = v[piv]
            v = [(p * a - c * b) // last for a, b in zip(v, row)]
            expr.append(0)
            expr = [(p * a - c * b) // last for a, b in zip(expr, rexpr)]
            last = p
        return v, expr, last, den

    def add(self, vec) -> bool:
        """Insert ``vec``; returns True if it enlarged the span."""
        v, expr, last, den = self._reduce(vec)
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        expr.append(last)
        self._rows.append((piv, v[piv], v, expr))
        self._dens.append(den)
        return True

    def coords(self, vec):
        """Coefficients over the inserted vectors, or None if not in the span."""
        v, expr, last, den = self._reduce(vec)
        if any(v):
            return None
        return [Fraction(-e * d, last * den) for e, d in zip(expr, self._dens)]
