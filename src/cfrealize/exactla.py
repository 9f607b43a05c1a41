"""Exact linear algebra over the rationals.

One fraction-free incremental echelon, :class:`RowSpan`, answers every exact
rank question: does a vector lie in the span of the vectors inserted so far,
and with which coordinates.  :func:`rank` is the dimension of a fresh span
fed every row.  Hankel ranks and realization synthesis both rest on it, where
floating-point rank decisions would be meaningless.

A span takes integer vectors as they are: the exact layer hands it integer
numerators over one denominator (Hankel columns and observation vectors of
one series share it), and coordinates over vectors that share a denominator
do not depend on it.  Any other rational vector is scaled to integers over
its own common denominator.  Echelon row k keeps its pivot p_k, and a vector
v is reduced by ``v <- (p_k * v - v[piv_k] * row_k) // p_{k-1}`` for every k
in order, with p_{-1} = 1 (Bareiss 1968); a step whose p_{k-1} is 1, the
first one always, takes no division.  Every entry is then a minor of the
integer matrix, so every division is exact.  No row is skipped when v[piv_k]
is already 0: v must still be multiplied by p_k, or the next division by p_k
is not exact.  A zero vector stays zero at every step, so it is answered
without a step: its multipliers are all 0, it never enlarges the span, and
its coordinates are all 0.

A vector that enlarges the span pivots on its reduced form's first nonzero
entry, and later rows are zero there.  So the pivots that the first r rows
inserted leave in the first c columns count the rank of those rows cut to
those columns; ``realize`` reads two ranks from one span this way.

Each echelon row keeps only its multipliers v[piv_k], so :func:`rank` and
``add`` carry no expressions.  The expression of a row over the inserted
vectors (the identity block of the augmented matrix) follows from those
multipliers by the same step; ``coords`` builds it once per row, on its first
call, and then each coordinate costs one ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def over_common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of rationals over the lcm of their reduced
    denominators, the smallest denominator that holds them all."""
    values = [x if type(x) in (int, Fraction) else Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def rank(rows) -> int:
    """Exact rank of a rational matrix (a sequence of equal-length rows)."""
    if not rows:
        return 0
    return sum(map(RowSpan(len(rows[0])).add, rows))


class RowSpan:
    """Incrementally built row space with exact coordinate solves.

    Vectors are sequences of rationals of a fixed length, integer vectors
    over one shared denominator taken as they are.  ``add`` inserts a vector
    if it is independent of the current span; ``coords`` expresses a vector
    as a combination of the *inserted* vectors (None if outside the span).
    """

    def __init__(self, length: int):
        self.length = length
        # Echelon rows: (pivot column, pivot, integer row, multipliers).
        self._rows: list[tuple[int, int, list[int], list[int]]] = []
        self._dens: list[int] = []  # denominator each inserted vector was scaled by
        # Integer expressions of the first rows over the inserted vectors'
        # integer scalings, built by ``coords``.
        self._exprs: list[list[int]] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[tuple[int, int]]:
        """(pivot column, pivot) of each echelon row, in insertion order."""
        return [(piv, p) for piv, p, _, _ in self._rows]

    def _reduce(self, vec):
        """den * vec reduced against every echelon row, the multipliers of
        the steps, and den.  A zero vector comes back as it is, with zero
        multipliers: no step would change it."""
        if set(map(type, vec)) <= {int}:
            v, den = vec, 1
        else:
            v, den = over_common_denominator(vec)
        if len(v) != self.length:
            raise ValueError(f"vector length {len(v)} != span length {self.length}")
        if not any(v):
            return v, [0] * len(self._rows), den
        cs: list[int] = []
        last = 1
        for piv, p, row, _ in self._rows:
            c = v[piv]
            cs.append(c)
            v = (
                [p * a - c * b for a, b in zip(v, row)]
                if last == 1
                else [(p * a - c * b) // last for a, b in zip(v, row)]
            )
            last = p
        return v, cs, den

    def _express(self, cs) -> tuple[list[int], int]:
        """(expr, last) with v = sum(expr_k * den_k * inserted_k) + last *
        den * vec for the vector v reduced with multipliers ``cs``."""
        expr: list[int] = []
        last = 1
        for (_, p, _, _), rexpr, c in zip(self._rows, self._exprs, cs):
            expr.append(0)
            expr = [(p * a - c * b) // last for a, b in zip(expr, rexpr)]
            last = p
        return expr, last

    def add(self, vec) -> bool:
        """Insert ``vec``; returns True if it enlarged the span."""
        v, cs, den = self._reduce(vec)
        if not any(v):
            return False
        piv = next(j for j, x in enumerate(v) if x)
        # A vector that took no step is still the caller's sequence.
        self._rows.append((piv, v[piv], list(v) if v is vec else v, cs))
        self._dens.append(den)
        return True

    def coords(self, vec):
        """Coefficients over the inserted vectors, or None if not in the span."""
        v, cs, den = self._reduce(vec)
        if any(v):
            return None
        for _, _, _, rcs in self._rows[len(self._exprs) :]:
            expr, last = self._express(rcs)
            self._exprs.append(expr + [last])
        expr, last = self._express(cs)
        return [Fraction(-e * d, last * den) for e, d in zip(expr, self._dens)]
