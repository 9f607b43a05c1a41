"""Truncated Hankel matrices, exact and numeric ranks, and the Lie-rank
estimate obtained by applying the series map to expanded Lyndon brackets.

All ranks computed here are ranks of finite truncations and therefore lower
bounds for the corresponding infinite-dimensional quantities; every report
records the truncation parameters it was computed at, so rank claims are
self-describing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exactla
from .errors import DegreeError, ModeMismatchError
from .fps import (
    FLOAT,
    RATIONAL,
    Series,
    Word,
    hankel_column,
    to_float,
    word_count,
    word_index,
    words_of_degree,
    words_up_to,
)
from .freelie import expand_bracket, lyndon_words, standard_bracketing

DEFAULT_TOLERANCE = 1e-9

# Radius r of rank_numeric's growth scaling: a word of degree d weighs 1 / (d! * r^d).
GROWTH_RADIUS = 1.0


@dataclass(frozen=True)
class HankelBlock:
    """Finite Hankel section: entry(u, v) = s(u.v) for the source series s.

    Rows are indexed by the words of degree <= d_r and columns by the words
    of degree <= d_c, both in graded-lex order.  Rational ``entries`` are
    integer numerators over ``den``; float entries are the doubles (``den``
    is 1).
    """

    m: int
    row_words: tuple[Word, ...]
    col_words: tuple[Word, ...]
    entries: tuple  # tuple of row tuples
    mode: str
    den: int

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_words), len(self.col_words))

    def entry(self, u: Word, v: Word):
        """s(u.v): a Fraction in rational mode."""
        i, j = (word_count(self.m, len(w) - 1) + word_index(w, self.m) for w in (u, v))
        c = self.entries[i][j]
        return c if self.mode == FLOAT else Fraction(c, self.den)


@dataclass(frozen=True)
class RankReport:
    """Outcome of a rank computation.

    ``truncation`` records the block or bracket/observation degrees the rank
    was computed at; numeric reports carry the tolerance and the singular
    value spectrum used for the decision.
    """

    rank: int
    mode: str
    truncation: dict = field(default_factory=dict)
    tolerance: float | None = None
    singular_values: tuple[float, ...] | None = None

    def as_dict(self) -> dict:
        out = {"rank": self.rank, "mode": self.mode, "truncation": dict(self.truncation)}
        if self.mode == "numeric":
            out["tolerance"] = self.tolerance
            out["singular_values"] = list(self.singular_values or ())
        return out


def hankel_build(s: Series, d_r: int, d_c: int) -> HankelBlock:
    """Hankel section of a series with row degree d_r and column degree d_c.

    Needs d_r + d_c <= the series truncation degree, since every entry is a
    genuine coefficient of the source series.
    """
    if d_r < 0 or d_c < 0:
        raise ValueError("block degrees must be nonnegative")
    if d_r + d_c > s.max_degree:
        raise DegreeError(
            f"insufficient series degree: need {d_r + d_c}, have {s.max_degree}"
        )
    cols = words_up_to(s.m, d_c)
    entries = tuple(zip(*(hankel_column(s, v, d_r) for v in cols)))
    return HankelBlock(s.m, tuple(words_up_to(s.m, d_r)), tuple(cols), entries, s.mode, s.den)


def rank_exact(h: HankelBlock) -> RankReport:
    """Exact rank by fraction-free elimination; rational-mode blocks only."""
    if h.mode != RATIONAL:
        raise ModeMismatchError("exact rank requires a rational-mode block")
    d_r, d_c = len(h.row_words[-1]), len(h.col_words[-1])  # graded-lex: last is longest
    rk = exactla.rank(h.entries)
    return RankReport(rank=rk, mode="exact", truncation={"d_r": d_r, "d_c": d_c})


def _growth_scale(deg: int) -> float:
    return 1.0 / (math.factorial(deg) * GROWTH_RADIUS**deg)


def _svd_rank(a: np.ndarray, tol: float) -> tuple[int, tuple[float, ...]]:
    """Numeric rank decision shared by every float-mode report: the number
    of singular values above tol * sigma_max (0 for a zero matrix), and the
    spectrum the decision was made on."""
    svals = np.linalg.svd(a, compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    rk = int(np.count_nonzero(svals > tol * smax)) if smax > 0 else 0
    return rk, tuple(float(x) for x in svals)


def rank_numeric(h: HankelBlock, tol: float = DEFAULT_TOLERANCE) -> RankReport:
    """Numeric rank of a float-mode block via the singular value spectrum.

    Rows and columns are rescaled diagonally, the word u or v of degree d
    getting weight 1 / (d! * r^d) with r = GROWTH_RADIUS, so the entry at
    (u, v) is divided by |u|! * |v|! * r^(|u|+|v|).  A diagonal scaling is
    exactly rank-preserving while still compensating the factorial
    coefficient growth series can exhibit.  The rank is the number of
    singular values above tol * sigma_max of the rescaled matrix; the
    spectrum is part of the report so the decision is auditable.
    """
    if h.mode != FLOAT:
        raise ModeMismatchError("numeric rank requires a float-mode block")
    if not 0.0 < tol < 1.0:
        raise ValueError("tolerance must lie in (0, 1)")
    rows, cols = h.shape
    if rows == 0 or cols == 0:
        raise ValueError("empty matrix")
    a = np.array(h.entries, dtype=float)
    row_scale = np.array([_growth_scale(len(u)) for u in h.row_words])
    col_scale = np.array([_growth_scale(len(v)) for v in h.col_words])
    rk, svals = _svd_rank(row_scale[:, None] * a * col_scale[None, :], tol)
    d_r, d_c = len(h.row_words[-1]), len(h.col_words[-1])  # graded-lex: last is longest
    return RankReport(
        rank=rk,
        mode="numeric",
        truncation={"d_r": d_r, "d_c": d_c, "radius": GROWTH_RADIUS},
        tolerance=tol,
        singular_values=svals,
    )


def f_y_apply(s: Series, p: Series, n_obs: int) -> list:
    """Apply the series map to a polynomial p: the returned vector is indexed
    by the observation words w of degree <= n_obs (graded-lex) and holds
    sum_v p(v) * s(w.v), in rational mode as integer numerators over
    ``s.den * p.den``.

    The polynomial's word sits on the side whose operators act outermost
    under this toolkit's coefficient order (letters act innermost-first), so
    each returned vector is a combination of Hankel columns.  That placement
    is what makes the state-dimension bound hold for Lie polynomials: the
    bracket field then enters only through its value at the initial state.
    Linear in p; needs deg(p) + n_obs <= the series truncation degree.
    """
    if p.m != s.m:
        raise ValueError(f"alphabet mismatch: m={p.m} vs m={s.m}")
    if p.mode != s.mode:
        raise ModeMismatchError(f"scalar mode mismatch: {p.mode} vs {s.mode}")
    deg_p = p.degree()
    if deg_p + n_obs > s.max_degree:
        raise DegreeError(
            f"insufficient series degree: need {deg_p + n_obs}, have {s.max_degree}"
        )
    out = [0.0 if s.mode == FLOAT else 0] * word_count(s.m, n_obs)
    for k, (level, den) in enumerate(zip(p.levels, p.dens)):
        scale = p.den // den
        for v, cv in zip(words_of_degree(p.m, k), level):
            if cv:
                cv *= scale
                out = [acc + cv * x for acc, x in zip(out, hankel_column(s, v, n_obs))]
    return out


def lie_rank(
    s: Series,
    n_bracket: int,
    n_obs: int,
    tol: float = DEFAULT_TOLERANCE,
) -> RankReport:
    """Rank of the series map restricted to Lie polynomials, truncated.

    Stacks the observation vectors of all expanded standard bracketings of
    Lyndon words of degree <= n_bracket and computes the rank.  The result is
    a lower bound for the Lie rank that is nondecreasing in both n_bracket
    and n_obs.
    """
    if n_bracket < 1:
        raise ValueError("n_bracket must be >= 1")
    if n_bracket + n_obs > s.max_degree:
        raise DegreeError(
            f"insufficient series degree: need {n_bracket + n_obs}, have {s.max_degree}"
        )
    vectors = []
    for ell in lyndon_words(s.m, n_bracket):
        p = expand_bracket(standard_bracketing(ell), s.m)
        if s.mode == FLOAT:
            p = to_float(p)
        vectors.append(f_y_apply(s, p, n_obs))
    truncation = {"n_bracket": n_bracket, "n_obs": n_obs}
    if s.mode == RATIONAL:
        return RankReport(rank=exactla.rank(vectors), mode="exact", truncation=truncation)
    rk, svals = _svd_rank(np.array(vectors, dtype=float), tol)
    return RankReport(
        rank=rk, mode="numeric", truncation=truncation, tolerance=tol, singular_values=svals
    )

