"""Realization synthesis from coefficient data.

Two constructions live here:

* :func:`bilinear_realize` turns a truncated coefficient series of finite,
  stabilized Hankel rank into a bilinear state-space model whose own
  coefficients reproduce the series exactly (shift realization on a greedy
  suffix-closed word basis, graded-lex tie-breaking).
* :func:`linear_ho_kalman` is the classical single-output realization of a
  Markov-parameter sequence h^(k)(0); the returned (A, B, C) also serve as
  the stochastic model dX = A X dt + B dW, Y = C X driven by the noise
  channels directly.

Synthesis runs in exact rational mode only: shift consistency is not a
meaningful notion at floating-point tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegreeError,
    ModeMismatchError,
    RankExceededError,
    ShiftInconsistencyError,
    StabilizationError,
)
from .exactla import RowSpan
from .fps import (
    EMPTY_WORD,
    RATIONAL,
    Series,
    Word,
    coefficient,
    hankel_column,
    to_float,
    words_up_to,
)
from .hankel import hankel_build, rank_exact
from .symdiff import BilinearModel, bilinear_coefficients


@dataclass(frozen=True)
class DiscrepancyReport:
    """Worst deviation between a model's coefficients and a target series."""

    max_abs: object
    worst_word: Word | None
    degree: int

    def as_dict(self) -> dict:
        return {
            "max_abs": str(self.max_abs),
            "worst_word": list(self.worst_word) if self.worst_word is not None else None,
            "degree": self.degree,
        }


@dataclass(frozen=True)
class RealizationResult:
    """Synthesized bilinear model plus the evidence for it.

    ``basis_words`` are the suffix words whose reachable states span the
    model's state space (the model dimension equals their count);
    ``max_discrepancy`` is 0 in exact mode on success.
    """

    model: BilinearModel
    basis_words: tuple[Word, ...]
    verified_degree: int
    max_discrepancy: object


def verify_realization(model: BilinearModel, s: Series, n_max: int) -> DiscrepancyReport:
    """Max absolute difference between the model's coefficients and s, over
    all words of degree <= n_max, and the first word attaining it (the empty
    word if none differ).

    Canonical levels are equal exactly when the coefficients are, so the
    levels are compared as tuples; words are walked only on a mismatch."""
    if n_max > s.max_degree:
        raise DegreeError(f"series only valid to degree {s.max_degree}, asked {n_max}")
    if model.m != s.m:
        raise ValueError(f"alphabet mismatch: model m={model.m}, series m={s.m}")
    got = bilinear_coefficients(model, n_max)
    if s.mode != RATIONAL:
        got = to_float(got)
    worst, worst_word = (Fraction(0) if s.mode == RATIONAL else 0.0), EMPTY_WORD
    cut = slice(n_max + 1)
    if (got.levels, got.dens) != (s.levels[cut], s.dens[cut]):
        got_coeffs, want_coeffs = got.coeffs, s.coeffs
        for w in words_up_to(s.m, n_max):
            diff = abs(got_coeffs.get(w, 0) - want_coeffs.get(w, 0))
            if diff > worst:
                worst, worst_word = diff, w
    return DiscrepancyReport(max_abs=worst, worst_word=worst_word, degree=n_max)


def _coordinate_matrix(span: RowSpan, keys, column, escaped) -> tuple[tuple, ...]:
    """Matrix whose j-th column holds the coordinates of ``column(keys[j])``
    over the span's inserted vectors; raises ``escaped(key)`` for the first
    column outside the span."""
    cols = []
    for key in keys:
        coords = span.coords(column(key))
        if coords is None:
            raise escaped(key)
        cols.append(coords)
    return tuple(zip(*cols))


def _empty_model(m: int) -> BilinearModel:
    return BilinearModel(0, m, (), tuple(() for _ in range(m + 1)), ())


def bilinear_realize(s: Series, n_budget: int | None = None) -> RealizationResult:
    """Synthesize a bilinear model reproducing a rational coefficient series.

    The series must be known to degree N = ``n_budget`` (default: its
    truncation degree) and its square Hankel sections must have equal rank at
    degrees floor(N/2) - 1 and floor(N/2); otherwise the data cannot certify
    rationality and a StabilizationError is raised.

    States are identified with Hankel columns: the state reached along a word
    v is the column of v, and prepending a letter applies the corresponding
    matrix.  Basis columns are picked greedily in graded-lex order over the
    suffix-closed candidate set, the initial state is the coordinate vector
    of the empty word, each A_i column expresses the extension of a basis
    word by the letter i, and C reads off the coefficients of the basis
    words.  The result is verified against the full series up to degree N; in
    exact mode any mismatch raises ShiftInconsistencyError (the series is not
    rational at this truncation).
    """
    if s.mode != RATIONAL:
        raise ModeMismatchError("realization synthesis requires a rational-mode series")
    n = n_budget if n_budget is not None else s.max_degree
    if n > s.max_degree:
        raise DegreeError(f"series only valid to degree {s.max_degree}, asked {n}")

    if s.is_zero():
        model = _empty_model(s.m)
        return RealizationResult(model, (), n, Fraction(0))

    depth = n // 2
    if depth < 1:
        raise StabilizationError(
            "insufficient data: need the series to degree >= 2 to check rank stabilization"
        )
    r_lo = rank_exact(hankel_build(s, depth - 1, depth - 1)).rank
    r_hi = rank_exact(hankel_build(s, depth, depth)).rank
    if r_lo != r_hi:
        raise StabilizationError(
            f"truncated Hankel rank has not stabilized (rank {r_lo} at degree "
            f"{depth - 1} vs {r_hi} at degree {depth}); insufficient data or "
            "possibly infinite Hankel rank"
        )

    obs = n - depth  # observation degree of the Hankel columns
    empty_column = hankel_column(s, EMPTY_WORD, obs)
    span = RowSpan(len(empty_column))
    basis: list[Word] = []
    frontier: list[Word] = []
    if span.add(empty_column):
        basis.append(())
        frontier.append(())
    for _deg in range(1, depth + 1):
        candidates = sorted((i,) + v for v in frontier for i in range(s.m + 1))
        frontier = []
        for v in candidates:
            if span.add(hankel_column(s, v, obs)):
                basis.append(v)
                frontier.append(v)
        if not frontier:
            break
    if frontier:
        # The span was still growing at the truncation depth: the gate above
        # was too optimistic for this data.
        raise StabilizationError(
            f"state span still growing at word degree {depth}; insufficient data"
        )

    mats = [
        _coordinate_matrix(
            span,
            [(i,) + v for v in basis],
            lambda w: hankel_column(s, w, obs),
            lambda w: ShiftInconsistencyError(
                f"column of word {w} escapes the selected basis; "
                "the series is not rational at this truncation"
            ),
        )
        for i in range(s.m + 1)
    ]
    x0 = span.coords(empty_column)
    c = tuple(coefficient(s, v) for v in basis)
    model = BilinearModel(len(basis), s.m, tuple(x0), tuple(mats), c)

    report = verify_realization(model, s, n)
    if report.max_abs != 0:
        raise ShiftInconsistencyError(
            f"synthesized model deviates from the series at word {report.worst_word} "
            f"by {report.max_abs}; the series is not rational at this truncation"
        )
    return RealizationResult(model, tuple(basis), n, report.max_abs)


# -- classical linear (Markov parameter) realization ------------------------


@dataclass(frozen=True)
class LinearRealization:
    """Single-output realization C A^k B = h^(k)(0) of a Markov sequence.

    The same matrices define the stochastic state model
    dX = A X dt + B dW, Y = C X on the m driving channels.
    """

    n: int
    m: int
    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[tuple[Fraction, ...], ...]  # n x m
    c: tuple[Fraction, ...]

    def markov(self, k_max: int) -> list[tuple[Fraction, ...]]:
        """Reproduced parameters C A^k B for k = 0..k_max."""
        out = []
        # rows: r_k = C A^k
        r = list(self.c)
        for _ in range(k_max + 1):
            out.append(
                tuple(
                    sum(r[i] * self.b[i][j] for i in range(self.n))
                    for j in range(self.m)
                )
                if self.n
                else (Fraction(0),) * self.m
            )
            r = [sum(r[i] * self.a[i][j] for i in range(self.n)) for j in range(self.n)]
        return out


def _normalize_markov(markov) -> list[list[Fraction]]:
    rows = []
    width = None
    for entry in markov:
        if isinstance(entry, (int, Fraction, str)):
            row = [Fraction(entry)]
        else:
            row = [Fraction(v) for v in entry]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("ragged Markov parameter sequence")
        rows.append(row)
    if not rows or width == 0:
        raise ValueError("empty Markov parameter sequence")
    return rows


def markov_hankel(markov, n_rows: int, n_cols: int) -> list[list[Fraction]]:
    """Scalar-output block-Hankel matrix [h^(k+l)(0)] with n_rows block rows
    and n_cols block columns (each block is 1 x m)."""
    rows = _normalize_markov(markov)
    k_max = len(rows) - 1
    if n_rows - 1 + n_cols - 1 > k_max:
        raise ValueError(
            f"need Markov parameters up to order {n_rows + n_cols - 2}, have {k_max}"
        )
    m = len(rows[0])
    return [
        [rows[k + l][i] for l in range(n_cols) for i in range(m)]
        for k in range(n_rows)
    ]


def linear_ho_kalman(markov, n_max: int) -> LinearRealization:
    """Factor the Markov block-Hankel and return (A, B, C) reproducing it.

    Needs parameters up to order K >= 2 * n_max.  Raises RankExceededError if
    no realization of dimension <= n_max reproduces the data exactly.
    """
    rows = _normalize_markov(markov)
    k_max = len(rows) - 1
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if k_max < 2 * n_max:
        raise ValueError(f"need Markov parameters up to order {2 * n_max}, have {k_max}")
    m = len(rows[0])
    alpha = n_max + 1  # observability window (block rows)
    beta = n_max + 1  # reachability window (block columns)

    def col(l: int, i: int) -> list[Fraction]:
        return [rows[k + l][i] for k in range(alpha)]

    span = RowSpan(alpha)
    basis: list[tuple[int, int]] = []
    for l in range(beta):
        for i in range(m):
            if span.add(col(l, i)):
                basis.append((l, i))
    dim = len(basis)
    if dim > n_max:
        raise RankExceededError(f"Markov Hankel rank {dim} exceeds n_max={n_max}")
    if any(l + 1 + alpha - 1 > k_max for l, _ in basis):
        raise RankExceededError(
            "basis columns need shifted data beyond the provided Markov parameters; "
            f"the data is not consistent with dimension <= {n_max}"
        )

    if dim == 0:
        real = LinearRealization(0, m, (), (), ())
    else:
        a = _coordinate_matrix(
            span,
            basis,
            lambda key: col(key[0] + 1, key[1]),
            lambda _: RankExceededError(
                "shifted basis column escapes the span; the data is not "
                f"consistent with dimension <= {n_max}"
            ),
        )
        b = _coordinate_matrix(
            span,
            range(m),
            lambda i: col(0, i),
            lambda _: RankExceededError(
                "input column escapes the span; the data is not consistent "
                f"with dimension <= {n_max}"
            ),
        )
        c = tuple(rows[l][i] for l, i in basis)
        real = LinearRealization(dim, m, a, b, c)

    for k, got in enumerate(real.markov(k_max)):
        want = tuple(rows[k])
        if tuple(got) != want:
            raise RankExceededError(
                f"no dimension <= {n_max} realization reproduces parameter {k}: "
                f"got {got}, want {want}"
            )
    return real


def markov_to_series(markov, n_max: int | None = None) -> Series:
    """Word-coefficient series of the linear filter with the given Markov
    parameters.

    The filter output starts at zero, so every word consisting solely of the
    time letter has coefficient 0; the word with k time letters followed by
    the noise letter i carries h_i^(k)(0); every other word is 0.  (A common
    alternative convention puts the summed derivatives on the pure-time
    words; that convention does not agree with the value-at-zero reading of
    the coefficients and is deliberately not used here.)
    """
    rows = _normalize_markov(markov)
    m = len(rows[0])
    if m < 1:
        raise ValueError("need at least one channel")
    k_max = len(rows) - 1
    n = n_max if n_max is not None else k_max + 1
    coeffs = {}
    for k in range(k_max + 1):
        if k + 1 > n:
            break
        for i in range(m):
            coeffs[(0,) * k + (i + 1,)] = rows[k][i]
    return Series(m, n, coeffs, RATIONAL)
