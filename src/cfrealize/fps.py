"""Words over the alphabet {0..m} and truncated noncommutative power series.

A word is a plain tuple of integer letters; letter 0 is the time channel and
letters 1..m are the noise channels.  The empty tuple is the empty word.
Words are globally ordered graded-lexicographically: shorter words first,
ties broken by ordinary tuple comparison.  That single ordering is used for
matrix indexing and for file output, so artifacts are bit-reproducible.

A :class:`Series` assigns a scalar coefficient to every word up to a fixed
truncation degree.  Coefficients beyond the truncation degree are unknown
(not zero); asking for one raises :class:`~cfrealize.errors.DegreeError`.
Two scalar modes exist: exact rationals (`fractions.Fraction`, the default
for all algebra) and doubles (for simulation output).  Mixing modes in one
operation is an error.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import AlphabetError, DegreeError, ModeMismatchError, ParseError

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

RATIONAL = "rational"
FLOAT = "float"


def word_key(w: Word):
    """Sort key implementing the graded-lexicographic order."""
    return (len(w), w)


def check_word(w, m: int) -> Word:
    w = tuple(map(int, w))
    if m < 1:
        raise AlphabetError(f"alphabet max letter must be >= 1, got m={m}")
    if w and (min(w) < 0 or max(w) > m):
        c = next(c for c in w if not 0 <= c <= m)
        raise AlphabetError(f"letter {c} outside alphabet {{0..{m}}} in word {w}")
    return w


def words_of_degree(m: int, d: int) -> list[Word]:
    """All words of exactly degree d, in lexicographic order."""
    if m < 1:
        raise AlphabetError(f"alphabet max letter must be >= 1, got m={m}")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return [tuple(w) for w in product(range(m + 1), repeat=d)]


def words_up_to(m: int, n: int) -> list[Word]:
    """All words of degree <= n in graded-lexicographic order.

    The list has sum_{k<=n} (m+1)^k entries and starts with the empty word.
    """
    if m < 1:
        raise AlphabetError(f"alphabet max letter must be >= 1, got m={m}")
    if n < 0:
        raise ValueError("degree bound must be nonnegative")
    out: list[Word] = []
    for d in range(n + 1):
        out.extend(words_of_degree(m, d))
    return out


def concat(u: Word, v: Word) -> Word:
    """Concatenation of two words."""
    return tuple(u) + tuple(v)


def _coerce(value, mode):
    if mode == RATIONAL:
        if isinstance(value, float):
            raise ModeMismatchError(f"float {value!r} not allowed in rational mode")
        return Fraction(value)
    if mode == FLOAT:
        return float(value)
    raise ValueError(f"unknown scalar mode {mode!r}")


def zero_scalar(mode):
    return Fraction(0) if mode == RATIONAL else 0.0


class Series:
    """Truncated noncommutative formal power series.

    Attributes:
        m: largest letter of the alphabet (alphabet size is m + 1).
        max_degree: validity degree; coefficients of longer words are unknown.
        mode: ``"rational"`` or ``"float"``.
        coeffs: map word -> scalar holding the nonzero coefficients.

    Instances are treated as immutable; operations return new series.
    """

    __slots__ = ("m", "max_degree", "mode", "coeffs")

    def __init__(self, m: int, max_degree: int, coeffs=None, mode: str = RATIONAL):
        if m < 1:
            raise AlphabetError(f"alphabet max letter must be >= 1, got m={m}")
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        if mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown scalar mode {mode!r}")
        self.m = m
        self.max_degree = max_degree
        self.mode = mode
        scalar_type = Fraction if mode == RATIONAL else float
        clean: dict[Word, object] = {}
        for w, c in (coeffs or {}).items():
            w = check_word(w, m)
            if len(w) > max_degree:
                raise DegreeError(
                    f"word {w} of degree {len(w)} exceeds truncation degree {max_degree}"
                )
            if type(c) is not scalar_type:
                c = _coerce(c, mode)
            if c:
                clean[w] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, m: int, max_degree: int, mode: str = RATIONAL) -> "Series":
        return cls(m, max_degree, {}, mode)

    @classmethod
    def unit(cls, m: int, max_degree: int, mode: str = RATIONAL) -> "Series":
        """The multiplicative unit: coefficient 1 on the empty word."""
        one = Fraction(1) if mode == RATIONAL else 1.0
        return cls(m, max_degree, {EMPTY_WORD: one}, mode)

    @classmethod
    def monomial(cls, m: int, max_degree: int, w, coeff=1, mode: str = RATIONAL) -> "Series":
        return cls(m, max_degree, {tuple(w): coeff}, mode)

    # -- basic protocol ------------------------------------------------

    def degree(self) -> int:
        """Largest degree carrying a nonzero coefficient (0 for the zero series)."""
        return max((len(w) for w in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.m == other.m
            and self.max_degree == other.max_degree
            and self.mode == other.mode
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.m, self.max_degree, self.mode, frozenset(self.coeffs.items())))

    def __repr__(self):
        terms = ", ".join(
            f"{w or '()'}: {c}" for w, c in sorted(self.coeffs.items(), key=lambda p: word_key(p[0]))
        )
        return f"Series(m={self.m}, N={self.max_degree}, mode={self.mode}, {{{terms}}})"


def _check_pair(r: Series, s: Series):
    if r.m != s.m:
        raise AlphabetError(f"alphabet mismatch: m={r.m} vs m={s.m}")
    if r.mode != s.mode:
        raise ModeMismatchError(f"scalar mode mismatch: {r.mode} vs {s.mode}")


def coefficient(r: Series, w) -> object:
    """Coefficient of word ``w`` in ``r``; zero if absent.

    Requesting a word beyond the truncation degree is an error, which keeps
    "unknown" distinct from "zero".
    """
    w = check_word(w, r.m)
    if len(w) > r.max_degree:
        raise DegreeError(
            f"word of degree {len(w)} requested from series truncated at {r.max_degree}"
        )
    return r.coeffs.get(w, zero_scalar(r.mode))


def coefficient_table(r: Series, row_words, col_words) -> list[list]:
    """Table of r(u.v) for u in ``row_words`` (rows) and v in ``col_words``.

    Each word list is validated once, and the degree check is made on the
    longest row and column words, so the entries are plain lookups.  As with
    :func:`coefficient`, a product word beyond the truncation degree is an
    error, not a zero.
    """
    rows = [check_word(u, r.m) for u in row_words]
    cols = [check_word(v, r.m) for v in col_words]
    need = max(map(len, rows), default=0) + max(map(len, cols), default=0)
    if rows and cols and need > r.max_degree:
        raise DegreeError(
            f"word of degree {need} requested from series truncated at {r.max_degree}"
        )
    get = r.coeffs.get
    zero = zero_scalar(r.mode)
    return [[get(u + v, zero) for v in cols] for u in rows]


def series_linear_combine(alpha, r: Series, beta, s: Series) -> Series:
    """alpha*r + beta*s, truncated to the smaller validity degree."""
    _check_pair(r, s)
    n = min(r.max_degree, s.max_degree)
    alpha = _coerce(alpha, r.mode)
    beta = _coerce(beta, r.mode)
    out: dict[Word, object] = {}
    for w, c in r.coeffs.items():
        if len(w) <= n:
            out[w] = alpha * c
    for w, c in s.coeffs.items():
        if len(w) <= n:
            out[w] = out.get(w, zero_scalar(r.mode)) + beta * c
    return Series(r.m, n, out, r.mode)


def series_product(r: Series, s: Series) -> Series:
    """Concatenation (Cauchy) product, truncated to the smaller validity degree.

    The coefficient of a word w is the sum of r(u)*s(v) over all splittings
    w = u.v; the product is noncommutative.
    """
    _check_pair(r, s)
    n = min(r.max_degree, s.max_degree)
    out: dict[Word, object] = {}
    zero = zero_scalar(r.mode)
    for u, cu in r.coeffs.items():
        if len(u) > n:
            continue
        rem = n - len(u)
        for v, cv in s.coeffs.items():
            if len(v) > rem:
                continue
            w = u + v
            out[w] = out.get(w, zero) + cu * cv
    return Series(r.m, n, out, r.mode)


_SHUFFLE_CACHE: dict[tuple[Word, Word], dict[Word, int]] = {}


def shuffle_counts(u: Word, v: Word) -> dict[Word, int]:
    """Multiset of interleavings of u and v as a map word -> multiplicity."""
    u, v = tuple(u), tuple(v)
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    key = (u, v)
    hit = _SHUFFLE_CACHE.get(key)
    if hit is not None:
        return hit
    out: dict[Word, int] = {}
    for w, c in shuffle_counts(u[:-1], v).items():
        w2 = w + (u[-1],)
        out[w2] = out.get(w2, 0) + c
    for w, c in shuffle_counts(u, v[:-1]).items():
        w2 = w + (v[-1],)
        out[w2] = out.get(w2, 0) + c
    _SHUFFLE_CACHE[key] = out
    return out


def shuffle(u, v, m: int, mode: str = RATIONAL) -> Series:
    """Shuffle product of two words as a series over the alphabet {0..m}.

    Sums all interleavings of u and v that preserve the internal order of
    each factor; the total coefficient mass is binomial(|u|+|v|, |u|).
    """
    u = check_word(u, m)
    v = check_word(v, m)
    return Series(m, len(u) + len(v), shuffle_counts(u, v), mode)


def to_float(r: Series) -> Series:
    """Cast a series to float mode (identity on float-mode input)."""
    if r.mode == FLOAT:
        return r
    return Series(r.m, r.max_degree, {w: float(c) for w, c in r.coeffs.items()}, FLOAT)


# -- series file format ---------------------------------------------------
#
# Header line:   cfseries m=<m> N=<N> mode=<rational|float>
# Then one record per word of degree <= N in graded-lex order:
#     <comma-joined letters>;<value>
# The empty word is the empty string; rational values are n/d in lowest
# terms, float values use repr() so they round-trip exactly.


def format_series(r: Series) -> str:
    lines = [f"cfseries m={r.m} N={r.max_degree} mode={r.mode}"]
    for w in words_up_to(r.m, r.max_degree):
        c = r.coeffs.get(w, zero_scalar(r.mode))
        if r.mode == RATIONAL:
            val = f"{c.numerator}/{c.denominator}"
        else:
            val = repr(c)
        lines.append(",".join(map(str, w)) + ";" + val)
    return "\n".join(lines) + "\n"


def parse_series(text: str) -> Series:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty series file", line=1)
    head = lines[0].split()
    if len(head) != 4 or head[0] != "cfseries":
        raise ParseError("malformed series header", line=1, token=lines[0])
    try:
        m = int(head[1].removeprefix("m="))
        n = int(head[2].removeprefix("N="))
    except ValueError:
        raise ParseError("malformed series header", line=1, token=lines[0]) from None
    mode = head[3].removeprefix("mode=")
    if mode not in (RATIONAL, FLOAT):
        raise ParseError("unknown scalar mode in series header", line=1, token=head[3])
    body = [ln for ln in lines[1:] if ln.strip()]
    # Compare counts before listing words, so an oversized header fails fast.
    # word_count(m, n) > 2**n, so an n at or past the body count's bit length
    # cannot match and is rejected without summing its word count.
    if n >= len(body).bit_length() or word_count(m, n) != len(body):
        raise ParseError(
            f"header m={m}, N={n} does not match the {len(body)} records found",
            line=len(lines),
        )
    coeffs: dict[Word, object] = {}
    expected = words_up_to(m, n)
    for k, ln in enumerate(body):
        if ";" not in ln:
            raise ParseError("missing ';' in series record", line=k + 2, token=ln)
        wtxt, vtxt = ln.split(";", 1)
        w = tuple(map(int, wtxt.split(","))) if wtxt else EMPTY_WORD
        if w != expected[k]:
            raise ParseError(
                f"record out of order: expected word {expected[k]}", line=k + 2, token=wtxt
            )
        try:
            val = Fraction(vtxt) if mode == RATIONAL else float(vtxt)
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad coefficient value", line=k + 2, token=vtxt) from None
        if val != 0:
            coeffs[w] = val
    return Series(m, n, coeffs, mode)


def read_series(path) -> Series:
    with open(path, "r", encoding="ascii") as fh:
        return parse_series(fh.read())


def word_count(m: int, n: int) -> int:
    """Number of words of degree <= n: sum_{k<=n} (m+1)^k."""
    return sum((m + 1) ** k for k in range(n + 1))
