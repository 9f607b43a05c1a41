"""Words over the alphabet {0..m} and truncated noncommutative power series.

A word is a plain tuple of integer letters; letter 0 is the time channel and
letters 1..m are the noise channels.  The empty tuple is the empty word.
Words are globally ordered graded-lexicographically: shorter words first,
ties broken by ordinary tuple comparison.  That single ordering is used for
matrix indexing and for file output, so artifacts are bit-reproducible.

Series, series files, Hankel columns and integral tables share one level
layout: level k holds the (m+1)^k words of degree k in that order, w at
``word_index(w, m)`` (its letters read as a base-(m+1) numeral).  Hence
word_index(u.v) = word_index(u) * (m+1)^|v| + word_index(v), and a Hankel
column [s(u.v) for |u| = a] is a strided slice of level a + |v|.

A :class:`Series` assigns a scalar coefficient to every word up to a fixed
truncation degree.  Coefficients beyond the truncation degree are unknown
(not zero); asking for one raises :class:`~cfrealize.errors.DegreeError`.
Two scalar modes exist: exact rationals (`fractions.Fraction`, the default
for all algebra) and doubles (for simulation output).  Mixing modes in one
operation is an error.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import reduce
from itertools import chain, islice, product
from types import MappingProxyType

from .errors import AlphabetError, CFError, DegreeError, ModeMismatchError, ParseError

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

RATIONAL = "rational"
FLOAT = "float"

MAX_WORDS = 10**6  # levels are dense: the most words a series (or degree flag) may span
# The most floats (80 MB) a study's paths, states or one integral table may hold.
MAX_CELLS = 10**7


def word_key(w: Word):
    """Sort key implementing the graded-lexicographic order."""
    return (len(w), w)


def word_index(w: Word, m: int) -> int:
    """Position of w in ``words_of_degree(m, len(w))``; AlphabetError for a
    letter outside {0..m}."""
    return reduce(lambda i, c: i * (m + 1) + c, check_word(w, m), 0)


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
    if n < 0:
        raise ValueError("degree bound must be nonnegative")
    return [w for d in range(n + 1) for w in words_of_degree(m, d)]


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
        levels: ``levels[k]`` holds the coefficients of the words of degree
            k, w's at ``word_index(w, m)``; given as is, or built from
            ``coeffs``, a map word -> scalar (absent words are zero).

    Instances are treated as immutable; operations return new series.
    """

    __slots__ = ("m", "max_degree", "mode", "levels")

    def __init__(self, m: int, max_degree: int, coeffs=None, mode: str = RATIONAL, levels=None):
        if m < 1:
            raise AlphabetError(f"alphabet max letter must be >= 1, got m={m}")
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        if mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown scalar mode {mode!r}")
        check_word_count(m, max_degree)
        self.m = m
        self.max_degree = max_degree
        self.mode = mode
        scalar_type = Fraction if mode == RATIONAL else float
        zero = zero_scalar(mode)
        if levels is None:
            levels = [[zero] * (m + 1) ** k for k in range(max_degree + 1)]
            for w, c in (coeffs or {}).items():
                w = check_word(w, m)
                if len(w) > max_degree:
                    raise DegreeError(
                        f"word {w} of degree {len(w)} exceeds truncation degree {max_degree}"
                    )
                levels[len(w)][word_index(w, m)] = c
        elif coeffs or list(map(len, levels)) != [(m + 1) ** k for k in range(max_degree + 1)]:
            raise ValueError(f"need levels of (m+1)^k scalars, k = 0..{max_degree}, and no map")
        # A zero of either sign is stored as the mode's zero.
        self.levels = tuple(
            tuple([(c if type(c) is scalar_type else _coerce(c, mode)) or zero for c in level])
            for level in levels
        )

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

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only map word -> scalar of the nonzero coefficients."""
        pairs = zip(words_up_to(self.m, self.max_degree), chain.from_iterable(self.levels))
        return MappingProxyType({w: c for w, c in pairs if c})

    def degree(self) -> int:
        """Largest degree carrying a nonzero coefficient (0 for the zero series)."""
        return max((k for k, level in enumerate(self.levels) if any(level)), default=0)

    def is_zero(self) -> bool:
        return not any(map(any, self.levels))

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.m == other.m
            and self.max_degree == other.max_degree
            and self.mode == other.mode
            and self.levels == other.levels
        )

    def __repr__(self):
        terms = ", ".join(f"{w or '()'}: {c}" for w, c in self.coeffs.items())
        return f"Series(m={self.m}, N={self.max_degree}, mode={self.mode}, {{{terms}}})"


def _check_pair(r: Series, s: Series):
    if r.m != s.m:
        raise AlphabetError(f"alphabet mismatch: m={r.m} vs m={s.m}")
    if r.mode != s.mode:
        raise ModeMismatchError(f"scalar mode mismatch: {r.mode} vs {s.mode}")


def coefficient(r: Series, w) -> object:
    """Coefficient of word ``w`` in ``r``.

    Requesting a word beyond the truncation degree is an error, which keeps
    "unknown" distinct from "zero".
    """
    w = check_word(w, r.m)
    if len(w) > r.max_degree:
        raise DegreeError(
            f"word of degree {len(w)} requested from series truncated at {r.max_degree}"
        )
    return r.levels[len(w)][word_index(w, r.m)]


def hankel_column(r: Series, v, d: int) -> list:
    """Hankel column [r(u.v) for u of degree <= d], u in graded-lex order:
    one strided slice per level.  As with :func:`coefficient`, a product
    word beyond the truncation degree is an error, not a zero."""
    if d + len(v) > r.max_degree:
        raise DegreeError(
            f"word of degree {d + len(v)} requested from series truncated at {r.max_degree}"
        )
    start, step = word_index(v, r.m), (r.m + 1) ** len(v)
    return [c for a in range(d + 1) for c in r.levels[a + len(v)][start::step]]


def series_linear_combine(alpha, r: Series, beta, s: Series) -> Series:
    """alpha*r + beta*s, truncated to the smaller validity degree."""
    _check_pair(r, s)
    n = min(r.max_degree, s.max_degree)
    alpha = _coerce(alpha, r.mode)
    beta = _coerce(beta, r.mode)
    levels = [[alpha * a + beta * b for a, b in zip(x, y)] for x, y in zip(r.levels, s.levels)]
    return Series(r.m, n, mode=r.mode, levels=levels)


def series_product(r: Series, s: Series) -> Series:
    """Concatenation (Cauchy) product, truncated to the smaller validity degree.

    The coefficient of a word w is the sum of r(u)*s(v) over all splittings
    w = u.v; the product is noncommutative.  Level k sums the outer products
    of r's level a and s's level k - a.
    """
    _check_pair(r, s)
    n = min(r.max_degree, s.max_degree)
    levels = []
    for k in range(n + 1):
        out = [zero_scalar(r.mode)] * (r.m + 1) ** k
        for a in range(k + 1):
            right = s.levels[k - a]
            for i, x in enumerate(r.levels[a]):
                if x:
                    for j, y in enumerate(right):
                        if y:
                            out[i * len(right) + j] += x * y
        levels.append(out)
    return Series(r.m, n, mode=r.mode, levels=levels)


_SHUFFLE_CACHE: dict[tuple[Word, Word], dict[Word, int]] = {}


def shuffle_counts(u: Word, v: Word) -> dict[Word, int]:
    """Multiset of interleavings of u and v as a map word -> multiplicity."""
    return dict(_shuffle_counts(tuple(u), tuple(v)))


def _shuffle_counts(u: Word, v: Word) -> dict[Word, int]:
    """``shuffle_counts`` through a memo whose dicts no caller may mutate."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    key = (u, v)
    hit = _SHUFFLE_CACHE.get(key)
    if hit is not None:
        return hit
    out: dict[Word, int] = {}
    for w, c in _shuffle_counts(u[:-1], v).items():
        w2 = w + (u[-1],)
        out[w2] = out.get(w2, 0) + c
    for w, c in _shuffle_counts(u, v[:-1]).items():
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
    return Series(m, len(u) + len(v), _shuffle_counts(u, v), mode)


def to_float(r: Series) -> Series:
    """Cast a series to float mode (identity on float-mode input).

    Raises CFError naming the first word whose coefficient lies outside the
    float range.
    """
    if r.mode == FLOAT:
        return r
    try:
        levels = [[float(c) for c in level] for level in r.levels]
    except OverflowError:
        for w, c in r.coeffs.items():
            try:
                float(c)
            except OverflowError:
                raise CFError(f"coefficient of word {w} is outside the float range") from None
        raise
    return Series(r.m, r.max_degree, mode=FLOAT, levels=levels)


# -- series file format ---------------------------------------------------
#
# Header line:   cfseries m=<m> N=<N> mode=<rational|float>
# Then one record per word of degree <= N in graded-lex order, that is the
# levels one after another:
#     <comma-joined letters>;<value>
# The empty word is the empty string.  format_series writes every record in
# canonical form: the letters exactly as above, then a rational value as n/d
# in lowest terms (-?[0-9]+/[0-9]+) or a float value as its repr(), so values
# round-trip exactly and are finite.  parse_series reads a canonical record
# without parsing its word or calling Fraction(str).  Any other form still
# parses: letters that int() accepts, in order, and a value that
# Fraction(str) (rational mode) or float() (float mode) accepts.

_CANONICAL_VALUE = re.compile(r"-?[0-9]+/[0-9]+")


def _record_prefixes(m: int, n: int) -> list[str]:
    """The prefix ``"<comma-joined letters>;"`` of every record of a degree-n
    series file, in graded-lex order; each level extends the one before."""
    digits = [str(c) for c in range(m + 1)]
    level, texts = [""], [""]
    for k in range(n):
        level = digits if k == 0 else [t + "," + d for t in level for d in digits]
        texts += level
    return [t + ";" for t in texts]


def format_series(r: Series) -> str:
    values = list(chain.from_iterable(r.levels))
    if r.mode == RATIONAL:
        try:
            texts = ["%d/%d" % c.as_integer_ratio() for c in values]
        except ValueError:  # an integer past the interpreter's digit limit
            for w, c in zip(words_up_to(r.m, r.max_degree), values):
                try:
                    "%d/%d" % c.as_integer_ratio()
                except ValueError:
                    limit = sys.get_int_max_str_digits()
                    raise CFError(f"coefficient of word {w} has more than {limit} digits") from None
            raise
    elif all(map(math.isfinite, values)):
        texts = list(map(repr, values))
    else:
        for w, c in zip(words_up_to(r.m, r.max_degree), values):
            if not math.isfinite(c):
                raise CFError(f"coefficient of word {w} is not finite: {c!r}")
    records = map(str.__add__, _record_prefixes(r.m, r.max_degree), texts)
    return "\n".join([f"cfseries m={r.m} N={r.max_degree} mode={r.mode}", *records]) + "\n"


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
    if m < 1:
        raise ParseError(
            "alphabet max letter in series header must be >= 1", line=1, token=head[1]
        )
    if n < 0:
        raise ParseError("negative degree bound in series header", line=1, token=head[2])
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

    def record_error(k: int, message: str, token: str) -> ParseError:
        # Blank lines are skipped, so record k's line is counted only here.
        nonblank = (i for i, ln in enumerate(lines[1:], 2) if ln.strip())
        return ParseError(message, line=next(islice(nonblank, k, None)), token=token)

    zero = zero_scalar(mode)
    expected = None  # words_up_to(m, n), listed at the first record without its prefix
    values = []
    for k, (ln, prefix) in enumerate(zip(body, _record_prefixes(m, n))):
        if ln.startswith(prefix):
            vtxt = ln[len(prefix) :]
        else:
            if ";" not in ln:
                raise record_error(k, "missing ';' in series record", ln)
            wtxt, vtxt = ln.split(";", 1)
            try:
                w = tuple(map(int, wtxt.split(","))) if wtxt else EMPTY_WORD
            except ValueError:
                raise record_error(k, "malformed word in series record", wtxt) from None
            expected = expected or words_up_to(m, n)
            if w != expected[k]:
                raise record_error(k, f"record out of order: expected word {expected[k]}", wtxt)
        try:
            if mode == FLOAT:
                val = float(vtxt)
            elif vtxt == "0/1":
                val = zero
            elif _CANONICAL_VALUE.fullmatch(vtxt):
                num, den = vtxt.split("/")
                val = Fraction(int(num), int(den))
            else:
                val = Fraction(vtxt)
        except (ValueError, ZeroDivisionError):
            raise record_error(k, "bad coefficient value", vtxt) from None
        if mode == FLOAT and not math.isfinite(val):
            raise record_error(k, "non-finite coefficient value", vtxt)
        values.append(val)
    levels = [values[word_count(m, k - 1) : word_count(m, k)] for k in range(n + 1)]
    return Series(m, n, mode=mode, levels=levels)


def read_ascii(path, kind: str) -> str:
    """Text of the ASCII file at ``path``; ParseError naming the physical
    line of its first non-ASCII byte, if it has one, and the file's ``kind``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # The byte's line is the last line of the text that ends with it.
        line = len((data[: exc.start] + b".").decode("ascii").splitlines())
        byte = data[exc.start]
        raise ParseError(f"non-ASCII byte 0x{byte:02x} in {kind} file", line=line) from None


def read_series(path) -> Series:
    """Parse the series file at ``path``."""
    return parse_series(read_ascii(path, "series"))


def word_count(m: int, n: int) -> int:
    """Number of words of degree <= n: sum_{k<=n} (m+1)^k."""
    return sum((m + 1) ** k for k in range(n + 1))


def check_word_count(m: int, n: int, what: str = "truncation degree") -> None:
    """Raise DegreeError if the words of degree <= n over {0..m} outnumber MAX_WORDS."""
    # From n = 64 on, word_count(m, n) > 2**n > MAX_WORDS; not summed, as n may be huge.
    count = word_count(m, n) if n < 64 else f"more than 2^{n}"
    if n >= 64 or count > MAX_WORDS:
        raise DegreeError(
            f"{what} {n} asks for {count} words over the alphabet {{0..{m}}}, "
            f"above the limit of {MAX_WORDS}"
        )
