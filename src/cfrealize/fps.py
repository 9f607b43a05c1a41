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
Two scalar modes exist: exact rationals (the default for all algebra) and
doubles (for simulation output).  Mixing modes in one operation is an error.

A rational level is stored as one tuple of integer numerators over one
positive denominator, ``levels[k]`` over ``dens[k]``, kept canonical: the
gcd of the numerators and the denominator is 1, so equal series have equal
levels.  The exact layer works on these integers; `fractions.Fraction`
values are built only on demand (:func:`coefficient`, ``Series.coeffs``).
A float level holds the doubles themselves, over denominator 1.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, product, repeat
from types import MappingProxyType

from .errors import (
    AlphabetError,
    CFError,
    DegreeError,
    LevelSizeError,
    ModeMismatchError,
    ParseError,
)

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

RATIONAL = "rational"
FLOAT = "float"

MAX_WORDS = 10**6  # levels are dense: the most words a series (or degree flag) may span
# The most floats (80 MB) a study's paths, states or one integral table may hold.
MAX_CELLS = 10**7
# The most bits (80 MB) a rational level's common denominator may take, counted
# once per word of the level: values whose denominators share no factors would
# otherwise carry their product in every numerator.
MAX_LEVEL_BITS = 64 * MAX_CELLS


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


def _canonical_level(k: int, nums, dens) -> tuple[tuple[int, ...], int]:
    """Rational level k as integer numerators over one positive denominator,
    with gcd 1: value i is ``nums[i] / dens[i]`` for a list of positive
    ``dens``, which comes out over the lcm of the reduced denominators, or
    ``nums[i] / dens`` for one integer.  ModeMismatchError for a value that is not an integer;
    LevelSizeError once the denominator's bits, counted once per value, pass
    MAX_LEVEL_BITS."""
    message = f"degree-{k} coefficients need more than {MAX_LEVEL_BITS} bits over one denominator"
    try:
        nums = tuple(map(operator.index, nums))
        if isinstance(dens, list):
            if len(dens) != len(nums):
                raise ValueError(f"need one denominator per value of level {k}")
            gcds = list(map(math.gcd, nums, dens))
            if gcds.count(1) != len(gcds):  # values not in lowest terms
                nums = list(map(operator.floordiv, nums, gcds))
                dens = list(map(operator.floordiv, dens, gcds))
            den, distinct = 1, set(dens)
            for d in distinct:
                den = math.lcm(den, d)
                if den.bit_length() * len(nums) > MAX_LEVEL_BITS:
                    raise LevelSizeError(message, k, dens.index(d))
            scales = {d: den // d for d in distinct}
            return tuple(map(operator.mul, nums, map(scales.__getitem__, dens))), den
        den = operator.index(dens)
    except TypeError:
        raise ModeMismatchError("a rational level holds integers over an integer") from None
    if den < 1:
        raise ValueError(f"level denominator must be positive, got {den}")
    g = math.gcd(*nums, den)
    if (den // g).bit_length() * len(nums) > MAX_LEVEL_BITS:
        raise LevelSizeError(message, k, 0)
    return (nums, den) if g == 1 else (tuple([c // g for c in nums]), den // g)


class Series:
    """Truncated noncommutative formal power series.

    Attributes:
        m: largest letter of the alphabet (alphabet size is m + 1).
        max_degree: validity degree; coefficients of longer words are unknown.
        mode: ``"rational"`` or ``"float"``.
        levels: ``levels[k]`` holds the words of degree k, w's at
            ``word_index(w, m)``: integer numerators over ``dens[k]`` in
            rational mode, doubles in float mode.
        dens: the positive denominator of each level; 1 in float mode.
        den: the common denominator of every level, the lcm of ``dens``.

    Built from ``coeffs``, a map word -> scalar (absent words are zero), or
    from ``levels`` and ``dens`` as above (``dens`` defaults to all 1); in
    rational mode ``dens[k]`` may also list one positive denominator per
    value of level k.  Rational levels are reduced to the canonical form;
    one past MAX_LEVEL_BITS raises LevelSizeError.  Instances are treated
    as immutable; operations return new series.
    """

    __slots__ = ("m", "max_degree", "mode", "levels", "dens", "den")

    def __init__(
        self, m: int, max_degree: int, coeffs=None, mode: str = RATIONAL, levels=None, dens=None
    ):
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
        sizes = [(m + 1) ** k for k in range(max_degree + 1)]
        if levels is None and dens is None:
            levels = [[0] * size for size in sizes]
            if mode == RATIONAL:
                dens = [[1] * size for size in sizes]
            for w, c in (coeffs or {}).items():
                w = check_word(w, m)
                if len(w) > max_degree:
                    raise DegreeError(
                        f"word {w} of degree {len(w)} exceeds truncation degree {max_degree}"
                    )
                c, i = _coerce(c, mode), word_index(w, m)
                if mode == RATIONAL:
                    levels[len(w)][i], dens[len(w)][i] = c.numerator, c.denominator
                else:
                    levels[len(w)][i] = c
        elif coeffs or levels is None or list(map(len, levels)) != sizes:
            raise ValueError(f"need levels of (m+1)^k scalars, k = 0..{max_degree}, and no map")
        dens = (1,) * len(sizes) if dens is None else tuple(dens)
        if len(dens) != len(sizes) or (mode == FLOAT and dens != (1,) * len(sizes)):
            raise ValueError("need one denominator per level, each 1 in float mode")
        if mode == RATIONAL:
            self.levels, self.dens = map(
                tuple, zip(*map(_canonical_level, range(len(sizes)), levels, dens))
            )
            self.den = math.lcm(*self.dens)
        else:
            # A zero of either sign is stored as 0.0.
            self.levels = tuple(
                tuple([(c if type(c) is float else float(c)) or 0.0 for c in level])
                for level in levels
            )
            self.dens, self.den = dens, 1

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, m: int, max_degree: int, mode: str = RATIONAL) -> "Series":
        return cls(m, max_degree, {}, mode)

    @classmethod
    def unit(cls, m: int, max_degree: int, mode: str = RATIONAL) -> "Series":
        """The multiplicative unit: coefficient 1 on the empty word."""
        return cls(m, max_degree, {EMPTY_WORD: 1}, mode)

    @classmethod
    def monomial(cls, m: int, max_degree: int, w, coeff=1, mode: str = RATIONAL) -> "Series":
        return cls(m, max_degree, {tuple(w): coeff}, mode)

    # -- basic protocol ------------------------------------------------

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only map word -> scalar of the nonzero coefficients."""
        out = {}
        for k, (level, den) in enumerate(zip(self.levels, self.dens)):
            for w, c in zip(words_of_degree(self.m, k), level):
                if c:
                    out[w] = c if self.mode == FLOAT else Fraction(c, den)
        return MappingProxyType(out)

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
            and self.dens == other.dens
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
    """Coefficient of word ``w`` in ``r``: a Fraction in rational mode.

    Requesting a word beyond the truncation degree is an error, which keeps
    "unknown" distinct from "zero".
    """
    w = check_word(w, r.m)
    if len(w) > r.max_degree:
        raise DegreeError(
            f"word of degree {len(w)} requested from series truncated at {r.max_degree}"
        )
    c = r.levels[len(w)][word_index(w, r.m)]
    return c if r.mode == FLOAT else Fraction(c, r.dens[len(w)])


def hankel_column(r: Series, v, d: int) -> list:
    """Hankel column [r(u.v) for u of degree <= d], u in graded-lex order:
    one strided slice per level.  Rational entries are integer numerators
    over the series' common denominator ``r.den``, so every column of one
    series shares it; float entries are the doubles.  As with
    :func:`coefficient`, a product word beyond the truncation degree is an
    error, not a zero."""
    if d + len(v) > r.max_degree:
        raise DegreeError(
            f"word of degree {d + len(v)} requested from series truncated at {r.max_degree}"
        )
    start, step = word_index(v, r.m), (r.m + 1) ** len(v)
    den, span = r.den, slice(len(v), len(v) + d + 1)
    scales = [den // level_den for level_den in r.dens[span]]
    return [c * scale for level, scale in zip(r.levels[span], scales) for c in level[start::step]]


def series_linear_combine(alpha, r: Series, beta, s: Series) -> Series:
    """alpha*r + beta*s, truncated to the smaller validity degree."""
    _check_pair(r, s)
    n = min(r.max_degree, s.max_degree)
    alpha, beta = _coerce(alpha, r.mode), _coerce(beta, r.mode)
    rc, sc = r.coeffs, s.coeffs
    combined = {w: alpha * rc.get(w, 0) + beta * sc.get(w, 0) for w in words_up_to(r.m, n)}
    return Series(r.m, n, combined, r.mode)


def shuffle_counts(u: Word, v: Word) -> dict[Word, int]:
    """Multiset of interleavings of u and v as a map word -> multiplicity."""
    return dict(_shuffle_counts(tuple(u), tuple(v)))


@cache
def _shuffle_counts(u: Word, v: Word) -> dict[Word, int]:
    """``shuffle_counts`` through a memo whose dicts no caller may mutate."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: dict[Word, int] = {}
    for w, c in _shuffle_counts(u[:-1], v).items():
        w2 = w + (u[-1],)
        out[w2] = out.get(w2, 0) + c
    for w, c in _shuffle_counts(u, v[:-1]).items():
        w2 = w + (v[-1],)
        out[w2] = out.get(w2, 0) + c
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
    """Cast a series to float mode (identity on float-mode input); each
    value is its numerator divided by its level's denominator, which rounds
    as ``float(Fraction)`` does.

    Raises CFError naming the first word whose coefficient lies outside the
    float range.
    """
    if r.mode == FLOAT:
        return r
    try:
        levels = [[c / den for c in level] for level, den in zip(r.levels, r.dens)]
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
# A series file is exactly what format_series writes, and parse_series is its
# one reader.  Header line, with single spaces:
#     cfseries m=<m> N=<N> mode=<rational|float>
# m in 1..9999999 and N in 0..99, without leading zeros.  Then one record per
# word of degree <= N in graded-lex order, that is the levels one after
# another:
#     <comma-joined letters>;<value>
# The words are spelled as _word_columns spells them; the empty word is the
# empty string.  A rational value is n/d (-?[0-9]+/[0-9]+) with d > 0,
# reduced on reading; format_series writes it in lowest terms.  A float value
# is text of [0-9.e+-] that float() reads as a finite double; format_series
# writes its repr(), so values round-trip exactly.  Lines end at \n, \r\n or
# \r, as split_lines breaks them.
#
# Both directions handle a file as whole columns of text.  format_series
# fills one template, the word column with a value slot on each line, with a
# single %.  parse_series checks each line's separators, splits the body into
# cells once per level, compares the word cells with the word column and
# turns the value cells with map(int) or map(float); Series reduces each n/d
# and scales the level to numerators over the lcm of the reduced d.  A
# rational level past MAX_LEVEL_BITS is a ParseError naming its record, taken
# from the LevelSizeError.  Any other file the columns refuse is read once
# more, line by line, by _refusal, which names its first line that is not the
# header or <expected word>;<value>, with its token, else the record count.

_HEADER_FIELDS = (
    # (a field as written, the same key with a value below range, its message)
    ("m=([1-9][0-9]{0,6})", "m=(0+|-[0-9]+)", "alphabet max letter in series header must be >= 1"),
    ("N=(0|[1-9][0-9]?)", "N=-[0-9]+", "negative degree bound in series header"),
    ("mode=(rational|float)", "mode=.*", "unknown scalar mode in series header"),
)
_CANONICAL_HEADER = re.compile(" ".join(["cfseries", *[field for field, _, _ in _HEADER_FIELDS]]))
# What the column reader deletes from a body to leave its separators, and
# what each line must leave: words are made of digits and commas, rational
# values of digits, '-' and one '/', float values of a repr's characters.
_COLUMN_CHARS = {
    RATIONAL: (str.maketrans("", "", "0123456789,-"), ";/\n"),
    FLOAT: (str.maketrans("", "", "0123456789,-+.e"), ";\n"),
}
_CELL_BREAKS = str.maketrans(";/", "\n\n")
_LETTER = re.compile("0|[1-9][0-9]*")


def _word_columns(m: int, n: int) -> list[str]:
    """The words of degree k over {0..m}, for each k <= n, as a series file
    spells them: comma-joined letters, one word per line, in lex order.
    Level k + 1 puts each letter before every line of level k; the letters
    are not listed for n = 0, where m may be as large as the header allows."""
    letters = [str(c) for c in range(m + 1)] if n else []
    levels = [""]
    for k in range(n):
        last = levels[-1]
        levels.append(
            "\n".join(c + "," + last.replace("\n", "\n" + c + ",") for c in letters)
            if k
            else "\n".join(letters)
        )
    return levels


def format_series(r: Series) -> str:
    if r.mode == RATIONAL:
        slot, nums, dens = "%d/%d", [], []
        for level, den in zip(r.levels, r.dens):
            gcds = list(map(math.gcd, level, repeat(den)))
            nums += map(operator.floordiv, level, gcds)
            dens += map(operator.floordiv, repeat(den), gcds)
        values = [None] * (2 * len(nums))
        values[0::2], values[1::2] = nums, dens
        del nums, dens
    else:
        slot, values = "%r", list(chain.from_iterable(r.levels))
        if not all(map(math.isfinite, values)):
            for w, c in zip(words_up_to(r.m, r.max_degree), values):
                if not math.isfinite(c):
                    raise CFError(f"coefficient of word {w} is not finite: {c!r}")
    template = (
        f"cfseries m={r.m} N={r.max_degree} mode={r.mode}\n"
        + "\n".join(_word_columns(r.m, r.max_degree)).replace("\n", f";{slot}\n")
        + f";{slot}\n"
    )
    try:
        return template % tuple(values)
    except ValueError:  # an integer past the interpreter's digit limit
        for w, c in r.coeffs.items():
            try:
                "%d/%d" % c.as_integer_ratio()
            except ValueError:
                limit = sys.get_int_max_str_digits()
                raise CFError(f"coefficient of word {w} has more than {limit} digits") from None
        raise


def parse_series(text: str) -> Series:
    """The series of the text of a series file (see the format above)."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    head, _, body = text.partition("\n")
    header = _CANONICAL_HEADER.fullmatch(head)
    if header:
        if body and not body.endswith("\n"):
            body += "\n"  # the last line break may be left out
        series = _parse_columns(int(header[1]), int(header[2]), header[3], body)
        if series is not None:
            return series
    raise _refusal(text)


def _parse_columns(m: int, n: int, mode: str, body: str) -> Series | None:
    """The series of a canonical header's body read a column at a time, or
    None if some line is not the expected word, ';' and a value, or the
    record count is not the header's."""
    count = body.count("\n")
    # A header at or past the count's bit length cannot match it and is not summed.
    if n >= count.bit_length() or word_count(m, n) != count:
        return None
    check_word_count(m, n)
    table, separators = _COLUMN_CHARS[mode]
    # The separators left, in order, show that every line is <word>;<value>,
    # so splitting at them puts each word and value at its own stride.
    if body.translate(table) != separators * count:
        return None
    stride, columns = len(separators), _word_columns(m, n)
    levels, dens = [None] * (n + 1), [None] * (n + 1)
    rest = body[:-1].translate(_CELL_BREAKS)
    try:
        # From the last level down, splitting off one level's cells at a time.
        for k in range(n, -1, -1):
            cells = rest.rsplit("\n", stride * (m + 1) ** k)
            if k:  # level 0's cells are all that is left
                rest = cells.pop(0)
            if "\n".join(cells[0::stride]) != columns[k]:
                return None
            del cells[0::stride]
            if mode == FLOAT:
                levels[k] = list(map(float, cells))
            else:
                dens[k] = list(map(int, cells[1::2]))
                del cells[1::2]
                levels[k] = list(map(int, cells))
    except ValueError:  # not a number, or past the interpreter's digit limit
        return None
    if mode == FLOAT:
        if not all(map(math.isfinite, chain.from_iterable(levels))):
            return None
        return Series(m, n, mode=FLOAT, levels=levels)
    if min(map(min, dens)) < 1:
        return None
    try:
        return Series(m, n, mode=RATIONAL, levels=levels, dens=dens)
    except LevelSizeError as exc:
        k, i = exc.degree, exc.index
        line = 2 + word_count(m, k - 1) + i
        raise ParseError(str(exc), line=line, token=str(dens[k][i])) from None


def _refusal(text: str) -> ParseError:
    """The ParseError of a series file's text that the column reader
    refuses: the header's bad token, else the first record that is not the
    expected word, ';' and a value, else the record count."""
    lines = split_lines(text, "series")
    if not lines:
        return ParseError("empty series file", line=1)
    head = lines[0].split(" ")
    if len(head) != 4 or head[0] != "cfseries":
        return ParseError("malformed series header", line=1, token=lines[0])
    for token, (field, below, message) in zip(head[1:], _HEADER_FIELDS):
        if not re.fullmatch(field, token):
            message = message if re.fullmatch(below, token) else "malformed series header"
            return ParseError(message, line=1, token=token)
    m, n, mode = int(head[1][2:]), int(head[2][2:]), head[3][5:]
    words = (w for k in range(n + 1) for w in product(range(m + 1), repeat=k))
    for i, (line, w) in enumerate(zip(lines[1:], words), 2):
        word, semicolon, value = line.partition(";")
        if not semicolon:
            return ParseError("missing ';' in series record", line=i, token=line)
        if word != ",".join(map(str, w)):
            if word and not all(map(_LETTER.fullmatch, word.split(","))):
                return ParseError("malformed word in series record", line=i, token=word)
            return ParseError(f"record out of order: expected word {w}", line=i, token=word)
        message = _value_refusal(value, mode)
        if message:
            return ParseError(message, line=i, token=value)
    return ParseError(
        f"header m={m}, N={n} does not match the {len(lines) - 1} records found", line=len(lines)
    )


def _value_refusal(value: str, mode: str) -> str | None:
    """Why the column reader refuses a record's value text, or None."""
    try:
        if mode == FLOAT:
            if not math.isfinite(float(value)):
                return "non-finite coefficient value"
            if not value.strip("0123456789.e+-"):
                return None
        else:
            num, den = value.split("/")
            if value.isascii() and num.removeprefix("-").isdigit() and den.isdigit():
                int(num)  # ValueError past the interpreter's digit limit
                if int(den) > 0:
                    return None
    except ValueError:
        pass
    return "bad coefficient value"


# Characters other than \n and \r that str.splitlines breaks lines at.
_STRAY_BREAK = re.compile("[\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")


def split_lines(text: str, kind: str) -> list[str]:
    """Lines of the text of a ``kind`` file, broken at \\n, \\r\\n and \\r
    only, as an editor counts them; ParseError naming the line of the first
    other character that ``str.splitlines`` would break at."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()  # the text ends with a line break, or is empty
    stray = _STRAY_BREAK.search(text)
    if stray:
        line = len(split_lines(text[: stray.start()] + ".", kind))
        raise ParseError(
            f"line-break character 0x{ord(stray.group()):02x} in {kind} file", line=line
        )
    return lines


def read_ascii(path, kind: str) -> str:
    """Text of the ASCII file at ``path``; ParseError naming the physical
    line of its first non-ASCII byte, if it has one, and the file's ``kind``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # The byte's line is the last line of the text that ends with it.
        line = len(split_lines((data[: exc.start] + b".").decode("ascii"), kind))
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
