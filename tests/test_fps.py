import itertools
import math
import random
import re
import struct
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrealize import (
    AlphabetError,
    CFError,
    DegreeError,
    LevelSizeError,
    ModeMismatchError,
    ParseError,
    Series,
    QSpec,
    cf_trajectory,
    coefficient,
    expand_bracket,
    hankel_column,
    iterated_stratonovich,
    lyndon_words,
    make_grid,
    parse_model,
    read_model,
    sample_brownian,
    series_linear_combine,
    shuffle,
    standard_bracketing,
    to_float,
    words_up_to,
)
from cfrealize import fps
from cfrealize.fps import (
    FLOAT,
    MAX_LEVEL_BITS,
    MAX_WORDS,
    RATIONAL,
    format_series,
    parse_series,
    read_series,
    shuffle_counts,
    word_count,
    word_index,
    word_key,
    words_of_degree,
)

from helpers import series_product

words_strategy = st.lists(st.integers(0, 2), max_size=4).map(tuple)


def brute_words_up_to(m, n):
    out = []
    for d in range(n + 1):
        out.extend(itertools.product(range(m + 1), repeat=d))
    return out


def brute_interleavings(u, v):
    """All interleavings of u and v by choosing the positions of u."""
    out = {}
    total = len(u) + len(v)
    for positions in itertools.combinations(range(total), len(u)):
        w = [None] * total
        ui, vi = iter(u), iter(v)
        for k in range(total):
            w[k] = next(ui) if k in positions else next(vi)
        w = tuple(w)
        out[w] = out.get(w, 0) + 1
    return out


class TestWords:
    def test_degree_zero(self):
        assert words_up_to(1, 0) == [()]

    def test_binary_up_to_two(self):
        assert words_up_to(1, 2) == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_ternary_count_matches_enumeration(self):
        got = words_up_to(2, 3)
        assert len(got) == 40
        assert got == sorted(brute_words_up_to(2, 3), key=word_key)

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(AlphabetError):
            words_up_to(0, 3)

    def test_count_formula(self):
        for m in (1, 2, 3):
            for n in range(5):
                assert len(words_up_to(m, n)) == word_count(m, n)

    def test_word_index_inverts_listing(self):
        for m in (1, 2, 3):
            for d in range(4):
                indices = [word_index(w, m) for w in words_of_degree(m, d)]
                assert indices == list(range((m + 1) ** d))
        with pytest.raises(AlphabetError):
            word_index((0, 2), 1)

    @given(words_strategy, words_strategy)
    def test_word_index_of_concatenation(self, u, v):
        assert word_index(u + v, 2) == word_index(u, 2) * 3 ** len(v) + word_index(v, 2)


def z(letter, m=1, n=4):
    return Series.monomial(m, n, (letter,))


class TestSeriesAlgebra:
    def test_linear_combine_identity(self):
        r = Series(1, 3, {(0, 0, 1): Fraction(3, 2), (1,): -1})
        s = Series(1, 2, {(1, 1): 5})
        out = series_linear_combine(1, r, 0, s)
        # truncated to the smaller validity degree
        assert out == Series(1, 2, {(1,): -1})

    def test_linear_combine_doubles(self):
        out = series_linear_combine(1, z(0), 1, z(0))
        assert coefficient(out, (0,)) == 2

    def test_linear_combine_cancels(self):
        z01 = series_product(z(0), z(1))
        out = series_linear_combine(1, z01, -1, z01)
        assert out.is_zero()

    def test_product_unit(self):
        r = Series(1, 4, {(0, 1): 2, (): 7, (1, 1, 0): Fraction(1, 3)})
        assert series_product(Series.unit(1, 4), r) == r
        assert series_product(r, Series.unit(1, 4)) == r

    def test_product_monomials(self):
        out = series_product(z(0), z(1))
        assert out.coeffs == {(0, 1): 1}

    def test_product_expansion_against_convolution_oracle(self):
        a = series_linear_combine(1, z(0), 1, z(1))  # z0 + z1
        b = series_linear_combine(1, z(0), -1, z(1))  # z0 - z1
        got = series_product(a, b)

        def oracle(r, s):
            out = {}
            for u, cu in r.coeffs.items():
                for v, cv in s.coeffs.items():
                    out[u + v] = out.get(u + v, 0) + cu * cv
            return {w: c for w, c in out.items() if c != 0}

        assert got.coeffs == oracle(a, b)
        assert got.coeffs == {(0, 0): 1, (0, 1): -1, (1, 0): 1, (1, 1): -1}

    def test_product_associative_random_monomials(self, rng):
        for _ in range(25):
            words = [tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 2))) for _ in range(3)]
            a, b, c = (Series.monomial(1, 6, w, rng.randint(-3, 3)) for w in words)
            assert series_product(series_product(a, b), c) == series_product(
                a, series_product(b, c)
            )

    def test_degree_additivity(self):
        r = Series(1, 3, {(0,): 1, (0, 1): 1})
        s = Series(1, 3, {(1,): 1, (1, 1): 1})
        out = series_product(r, s)
        for w, c in out.coeffs.items():
            assert c != 0
            parts = [
                (len(u), len(w) - len(u))
                for u in r.coeffs
                for v in s.coeffs
                if u + v == w
            ]
            assert all(a + b == len(w) for a, b in parts)

    def test_mode_and_alphabet_mismatch(self):
        with pytest.raises(ModeMismatchError):
            series_linear_combine(1, z(0), 1, to_float(z(0)))
        with pytest.raises(AlphabetError):
            series_product(z(0, m=1), z(0, m=2))


class TestLevels:
    def test_levels_hold_every_word_in_index_order(self):
        s = Series(2, 2, {(1,): 3, (2, 0): Fraction(1, 2)})
        assert [len(level) for level in s.levels] == [1, 3, 9]
        assert s.levels[1] == (0, 3, 0)
        assert s.levels[2][word_index((2, 0), 2)] == 1 and s.dens == (1, 1, 2)
        assert coefficient(s, (2, 0)) == Fraction(1, 2)
        assert Series(2, 2, levels=s.levels, dens=s.dens) == s
        assert dict(s.coeffs) == {(1,): 3, (2, 0): Fraction(1, 2)}
        with pytest.raises(TypeError):
            s.coeffs[(0,)] = 1
        with pytest.raises(ValueError):
            Series(2, 2, levels=s.levels[:2])

    def test_negative_zero_stored_as_zero(self):
        s = Series(1, 1, {(0,): -0.0, (1,): 2.0}, FLOAT)
        assert s.coeffs == {(1,): 2.0}
        assert format_series(s).splitlines()[2] == "0;0.0"

    def test_word_count_bound(self):
        assert word_count(1, 18) <= MAX_WORDS < word_count(1, 19)
        Series.zero(1, 18)
        for n in (19, 10**9):
            with pytest.raises(DegreeError):
                Series.zero(1, n)


class TestCoefficient:
    def test_zero_series(self):
        assert coefficient(Series.zero(1, 3), (0, 1)) == 0

    def test_product_coefficient(self):
        assert coefficient(series_product(z(0), z(1)), (0, 1)) == 1

    def test_shuffle_coefficient(self):
        assert coefficient(shuffle((0, 1), (0,), 1), (0, 0, 1)) == 2

    def test_degree_overflow_is_error(self):
        with pytest.raises(DegreeError):
            coefficient(Series.zero(1, 2), (0, 0, 0))


class TestShuffle:
    def test_unit(self):
        out = shuffle((), (1, 0), 1)
        assert out.coeffs == {(1, 0): 1}

    def test_two_letters(self):
        out = shuffle((1,), (2,), 2)
        assert out.coeffs == {(1, 2): 1, (2, 1): 1}

    def test_against_brute_force(self):
        got = shuffle((0, 1), (0,), 1)
        assert got.coeffs == brute_interleavings((0, 1), (0,))
        assert got.coeffs == {(0, 0, 1): 2, (0, 1, 0): 1}

    @given(
        st.lists(st.integers(0, 1), max_size=3).map(tuple),
        st.lists(st.integers(0, 1), max_size=3).map(tuple),
    )
    @settings(max_examples=60)
    def test_mass_and_commutativity(self, u, v):
        counts = shuffle_counts(u, v)
        from math import comb

        assert sum(counts.values()) == comb(len(u) + len(v), len(u))
        assert counts == shuffle_counts(v, u)
        assert counts == brute_interleavings(u, v)

    def test_result_is_the_callers_own(self):
        counts = shuffle_counts((0,), (1,))
        counts.clear()
        assert shuffle_counts((0,), (1,)) == {(0, 1): 1, (1, 0): 1}
        assert shuffle((0,), (1,), 1) == Series(1, 2, {(0, 1): 1, (1, 0): 1})

    def test_associativity_small(self, rng):
        def shuffle_series(series, w, m):
            # extend the shuffle bilinearly to a series times a word
            total = None
            for u, cu in series.coeffs.items():
                part = shuffle(u, w, m)
                part = series_linear_combine(cu, part, 0, part)
                total = part if total is None else series_linear_combine(1, total, 1, part)
            return total if total is not None else Series.zero(m, series.max_degree + len(w))

        for _ in range(10):
            u, v, w = (
                tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 2)))
                for _ in range(3)
            )
            left = shuffle_series(shuffle(u, v, 1), w, 1)
            right = shuffle_series(shuffle(v, w, 1), u, 1)
            assert left == right


class TestHankelColumn:
    def test_matches_single_lookups(self):
        s = Series(2, 4, {w: Fraction(len(w) + 1, sum(w) + 1) for w in words_up_to(2, 4)})
        rows, cols = words_up_to(2, 2), words_up_to(2, 1) + [[1, 2]]
        for v in cols:
            column = [Fraction(c, s.den) for c in hankel_column(s, v, 2)]
            assert column == [coefficient(s, u + tuple(v)) for u in rows]
        assert hankel_column(s, (1,), -1) == []
        assert [hankel_column(s, v, 2) for v in []] == []

    def test_same_errors_as_single_lookups(self):
        s = Series(1, 3, {(0,): 1})
        with pytest.raises(DegreeError):
            hankel_column(s, (1, 1), 2)
        with pytest.raises(AlphabetError):
            hankel_column(s, (2,), 0)
        with pytest.raises(AlphabetError):
            hankel_column(s, (-1,), 0)


class TestSeriesFile:
    def test_round_trip_and_stability(self):
        s = Series(1, 3, {(): Fraction(1, 4), (0,): Fraction(1, 2), (1, 1): 2})
        text = format_series(s)
        back = parse_series(text)
        assert back == s
        assert format_series(back) == text

    def test_float_round_trip(self):
        s = to_float(Series(1, 2, {(0, 1): Fraction(1, 3)}))
        assert parse_series(format_series(s)) == s

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(0, 3))
        mode = data.draw(st.sampled_from([RATIONAL, FLOAT]))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        value = st.fractions() if mode == RATIONAL else finite
        coeffs = data.draw(st.dictionaries(st.sampled_from(words_up_to(m, n)), value))
        s = Series(m, n, coeffs, mode)
        assert parse_series(format_series(s)) == s

    def test_header_and_record_errors(self):
        with pytest.raises(ParseError):
            parse_series("nonsense\n")
        good = format_series(Series.zero(1, 1))
        bad = good.replace("1;0/1", "2;0/1")
        with pytest.raises(ParseError):
            parse_series(bad)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_line_and_token(self, value):
        text = format_series(to_float(Series(1, 1, {(1,): 1})))
        with pytest.raises(ParseError) as err:
            parse_series(text.replace("1;1.0", "1;" + value))
        assert (err.value.line, err.value.token) == (4, value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_format_rejects_non_finite_float_naming_first_word(self, value):
        s = Series(1, 2, {(0,): 1.5, (1, 0): value, (1, 1): float("inf")}, FLOAT)
        with pytest.raises(CFError, match=r"word \(1, 0\) is not finite"):
            format_series(s)

    def test_format_rejects_rational_past_digit_limit_naming_first_word(self):
        # 10^5000 has more digits than int-to-text conversion allows by default.
        huge = Fraction(10) ** 5000
        s = Series(1, 2, {(0,): 1, (0, 1): huge, (1, 1): 1 / huge})
        with pytest.raises(CFError, match=r"word \(0, 1\) has more than \d+ digits"):
            format_series(s)

    @pytest.mark.parametrize("n", [-1, -7])
    def test_negative_degree_bound_names_header_token(self, n):
        with pytest.raises(ParseError) as err:
            parse_series(f"cfseries m=1 N={n} mode=rational\n")
        assert (err.value.message, err.value.line, err.value.token) == (
            "negative degree bound in series header", 1, f"N={n}")

    @pytest.mark.parametrize("header", ["m=0 N=0", "m=-2 N=1"])
    def test_alphabet_below_one_names_header_token(self, header):
        with pytest.raises(ParseError) as err:
            parse_series(f"cfseries {header} mode=rational\n;1/1\n")
        assert (err.value.message, err.value.line, err.value.token) == (
            "alphabet max letter in series header must be >= 1", 1, header.split()[0])

    @pytest.mark.parametrize(
        "header, token",
        [
            ("1 1 rational", "1"),
            ("m=+1 N=1 mode=rational", "m=+1"),
            ("m=1_0 N=1 mode=rational", "m=1_0"),
            ("m=\u0661 N=1 mode=rational", "m=\u0661"),
            ("M=1 N=1 mode=rational", "M=1"),
            ("m=1 N=+1 mode=rational", "N=+1"),
            ("m=1 N=0x1 mode=rational", "N=0x1"),
            ("m=1 N=1 rational", "rational"),
            ("m=1 N=1 Mode=rational", "Mode=rational"),
            (f"m={'1' * 4301} N=1 mode=rational", f"m={'1' * 4301}"),
        ],
        ids=["bare", "plus", "underscore", "arabic-digit", "key-case", "n-plus", "hex",
             "bare-mode", "mode-case", "digit-limit"],
    )
    def test_malformed_header_field_names_its_token(self, header, token):
        # int() alone reads most of these tokens, as m = N = 1 or as m = 10.
        with pytest.raises(ParseError) as err:
            parse_series(f"cfseries {header}\n;0/1\n0;0/1\n1;0/1\n")
        got = (err.value.message, err.value.line, err.value.token)
        assert got == ("malformed series header", 1, token)

    def test_rational_value_past_float_range_parses(self):
        s = Series(1, 1, {(1,): Fraction(10**400, 3)})
        assert parse_series(format_series(s)) == s

    def test_to_float_names_word_out_of_range(self):
        s = Series(1, 2, {(0,): 10**300, (0, 1): 10**400, (1, 1): -(10**400)})
        with pytest.raises(CFError, match=r"word \(0, 1\)"):
            to_float(s)

    def test_record_count_checked(self):
        good = format_series(Series.zero(1, 1)).splitlines()
        with pytest.raises(ParseError):
            parse_series("\n".join(good[:-1]) + "\n")

    def test_wide_alphabet_at_degree_zero_lists_no_letters(self):
        # N = 0 has one word for any m; listing the m + 1 letters took 6 MB
        # here, and about 600 MB at the header's largest m.
        s = Series(999_999, 0, {(): Fraction(1, 2)})
        tracemalloc.start()
        try:
            text = format_series(s)
            assert parse_series(text) == s
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == "cfseries m=999999 N=0 mode=rational\n;1/2\n"
        assert peak < 2**20

    def test_oversized_header_fails_before_listing_words(self):
        # m=3, N=11 would list 5.6 million words; the record count alone
        # rejects the file.
        for n in (11, 10**9):
            tracemalloc.start()
            try:
                with pytest.raises(ParseError):
                    parse_series(f"cfseries m=3 N={n} mode=rational\n;0/1\n")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20


    @pytest.mark.parametrize(
        "value",
        ["1e1000000", "-3.5E+10001", "1e-1_000_000", "+2/" + "1" * 4300, "1" * 4301 + ".5"],
        ids=["exp", "signed-exp", "underscored-exp", "signed-ratio", "decimal"],
    )
    def test_oversized_value_fails_before_building(self, value):
        # Fraction("1e1000000") takes half a second to build a 3.3-million-bit
        # numerator; a rational value is only n/d, so none of these is built.
        text = f"cfseries m=1 N=1 mode=rational\n;1/2\n0;{value}\n1;0/1\n"
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse_series(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert (err.value.message, err.value.line, err.value.token) == (
            "bad coefficient value", 3, value)

    def test_level_bits_of_non_canonical_values_bounded(self):
        # 1e10000 spells a 33 221-bit integer, which an exponent no longer
        # may: the first record, on line 2, is refused.
        text = "cfseries m=1 N=9 mode=rational\n" + "".join(
            f"{','.join(map(str, w))};1e10000\n" for w in words_up_to(1, 9)
        )
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse_series(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert (err.value.message, err.value.line, err.value.token) == (
            "bad coefficient value", 2, "1e10000")

    @pytest.mark.parametrize("value", ["1e10000", "-25e-3"], ids=["1e4", "dec"])
    def test_values_within_bounds_parse(self, value):
        # Exponents and decimals are refused, naming their record.
        text = f"cfseries m=1 N=0 mode=rational\n;{value}\n"
        with pytest.raises(ParseError) as err:
            parse_series(text)
        assert (err.value.message, err.value.line, err.value.token) == (
            "bad coefficient value", 2, value)


def reference_format(s):
    """The series file written word by word, as the format comment states it."""
    lines = [f"cfseries m={s.m} N={s.max_degree} mode={s.mode}"]
    for w in words_up_to(s.m, s.max_degree):
        c = coefficient(s, w)
        # A float zero of either sign is written as 0.0.
        value = f"{c.numerator}/{c.denominator}" if s.mode == RATIONAL else repr(c or 0.0)
        lines.append(",".join(map(str, w)) + ";" + value)
    return "\n".join(lines) + "\n"


def reference_parse(text):
    """The series of a series file read line by line, as the format comment
    states the language: Fraction reads each n/d and float each float; a
    ParseError names the first line outside the language."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    for i, line in enumerate(lines, 1):
        stray = re.search("[" + "".join(STRAY_BREAKS) + "]", line)
        if stray:
            raise ParseError(f"line-break character 0x{ord(stray[0]):02x} in series file", line=i)
    if not lines:
        raise ParseError("empty series file", line=1)
    head = lines[0].split(" ")
    if len(head) != 4 or head[0] != "cfseries":
        raise ParseError("malformed series header", line=1, token=lines[0])
    for token, good, low, message in [
        (head[1], "m=[1-9][0-9]{0,6}", "m=(0+|-[0-9]+)",
         "alphabet max letter in series header must be >= 1"),
        (head[2], "N=(0|[1-9][0-9]?)", "N=-[0-9]+", "negative degree bound in series header"),
        (head[3], "mode=(rational|float)", "mode=.*", "unknown scalar mode in series header"),
    ]:
        if not re.fullmatch(good, token):
            raise ParseError(message if re.fullmatch(low, token) else "malformed series header",
                             line=1, token=token)
    m, n, mode = int(head[1][2:]), int(head[2][2:]), head[3][5:]
    words = itertools.chain.from_iterable(
        itertools.product(range(m + 1), repeat=k) for k in range(n + 1))
    values, dens = [], []
    for i, (line, w) in enumerate(zip(lines[1:], words), 2):
        if ";" not in line:
            raise ParseError("missing ';' in series record", line=i, token=line)
        word, value = line.split(";", 1)
        if word != ",".join(map(str, w)):
            letters = "(0|[1-9][0-9]*)"
            message = (f"record out of order: expected word {w}"
                       if re.fullmatch(f"({letters}(,{letters})*)?", word)
                       else "malformed word in series record")
            raise ParseError(message, line=i, token=word)
        try:
            if mode == RATIONAL:
                if not re.fullmatch("-?[0-9]+/[0-9]+", value):
                    raise ValueError
                values.append(Fraction(value))
                dens.append(value.split("/")[1])
            else:
                values.append(float(value))
                if not math.isfinite(values[-1]):
                    raise ParseError("non-finite coefficient value", line=i, token=value)
                if not re.fullmatch("[0-9.e+-]+", value):
                    raise ValueError
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad coefficient value", line=i, token=value) from None
    if len(values) != len(lines) - 1 or next(words, None) is not None:
        raise ParseError(f"header m={m}, N={n} does not match the {len(lines) - 1} records found",
                         line=len(lines))
    try:
        return Series(m, n, dict(zip(words_up_to(m, n), values)), mode)
    except LevelSizeError as exc:
        i = word_count(m, exc.degree - 1) + exc.index
        raise ParseError(str(exc), line=i + 2, token=str(int(dens[i]))) from None


def dense_series(m, n, seed):
    rng = random.Random(seed)

    def value():
        return Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**6))

    return Series(m, n, {w: value() for w in words_up_to(m, n)})


# Floats whose repr() takes each of its forms: signed zeros, subnormals,
# the normal range's ends, and both sides of the switches to exponent
# notation at 1e16 and 1e-4.
FLOAT_SPECIALS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e16, -1e16, 9999999999999998.0, 1.0000000000000002e16, 1e-5, -1e-5, 0.0001,
    9.999999999999999e-05, 1.7976931348623157e308, -1.7976931348623157e308, 1e22, 0.1, -1.5,
]


def float_specials(m, n):
    words = words_up_to(m, n)
    values = {w: FLOAT_SPECIALS[i % len(FLOAT_SPECIALS)] for i, w in enumerate(words)}
    return Series(m, n, values, FLOAT)


DIGITS = st.text("0123456789", min_size=1, max_size=8)
VALUE_TEXTS = st.one_of(
    # the canonical form, in lowest terms or not, zero denominators included
    st.builds("{}{}/{}".format, st.sampled_from(["", "-"]), DIGITS, DIGITS),
    # near misses: signs, padding, underscores, Unicode digits, decimals,
    # exponents, missing or signed parts
    st.builds(
        "{}{}{}{}{}{}".format,
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from(["", "-", "+", "--"]),
        st.text("0123456789_١٢", max_size=4),
        st.sampled_from(["/", "", ".", "e", "/-", "//", "/+", "/ ", " /"]),
        st.text("0123456789_١٢", max_size=4),
        st.sampled_from(["", " "]),
    ),
    st.sampled_from(
        ["2/4", "-0/5", "+1/2", " 1/2 ", "1_0/2", "1.5", "1e3", "١/٢", "1/0",
         "/2", "1/", "1/-2", "", "0/1", "1" * 4301 + "/1"]
    ),
)


def read_outcome(read, text):
    """The series ``read`` gives for ``text``, or its ParseError's
    (message, line, token)."""
    try:
        return read(text)
    except ParseError as err:
        return err.message, err.line, err.token


FLOAT_TEXTS = st.one_of(
    st.sampled_from(["1", "1.5", "+1.0", "-0.0", ".5", "5.", "1e5", "1E5", "1e+05", "1e999",
                     "-1e999", "inf", "nan", "1_0.0", " 1.0", "1.0 ", "0x1p0", "1e", "e5", "1-2",
                     "1,0", "--1.0", "1.0e-400", ""]),
    st.floats().map(repr),
    VALUE_TEXTS,
)


def _record_index(draw, lines):
    return draw(st.integers(1, len(lines) - 1))


def _blank_line(draw, lines):
    lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", "\t"])))


def _stray_break(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    at = draw(st.integers(0, len(lines[i])))
    lines[i] = lines[i][:at] + draw(st.sampled_from(STRAY_BREAKS)) + lines[i][at:]


def _shift_separator(draw, lines):
    # A record's ';' becomes a line break, or a line break a ';'.
    i = _record_index(draw, lines)
    if draw(st.booleans()) or i == len(lines) - 1:
        lines[i] = lines[i].replace(";", "\n", 1)
    else:
        lines[i : i + 2] = [lines[i] + ";" + lines[i + 1]]


def _swap_separators(draw, lines):
    # w;v / w2;v2 becomes w / v;w2;v2: the same cells and separator counts.
    i = _record_index(draw, lines)
    if i < len(lines) - 1 and ";" in lines[i]:
        word, value = lines[i].split(";", 1)
        lines[i : i + 2] = [word, value + ";" + lines[i + 1]]


def _other_value(draw, lines):
    i = _record_index(draw, lines)
    value = draw(FLOAT_TEXTS if "mode=float" in lines[0] else VALUE_TEXTS)
    lines[i] = lines[i].split(";", 1)[0] + ";" + value


def _out_of_order(draw, lines):
    i, j = _record_index(draw, lines), _record_index(draw, lines)
    if ";" in lines[i] and ";" in lines[j]:
        (wi, vi), (wj, vj) = lines[i].split(";", 1), lines[j].split(";", 1)
        lines[i], lines[j] = f"{wj};{vi}", f"{wi};{vj}"


def _int_word(draw, lines):
    # Letters that int() reads: 0,01 and +1 spell the words (0, 1) and (1,).
    i = _record_index(draw, lines)
    word, semicolon, value = lines[i].partition(";")
    if word and semicolon:
        letters = word.split(",")
        k = draw(st.integers(0, len(letters) - 1))
        letters[k] = draw(st.sampled_from(["0{}", "+{}", " {}", "{} ", "{}_0"])).format(letters[k])
        lines[i] = ",".join(letters) + ";" + value


def _header_spacing(draw, lines):
    lines[0] = lines[0].replace(" ", draw(st.sampled_from(["  ", "\t", " \t"])))


MUTATIONS = [_blank_line, _stray_break, _shift_separator, _swap_separators, _other_value,
             _out_of_order, _int_word, _header_spacing]


@st.composite
def mutated_series_files(draw):
    """format_series of a random rational or float series, then up to three
    mutations, each line ended by \n or \r\n."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    mode = draw(st.sampled_from([RATIONAL, FLOAT]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    value = st.fractions() if mode == RATIONAL else finite
    coeffs = draw(st.dictionaries(st.sampled_from(words_up_to(m, n)), value))
    lines = format_series(Series(m, n, coeffs, mode)).splitlines()
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        mutate(draw, lines)
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return newline.join(lines) + newline


class TestSeriesRecords:
    """parse_series reads a file as columns, without parsing its words; a
    file the columns refuse is read record by record, once, to name its
    first line outside the language.  reference_parse, read line by line
    with Fraction and float, gives the same series and the same errors."""

    SERIES = Series(1, 2, {(0,): 1, (1,): Fraction(-1, 2), (0, 1): 3, (1, 1): Fraction(2, 3)})

    @settings(max_examples=300, deadline=None)
    @given(VALUE_TEXTS)
    def test_value_parses_as_fraction_of_its_text(self, value):
        # Exactly -?[0-9]+/[0-9]+ over a nonzero denominator reads, within
        # the interpreter's digit limit (which Fraction(str) keeps as well).
        text = format_series(Series.zero(1, 2)).replace("\n1,0;0/1\n", f"\n1,0;{value}\n")
        try:
            if not re.fullmatch("-?[0-9]+/[0-9]*[1-9][0-9]*", value):
                raise ValueError
            want = Fraction(value)
        except ValueError:
            with pytest.raises(ParseError) as err:
                parse_series(text)
            got = (err.value.message, err.value.line, err.value.token)
            assert got == ("bad coefficient value", 7, value)
        else:
            assert parse_series(text) == Series(1, 2, {(1, 0): want})

    @pytest.mark.parametrize(
        "record, written", [("0;", " 0;"), ("1;", "+1;"), ("0,1;", "0,01;"), ("1,1;", "1, 1;")]
    )
    def test_word_text_int_accepts_still_parses(self, record, written):
        # A word is spelled only as format_series spells it: letters that
        # int() reads otherwise are refused, naming the word's line.
        text = format_series(self.SERIES).replace(f"\n{record}", f"\n{written}")
        assert f"\n{written}" in text
        line = text[: text.index(f"\n{written}")].count("\n") + 2
        with pytest.raises(ParseError) as err:
            parse_series(text)
        got = (err.value.message, err.value.line, err.value.token)
        assert got == ("malformed word in series record", line, written[:-1])

    def test_out_of_order_record_names_expected_word(self):
        text = format_series(self.SERIES).replace("\n0,1;", "\n1,0;", 1)
        with pytest.raises(ParseError) as err:
            parse_series(text)
        got = (err.value.message, err.value.line, err.value.token)
        assert got == ("record out of order: expected word (0, 1)", 6, "1,0")

    @pytest.mark.parametrize("word", ["x", "1,", ",1", "0,,1", "1.0", "١,x"])
    def test_malformed_word_names_line_and_token(self, word):
        text = format_series(self.SERIES).replace("\n0,1;", f"\n{word};")
        with pytest.raises(ParseError) as err:
            parse_series(text)
        got = (err.value.message, err.value.line, err.value.token)
        assert got == ("malformed word in series record", 6, word)

    @pytest.mark.parametrize(
        "record, message, token",
        [
            ("0,1;x", "bad coefficient value", "x"),
            ("0,,1;3/1", "malformed word in series record", "0,,1"),
            ("1,0;3/1", "record out of order: expected word (0, 1)", "1,0"),
        ],
    )
    def test_errors_after_blank_lines_name_physical_line(self, record, message, token):
        lines = format_series(self.SERIES).splitlines()
        # Blank lines 2, 3 and 8; the faulty record replaces word (0, 1), on
        # line 9.  A blank line is not a record: the first is refused.
        text = "\n".join([lines[0], "", "  ", *lines[1:5], "\t", record, *lines[6:]]) + "\n"
        with pytest.raises(ParseError) as err:
            parse_series(text)
        got = (err.value.message, err.value.line, err.value.token)
        assert got == ("missing ';' in series record", 2, "")
        # Without the blank lines, the faulty record is named on its line, 6.
        text = "\n".join([*lines[:5], record, *lines[6:]]) + "\n"
        with pytest.raises(ParseError) as err:
            parse_series(text)
        assert (err.value.message, err.value.line, err.value.token) == (message, 6, token)

    @pytest.mark.parametrize(
        "old, new, line, message, token",
        [
            ("\n0;", "\n\n0;", 3, "missing ';' in series record", ""),
            ("\n0,1;", "\n0,01;", 6, "malformed word in series record", "0,01"),
            ("\n1;", "\n+1;", 4, "malformed word in series record", "+1"),
            ("cfseries ", "cfseries  ", 1, "malformed series header",
             "cfseries  m=1 N=2 mode=rational"),
            ("m=1 ", "m=01 ", 1, "malformed series header", "m=01"),
            ("-1/2", "-0.5", 4, "bad coefficient value", "-0.5"),
            ("-1/2", "-5e-1", 4, "bad coefficient value", "-5e-1"),
            ("-1/2", "-1_0/20", 4, "bad coefficient value", "-1_0/20"),
            ("\n0;1/1", "\n0;+1/1", 3, "bad coefficient value", "+1/1"),
            ("-1/2", "-1/2 ", 4, "bad coefficient value", "-1/2 "),
            ("mode=rational", "mode=exact", 1, "unknown scalar mode in series header",
             "mode=exact"),
        ],
        ids=["blank", "zero-padded", "plus-word", "header-spacing", "header-zero-padded",
             "decimal", "exponent", "underscore", "plus-value", "padded-value", "unknown-mode"],
    )
    def test_lenient_forms_refused_at_their_line(self, old, new, line, message, token):
        text = format_series(self.SERIES)
        assert text.count(old) == 1
        with pytest.raises(ParseError) as err:
            parse_series(text.replace(old, new))
        assert (err.value.message, err.value.line, err.value.token) == (message, line, token)

    @pytest.mark.parametrize("value", ["1E5", " 1.0", "1.0 ", "1_0.0", "0x1p0", "1,0", "Infinity"])
    def test_float_value_outside_the_language_refused(self, value):
        # float() reads all but two of these; a float value is only [0-9.e+-].
        text = format_series(to_float(self.SERIES)).replace("\n1;-0.5\n", f"\n1;{value}\n")
        with pytest.raises(ParseError) as err:
            parse_series(text)
        message = "non-finite coefficient value" if value == "Infinity" else "bad coefficient value"
        assert (err.value.message, err.value.line, err.value.token) == (message, 4, value)

    @pytest.mark.parametrize(
        "series",
        [
            dense_series(2, 8, 1),
            to_float(dense_series(2, 8, 2)),
            Series(2, 8, {(1,): 1, (2, 0, 1): Fraction(-3, 7), (0,) * 8: Fraction(10**30, 11)}),
            float_specials(2, 4),
        ],
        ids=["dense", "float", "sparse", "float-specials"],
    )
    def test_large_layout_byte_identical(self, series):
        text = format_series(series)
        assert text == reference_format(series)
        back = parse_series(text)
        assert back == series
        assert format_series(back) == text

    @pytest.mark.parametrize(
        "series",
        [
            dense_series(2, 8, 1),
            to_float(dense_series(2, 8, 2)),
            SERIES,
            to_float(SERIES),
            Series.zero(1, 0),
            Series(3, 2, {(3, 3): Fraction(-(10**40), 7)}),
            float_specials(2, 4),
        ],
        ids=["dense", "float", "small", "small-float", "zero", "m3", "float-specials"],
    )
    def test_canonical_files_stay_on_the_column_reader(self, series, monkeypatch):
        # dense_series(2, 8, 1) has a 47 724-bit level-8 denominator.
        text = format_series(series)

        def refuse(*args):
            raise AssertionError("a canonical file left the column reader")

        monkeypatch.setattr(fps, "_refusal", refuse)
        monkeypatch.setattr(fps, "Fraction", refuse)
        assert parse_series(text) == series

    @settings(max_examples=400, deadline=None)
    @given(mutated_series_files())
    def test_reader_agrees_with_reference_parse(self, text):
        assert read_outcome(parse_series, text) == read_outcome(reference_parse, text)

    @pytest.mark.parametrize(
        "text, message, token",
        [
            # The words "", "0", "1" and float values at the even and odd
            # places of a split at ';' and line breaks, but line 3 has no ';'.
            ("cfseries m=1 N=1 mode=float\n;1\n0\n1;1;0\n", "missing ';' in series record", "0"),
            # w;v / w2;v2 written as w / v;w2;v2: the same cells, separators
            # and line count.
            ("cfseries m=1 N=1 mode=float\n;1.0\n0\n0.5;1;0.25\n",
             "missing ';' in series record", "0"),
            ("cfseries m=1 N=1 mode=rational\n;1/2\n0\n1/3;1;1/4\n",
             "missing ';' in series record", "0"),
            # ... and as w;v;w2 / v2.
            ("cfseries m=1 N=1 mode=float\n;1.0\n0;0.5;1\n0.25\n", "bad coefficient value",
             "0.5;1"),
            ("cfseries m=1 N=1 mode=rational\n;1/2\n0;1/3;1\n1/4\n", "bad coefficient value",
             "1/3;1"),
        ],
        ids=["float-shift", "float-swap", "rational-swap", "float-merge", "rational-merge"],
    )
    def test_shifted_separators_take_the_record_reader(self, text, message, token):
        with pytest.raises(ParseError) as err:
            parse_series(text)
        assert (err.value.message, err.value.line, err.value.token) == (message, 3, token)


# -- the integer level layout against a Fraction-only reference ---------------

FRACTIONS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=12),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


@st.composite
def coefficient_maps(draw, m=None):
    """(m, N, word -> Fraction) with zeros, small and huge denominators."""
    m = m or draw(st.integers(1, 2))
    n = draw(st.integers(0, 3))
    words = words_up_to(m, n)
    return m, n, draw(st.dictionaries(st.sampled_from(words), FRACTIONS, max_size=len(words)))


def reference_product(a, b, m, n):
    """Coefficient of every word w of degree <= n: the sum of a(u) * b(v)
    over the |w| + 1 splittings w = u.v."""
    return {
        w: sum(Fraction(a.get(w[:i], 0)) * b.get(w[i:], 0) for i in range(len(w) + 1))
        for w in words_up_to(m, n)
    }


def reference_bracket(tree, m):
    if isinstance(tree, int):
        return {(tree,): 1}
    left, right = reference_bracket(tree[0], m), reference_bracket(tree[1], m)
    n = max(map(len, left)) + max(map(len, right))
    lr, rl = reference_product(left, right, m, n), reference_product(right, left, m, n)
    return {w: lr[w] - rl[w] for w in lr}


def reference_text(m, n, coeffs):
    """The rational series file of a word -> Fraction map, written record by
    record without a Series."""
    records = [
        ",".join(map(str, w)) + ";{0.numerator}/{0.denominator}".format(Fraction(coeffs.get(w, 0)))
        for w in words_up_to(m, n)
    ]
    return "\n".join([f"cfseries m={m} N={n} mode=rational", *records]) + "\n"


def assert_canonical(s):
    for level, den in zip(s.levels, s.dens):
        assert type(den) is int and den >= 1
        assert all(type(c) is int for c in level)
        assert math.gcd(*level, den) == 1


def assert_matches(s, ref):
    """Every coefficient of s equals the reference map's (absent words are 0)."""
    assert all(coefficient(s, w) == ref.get(w, 0) for w in words_up_to(s.m, s.max_degree))
    assert dict(s.coeffs) == {w: c for w, c in ref.items() if c}


def level_size_message(k):
    return f"degree-{k} coefficients need more than {MAX_LEVEL_BITS} bits over one denominator"


def float_bits(x):
    return struct.pack("<d", x)


class TestLevelLayout:
    @settings(max_examples=60, deadline=None)
    @given(coefficient_maps())
    def test_canonical_levels_match_reference_and_round_trip(self, drawn):
        m, n, ref = drawn
        s = Series(m, n, ref)
        assert_canonical(s)
        assert_matches(s, ref)
        assert parse_series(format_series(s)) == s
        flt = to_float(s)
        for w in words_up_to(m, n):
            # float(Fraction) of a value below the float range may be -0.0;
            # a float series stores every zero as 0.0.
            want = float(ref.get(w, Fraction(0))) or 0.0
            assert float_bits(coefficient(flt, w)) == float_bits(want)

    @settings(max_examples=40, deadline=None)
    @given(coefficient_maps(), st.integers(2, 10**30))
    def test_records_not_in_lowest_terms_parse_as_reduced(self, drawn, k):
        m, n, ref = drawn
        s = Series(m, n, ref)
        head, *records = format_series(s).splitlines()
        rewritten = []
        for i, record in enumerate(records):
            prefix, value = record.split(";")
            num, den = map(int, value.split("/"))
            variants = [
                f"{num * k}/{den * k}",
                f"{num * 2}/{den * 2}",
                "-0/5" if num == 0 else value,
            ]
            rewritten.append(f"{prefix};{variants[i % 3]}")
        back = parse_series("\n".join([head, *rewritten]) + "\n")
        assert back == s
        assert_canonical(back)
        # A '+' sign is outside the language: the last record is refused.
        prefix, value = rewritten[-1].split(";")
        rewritten[-1] = f"{prefix};+{value.removeprefix('-')}"
        with pytest.raises(ParseError) as err:
            parse_series("\n".join([head, *rewritten]) + "\n")
        assert (err.value.message, err.value.line) == ("bad coefficient value", len(records) + 1)

    @pytest.mark.parametrize("value", ["2/4", "-0/5", "+1/2", f"{3 * 10**60}/{6 * 10**60}"])
    def test_non_lowest_record_examples(self, value):
        want = Series.zero(1, 1) if value == "-0/5" else Series(1, 1, {(1,): Fraction(1, 2)})
        text = f"cfseries m=1 N=1 mode=rational\n;0/1\n0;0/1\n1;{value}\n"
        if value.startswith("+"):  # outside the language
            with pytest.raises(ParseError) as err:
                parse_series(text)
            assert (err.value.message, err.value.line, err.value.token) == (
                "bad coefficient value", 4, value)
        else:
            assert parse_series(text) == want

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_product_and_shuffle_match_reference(self, data):
        m, n, a = data.draw(coefficient_maps())
        _, n2, b = data.draw(coefficient_maps(m=m))
        got = series_product(Series(m, n, a), Series(m, n2, b))
        assert_canonical(got)
        assert_matches(got, reference_product(a, b, m, min(n, n2)))
        u = data.draw(st.lists(st.integers(0, m), max_size=3).map(tuple))
        v = data.draw(st.lists(st.integers(0, m), max_size=3).map(tuple))
        got = shuffle(u, v, m)
        assert_canonical(got)
        assert_matches(got, brute_interleavings(u, v))

    @pytest.mark.parametrize("m, n", [(1, 5), (2, 4)])
    def test_expand_bracket_matches_reference(self, m, n):
        for ell in lyndon_words(m, n):
            tree = standard_bracketing(ell)
            got = expand_bracket(tree, m)
            assert_canonical(got)
            assert_matches(got, reference_bracket(tree, m))

    @pytest.mark.parametrize(
        "value",
        [Fraction(10**400 + 1, 10**399), Fraction(-1, 10**400), Fraction(2**1024 - 2**971),
         Fraction(-(2**1074) + 1, 2**2148), Fraction(1, 3)],
    )
    def test_to_float_is_float_of_fraction(self, value):
        s = Series(1, 2, {(0, 1): value, (1,): Fraction(7, 10**30)})
        got = to_float(s)
        assert float_bits(coefficient(got, (0, 1))) == float_bits(float(value) or 0.0)
        assert coefficient(got, (1,)) == float(Fraction(7, 10**30))

    @pytest.mark.parametrize("value", [Fraction(10**400, 3), Fraction(-(2**1024))])
    def test_to_float_past_range_names_word(self, value):
        s = Series(1, 2, {(0,): Fraction(1, 2), (1, 0): value, (1, 1): value})
        with pytest.raises(CFError) as err:
            to_float(s)
        assert str(err.value) == "coefficient of word (1, 0) is outside the float range"

    def test_unrelated_denominators_past_level_bound_fail_fast(self, monkeypatch):
        # 2^14 records of degree 14 over distinct odd ~60-bit denominators:
        # one denominator for the level would have about a million bits,
        # times 16 384 numerators.  The column reader names the record from
        # the LevelSizeError, without a second read of the text.
        def refuse(*args):
            raise AssertionError("a file refused for its level size was read again")

        monkeypatch.setattr(fps, "_refusal", refuse)
        monkeypatch.setattr(fps, "split_lines", refuse)
        words = words_up_to(1, 14)
        records = [
            ",".join(map(str, w)) + (f";1/{10**18 + 2 * i + 1}" if len(w) == 14 else ";0/1")
            for i, w in enumerate(words)
        ]
        text = "\n".join(["cfseries m=1 N=14 mode=rational", *records]) + "\n"
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse_series(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.message == level_size_message(14)
        assert err.value.line > len(words) - 2**14
        assert err.value.token == str(int(text.splitlines()[err.value.line - 1].split("/")[1]))
        assert peak < 64 * 2**20

    def test_level_past_bound_fails_built_and_read_back(self):
        # Degree 9 over {0, 1, 2}: 19 683 values over random denominators up
        # to 10^6, as dense_series draws them one degree up.  Their lcm alone
        # would take about as many bits as MAX_LEVEL_BITS allows the level.
        rng = random.Random(9)
        ref = {
            w: Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**6))
            for w in words_of_degree(2, 9)
        }
        with pytest.raises(LevelSizeError) as built:
            Series(2, 9, ref)
        text = reference_text(2, 9, ref)
        with pytest.raises(ParseError) as read:
            parse_series(text)
        assert str(built.value) == read.value.message == level_size_message(9)
        assert read.value.line > word_count(2, 8) + 1
        assert read_outcome(reference_parse, text) == (
            read.value.message, read.value.line, read.value.token)

    def test_integer_level_past_bound_fails(self):
        # 3^9 numerators over a ~32 650-bit denominator pass the bound;
        # dividing out a common factor 3 does not bring it back under.
        levels = [[0] * 3**k for k in range(9)] + [[3] * 3**9]
        with pytest.raises(LevelSizeError) as err:
            Series(2, 9, levels=levels, dens=[1] * 9 + [3**20601])
        assert str(err.value) == level_size_message(9)
        under = Series(2, 9, levels=levels, dens=[1] * 9 + [3**20401])
        assert under.dens[9] == 3**20400 and set(under.levels[9]) == {1}

    def test_product_past_level_bound_fails(self):
        # Two series of 81 degree-4 values over distinct ~1000-bit odd
        # denominators each fit; their product's 3^8 degree-8 values over
        # the pairwise products do not.
        words = words_of_degree(2, 4)
        r = Series(2, 8, {w: Fraction(1, 10**300 + 2 * i + 1) for i, w in enumerate(words)})
        s = Series(2, 8, {w: Fraction(1, 10**300 + 2 * i + 163) for i, w in enumerate(words)})
        with pytest.raises(LevelSizeError) as err:
            series_product(r, s)
        assert str(err.value) == level_size_message(8)

    @pytest.mark.parametrize(
        "levels", [[[1], [0.5, 1]], [[1.0], [0, 1]], [[1], [Fraction(1, 2), 0]]]
    )
    def test_non_integer_in_rational_level_raises(self, levels):
        with pytest.raises(ModeMismatchError):
            Series(1, 1, levels=levels)

    def test_rational_series_in_cf_trajectory_raises(self):
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 8), 1)
        table = iterated_stratonovich(path, 2)
        s = Series(1, 2, {(1,): Fraction(1, 3)})
        with pytest.raises(ModeMismatchError):
            cf_trajectory(s, table)
        assert cf_trajectory(to_float(s), table)[-1] == pytest.approx(path.values[:, 0] / 3)


# Characters str.splitlines breaks lines at besides \n, \r\n and \r.
STRAY_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineBreaks:
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("char", STRAY_BREAKS)
    def test_series_text_names_editor_line(self, char, newline):
        lines = format_series(TestSeriesRecords.SERIES).splitlines()
        lines[3] = lines[3].replace(";", ";" + char)  # editor line 4
        with pytest.raises(ParseError) as err:
            parse_series(newline.join(lines) + newline)
        assert (err.value.message, err.value.line) == (
            f"line-break character 0x{ord(char):02x} in series file", 4)
        assert parse_series(newline.join(format_series(TestSeriesRecords.SERIES).splitlines())) == (
            TestSeriesRecords.SERIES)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("char", STRAY_BREAKS)
    def test_model_text_names_editor_line(self, char, newline):
        lines = ["n = 1", "m = 1", "x0 = 0", "g0 = 1", "g1 = 0", "h = x1"]
        assert parse_model(newline.join(lines)).n == 1
        broken = [lines[0] + char + lines[1], *lines[2:]]
        with pytest.raises(ParseError) as err:
            parse_model(newline.join(broken) + newline)
        assert (err.value.message, err.value.line) == (
            f"line-break character 0x{ord(char):02x} in model file", 1)
        broken = [*lines[:4], lines[4] + char, lines[5]]
        with pytest.raises(ParseError) as err:
            parse_model(newline.join(broken) + newline)
        assert err.value.line == 5

    @pytest.mark.parametrize("kind", ["series", "model"])
    def test_files_name_editor_line(self, tmp_path, kind):
        text = (format_series(TestSeriesRecords.SERIES) if kind == "series"
                else "n = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh = x1\n")
        lines = text.splitlines()
        lines[2] += "\x0c"
        path = tmp_path / "f.txt"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode("ascii"))
        with pytest.raises(ParseError) as err:
            (read_series if kind == "series" else read_model)(path)
        assert err.value.line == 3
        path.write_bytes(("\r\n".join(lines[:2]) + "\r\n\xe9\r\n").encode("latin-1"))
        with pytest.raises(ParseError) as err:
            (read_series if kind == "series" else read_model)(path)
        assert (err.value.message, err.value.line) == (f"non-ASCII byte 0xe9 in {kind} file", 3)
