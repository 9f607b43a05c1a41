import itertools
import math
import random
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
    series_product,
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
        assert (err.value.line, err.value.token) == (1, f"N={n}")

    @pytest.mark.parametrize("header", ["m=0 N=0", "m=-2 N=1"])
    def test_alphabet_below_one_names_header_token(self, header):
        with pytest.raises(ParseError) as err:
            parse_series(f"cfseries {header} mode=rational\n;1/1\n")
        assert (err.value.line, err.value.token) == (1, header.split()[0])

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
        # Fraction("1e1000000") took 0.54 s and built a 3.3-million-bit numerator
        text = f"cfseries m=1 N=1 mode=rational\n;1/2\n0;{value}\n1;0/1\n"
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse_series(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert (err.value.line, err.value.token) == (3, value)
        assert err.value.message.startswith("coefficient value past")

    def test_level_bits_of_non_canonical_values_bounded(self, monkeypatch):
        # Each 1e10000 is within the value bounds and spells 33 221 bits.
        # With room for 10 of them per level, levels 0-3 (15 records) parse
        # and the 11th record of level 4, record 25 on line 27, is refused.
        monkeypatch.setattr(fps, "MAX_LEVEL_BITS", 10 * 33221)
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
        assert (err.value.line, err.value.token) == (27, "1e10000")
        assert err.value.message == "degree-4 coefficient values spell more than 332210 bits"

    @pytest.mark.parametrize(
        "value, want", [("1e10000", 10**10000), ("-25e-3", Fraction(-1, 40))], ids=["1e4", "dec"]
    )
    def test_values_within_bounds_parse(self, value, want):
        text = f"cfseries m=1 N=0 mode=rational\n;{value}\n"
        assert parse_series(text) == Series(1, 0, {(): want})


def reference_format(s):
    """The series file written word by word, as the format comment states it."""
    lines = [f"cfseries m={s.m} N={s.max_degree} mode={s.mode}"]
    for w in words_up_to(s.m, s.max_degree):
        c = coefficient(s, w)
        value = f"{c.numerator}/{c.denominator}" if s.mode == RATIONAL else repr(c)
        lines.append(",".join(map(str, w)) + ";" + value)
    return "\n".join(lines) + "\n"


def dense_series(m, n, seed):
    rng = random.Random(seed)

    def value():
        return Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**6))

    return Series(m, n, {w: value() for w in words_up_to(m, n)})


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


class TestSeriesRecords:
    """parse_series reads canonical records without parsing their words and
    takes every other record the long way; both give the same series and
    the same errors."""

    SERIES = Series(1, 2, {(0,): 1, (1,): Fraction(-1, 2), (0, 1): 3, (1, 1): Fraction(2, 3)})

    @settings(max_examples=300, deadline=None)
    @given(VALUE_TEXTS)
    def test_value_parses_as_fraction_of_its_text(self, value):
        text = format_series(Series.zero(1, 2)).replace("\n1,0;0/1\n", f"\n1,0;{value}\n")
        try:
            want = Fraction(value)
        except (ValueError, ZeroDivisionError):
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
        text = format_series(self.SERIES).replace(f"\n{record}", f"\n{written}")
        assert f"\n{written}" in text
        assert parse_series(text) == self.SERIES

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
        # Blank lines 2, 3 and 8; the faulty record replaces word (0, 1), on line 9.
        text = "\n".join([lines[0], "", "  ", *lines[1:5], "\t", record, *lines[6:]]) + "\n"
        with pytest.raises(ParseError) as err:
            parse_series(text)
        assert (err.value.message, err.value.line, err.value.token) == (message, 9, token)

    @pytest.mark.parametrize(
        "series",
        [
            dense_series(2, 8, 1),
            to_float(dense_series(2, 8, 2)),
            Series(2, 8, {(1,): 1, (2, 0, 1): Fraction(-3, 7), (0,) * 8: Fraction(10**30, 11)}),
        ],
        ids=["dense", "float", "sparse"],
    )
    def test_large_layout_byte_identical(self, series):
        text = format_series(series)
        assert text == reference_format(series)
        back = parse_series(text)
        assert back == series
        assert format_series(back) == text


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
                f"+{num}/{den}" if num >= 0 else f"{num * 2}/{den * 2}",
                "-0/5" if num == 0 else value,
            ]
            rewritten.append(f"{prefix};{variants[i % 3]}")
        back = parse_series("\n".join([head, *rewritten]) + "\n")
        assert back == s
        assert_canonical(back)

    @pytest.mark.parametrize("value", ["2/4", "-0/5", "+1/2", f"{3 * 10**60}/{6 * 10**60}"])
    def test_non_lowest_record_examples(self, value):
        want = Series.zero(1, 1) if value == "-0/5" else Series(1, 1, {(1,): Fraction(1, 2)})
        text = f"cfseries m=1 N=1 mode=rational\n;0/1\n0;0/1\n1;{value}\n"
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

    def test_unrelated_denominators_past_level_bound_fail_fast(self):
        # 2^14 records of degree 14 over distinct odd ~60-bit denominators:
        # one denominator for the level would have about a million bits,
        # times 16 384 numerators.
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
        with pytest.raises(ParseError) as read:
            parse_series(reference_text(2, 9, ref))
        assert str(built.value) == read.value.message == level_size_message(9)
        assert read.value.line > word_count(2, 8) + 1

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
