import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrealize import (
    AnalyticModel,
    BilinearModel,
    DegreeError,
    ModeMismatchError,
    MultiPoly,
    PolyVectorField,
    Series,
    bilinear_coefficients,
    cf_coefficients,
    coefficient,
    expand_bracket,
    lyndon_words,
    f_y_apply,
    hankel_build,
    lie_derivative,
    lie_rank,
    parse_model,
    poly_eval,
    rank_exact,
    rank_numeric,
    standard_bracketing,
    to_float,
    words_up_to,
)
from conftest import rand_bilinear


def drift_series(n=4):
    model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh = x1\n")
    return cf_coefficients(model, n)


def ones_series(m=1, n=4):
    return Series(m, n, {w: 1 for w in words_up_to(m, n)})


class TestHankelBuild:
    def test_zero_series(self):
        block = hankel_build(Series.zero(1, 4), 2, 2)
        assert all(all(x == 0 for x in row) for row in block.entries)
        assert block.shape == (7, 7)

    def test_all_ones(self):
        block = hankel_build(ones_series(), 2, 2)
        assert block.shape == (7, 7)
        assert all(all(x == 1 for x in row) for row in block.entries)

    def test_pure_drift_entries(self):
        block = hankel_build(drift_series(), 1, 1)
        assert block.entry((), ()) == 0
        assert block.entry((), (0,)) == 1
        assert block.entry((0,), ()) == 1
        assert block.entry((0,), (0,)) == 0
        assert block.entry((1,), (0,)) == 0
        assert block.entry((0,), (1,)) == 0
        assert block.entry((1,), (1,)) == 0

    def test_insufficient_degree(self):
        with pytest.raises(DegreeError):
            hankel_build(drift_series(4), 3, 2)

    def test_hankel_structure(self, rng):
        s = bilinear_coefficients(rand_bilinear(rng, 2, 1), 6)
        block = hankel_build(s, 3, 3)
        for i, u in enumerate(block.row_words):
            for j, v in enumerate(block.col_words):
                assert Fraction(block.entries[i][j], block.den) == coefficient(s, u + v)


class TestRankExact:
    def test_rank_one(self):
        assert rank_exact(hankel_build(ones_series(), 2, 2)).rank == 1

    def test_rank_zero(self):
        assert rank_exact(hankel_build(Series.zero(1, 4), 2, 2)).rank == 0

    def test_bilinear_rank_bounded_by_dimension(self, rng):
        for _ in range(5):
            model = rand_bilinear(rng, 3, 1)
            s = bilinear_coefficients(model, 6)
            assert rank_exact(hankel_build(s, 3, 3)).rank <= 3

    def test_rejects_float_mode(self):
        block = hankel_build(to_float(ones_series()), 1, 1)
        with pytest.raises(ModeMismatchError):
            rank_exact(block)

    def test_monotone_in_block_size(self, rng):
        s = bilinear_coefficients(rand_bilinear(rng, 3, 1), 6)
        profile = [rank_exact(hankel_build(s, d, d)).rank for d in range(4)]
        assert all(a <= b for a, b in zip(profile, profile[1:]))

    def test_report_carries_truncation(self):
        report = rank_exact(hankel_build(ones_series(), 2, 1))
        assert report.truncation == {"d_r": 2, "d_c": 1}


class TestRankNumeric:
    def test_cross_check_against_exact(self, rng):
        for _ in range(5):
            model = rand_bilinear(rng, 3, 1)
            s = bilinear_coefficients(model, 6)
            block = hankel_build(s, 3, 3)
            exact = rank_exact(block).rank
            numeric = rank_numeric(hankel_build(to_float(s), 3, 3), tol=1e-9).rank
            assert numeric == exact

    def test_zero_matrix(self):
        assert rank_numeric(hankel_build(to_float(Series.zero(1, 4)), 2, 2)).rank == 0

    def test_all_ones(self):
        assert rank_numeric(hankel_build(to_float(ones_series()), 2, 2)).rank == 1

    def test_spectrum_reported_and_tol_checked(self):
        report = rank_numeric(hankel_build(to_float(ones_series()), 1, 1))
        assert report.singular_values is not None
        assert report.tolerance == 1e-9
        with pytest.raises(ValueError):
            rank_numeric(hankel_build(to_float(ones_series()), 1, 1), tol=2.0)

    def test_decisions_match_direct_svd(self, rng):
        # rank_numeric and lie_rank make the same decision: the singular
        # values of the (scaled) matrix, and the count above tol * sigma_max.
        s = to_float(bilinear_coefficients(rand_bilinear(rng, 2, 1), 6))
        block = hankel_build(s, 3, 3)
        weights = np.array([1.0 / math.factorial(len(w)) for w in block.row_words])
        brackets = [
            f_y_apply(s, to_float(expand_bracket(standard_bracketing(ell), 1)), 3)
            for ell in lyndon_words(1, 3)
        ]
        reports = (rank_numeric(block, tol=1e-6), lie_rank(s, 3, 3, tol=1e-6))
        matrices = (weights[:, None] * np.array(block.entries) * weights[None, :], np.array(brackets))
        for report, a in zip(reports, matrices):
            svals = np.linalg.svd(a, compute_uv=False)
            assert report.singular_values == tuple(float(x) for x in svals)
            assert report.tolerance == 1e-6
            assert report.rank == int(np.sum(svals > 1e-6 * svals[0]))

    def test_rank_nonincreasing_in_tolerance(self, rng):
        s = to_float(bilinear_coefficients(rand_bilinear(rng, 3, 1), 6))
        block = hankel_build(s, 3, 3)
        ranks = [rank_numeric(block, tol=t).rank for t in (1e-12, 1e-9, 1e-3, 0.5)]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))


class TestFYApply:
    def test_empty_word_is_identity(self):
        s = drift_series()
        p = Series.monomial(1, 0, ())
        vec = f_y_apply(s, p, 2)
        assert vec == [coefficient(s, w) for w in words_up_to(1, 2)]

    def test_drift_letter_on_drift_series(self):
        s = drift_series()
        p = Series.monomial(1, 1, (0,))
        vec = f_y_apply(s, p, 2)
        expected = [0] * len(words_up_to(1, 2))
        expected[0] = 1
        assert vec == expected

    def test_bracket_kills_symmetric_data(self):
        s = Series(1, 3, {(0, 1): 5, (1, 0): 5, (0,): 2})
        p = expand_bracket((0, 1), 1)
        vec = f_y_apply(s, p, 1)
        assert vec[0] == 0  # entry at the empty observation word

    def test_insufficient_degree(self):
        with pytest.raises(DegreeError):
            f_y_apply(drift_series(4), expand_bracket((0, 1), 1), 3)


class TestLieRank:
    def test_zero_series(self):
        assert lie_rank(Series.zero(1, 6), 2, 2).rank == 0

    def test_pure_drift(self):
        assert lie_rank(drift_series(4), 2, 2).rank == 1

    def test_bounded_by_bilinear_dimension(self, rng):
        for n in (1, 2, 3):
            s = bilinear_coefficients(rand_bilinear(rng, n, 1), 6)
            assert lie_rank(s, 3, 3).rank <= n

    def test_lie_rank_below_hankel_rank_matched(self, rng):
        for _ in range(4):
            s = bilinear_coefficients(rand_bilinear(rng, 3, 2), 6)
            lie = lie_rank(s, 3, 3).rank
            han = rank_exact(hankel_build(s, 3, 3)).rank
            assert lie <= han

    def test_float_mode(self, rng):
        s = bilinear_coefficients(rand_bilinear(rng, 2, 1), 6)
        exact = lie_rank(s, 3, 3).rank
        numeric = lie_rank(to_float(s), 3, 3).rank
        assert numeric == exact

    def test_insufficient_degree(self):
        with pytest.raises(DegreeError):
            lie_rank(drift_series(4), 3, 3)



# -- integer outputs against a Fraction-only reference ------------------------

FRAC = st.fractions(min_value=-3, max_value=3, max_denominator=7)


def reference_bilinear(model, w):
    """C * A_{i1} * ... * A_{ik} * x0 in Fractions."""
    row = list(model.c)
    for i in w:
        a = model.mats[i]
        row = [sum(row[r] * a[r][j] for r in range(model.n)) for j in range(model.n)]
    return sum(r * x for r, x in zip(row, model.x0))


def reference_analytic(model, w):
    """The readout's Lie derivatives along w (first letter first) at x0."""
    phi = model.readout
    for i in w:
        phi = lie_derivative(model.fields[i], phi)
    return poly_eval(phi, model.x0)


def assert_canonical(s):
    for level, den in zip(s.levels, s.dens):
        assert den >= 1 and all(type(c) is int for c in level)
        assert math.gcd(*level, den) == 1


class TestIntegerLayoutOracles:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_bilinear_series_hankel_and_f_y_match_reference(self, data):
        n, m = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        mats = tuple(
            tuple(tuple(data.draw(FRAC) for _ in range(n)) for _ in range(n)) for _ in range(m + 1)
        )
        x0 = tuple(data.draw(FRAC) for _ in range(n))
        c = tuple(data.draw(FRAC) for _ in range(n))
        model = BilinearModel(n, m, x0, mats, c)
        s = bilinear_coefficients(model, 4)
        assert_canonical(s)
        ref = {w: reference_bilinear(model, w) for w in words_up_to(m, 4)}
        assert all(coefficient(s, w) == ref[w] for w in ref)

        block = hankel_build(s, 2, 2)
        assert all(type(x) is int for row in block.entries for x in row)
        for i, u in enumerate(block.row_words):
            for j, v in enumerate(block.col_words):
                assert Fraction(block.entries[i][j], block.den) == ref[u + v]
                assert block.entry(u, v) == ref[u + v]

        pmap = {w: data.draw(FRAC) for w in data.draw(st.lists(st.sampled_from(words_up_to(m, 2))))}
        p = Series(m, 2, pmap)
        vec = f_y_apply(s, p, 2)
        assert all(type(x) is int for x in vec)
        want = [
            sum((cv * ref[w + v] for v, cv in pmap.items()), Fraction(0)) for w in words_up_to(m, 2)
        ]
        assert [Fraction(x, s.den * p.den) for x in vec] == want
        flt = f_y_apply(to_float(s), to_float(p), 2)
        assert flt == pytest.approx([float(x) for x in want], rel=1e-12, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_cf_coefficients_match_reference(self, data):
        n, m = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        terms = st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 2), FRAC, max_size=3
        )
        fields = tuple(
            PolyVectorField(tuple(MultiPoly(n, data.draw(terms)) for _ in range(n)))
            for _ in range(m + 1)
        )
        readout = MultiPoly(n, data.draw(terms))
        model = AnalyticModel(n, m, tuple(data.draw(FRAC) for _ in range(n)), fields, readout)
        s = cf_coefficients(model, 3)
        assert_canonical(s)
        assert all(coefficient(s, w) == reference_analytic(model, w) for w in words_up_to(m, 3))
