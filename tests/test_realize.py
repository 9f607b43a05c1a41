from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrealize import (
    BilinearModel,
    PolyVectorField,
    QSpec,
    RankExceededError,
    SamplePath,
    Series,
    ShiftInconsistencyError,
    StabilizationError,
    bilinear_coefficients,
    bilinear_realize,
    cf_coefficients,
    coefficient,
    hankel_build,
    linear_embedding,
    linear_ho_kalman,
    make_grid,
    markov_hankel,
    markov_to_series,
    parse_model,
    parse_polynomial,
    rank_exact,
    sample_brownian,
    sample_diffusion_input,
    simulate_analytic,
    simulate_bilinear,
    verify_realization,
    words_up_to,
)
from cfrealize.exactla import rank as exact_rank
from cfrealize.realize import _stabilization_ranks
from conftest import rand_bilinear
from test_golden import ANALYTIC


def drift_series(n=6):
    model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh = x1\n")
    return cf_coefficients(model, n)


class TestBilinearRealize:
    def test_pure_drift_needs_two_states(self):
        s = drift_series()
        result = bilinear_realize(s)
        assert result.model.n == 2
        assert result.max_discrepancy == 0
        assert verify_realization(result.model, s, 6).max_abs == 0
        # the canonical two-state shift instance reproduces the same series
        instance = BilinearModel(
            2,
            1,
            (Fraction(0), Fraction(1)),
            (
                ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
                ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
            ),
            (Fraction(1), Fraction(0)),
        )
        assert bilinear_coefficients(instance, 6) == s

    def test_zero_series(self):
        result = bilinear_realize(Series.zero(2, 6))
        assert result.model.n == 0
        assert result.basis_words == ()
        assert bilinear_coefficients(result.model, 6).is_zero()

    def test_random_round_trip_m2(self, rng):
        for _ in range(3):
            model = rand_bilinear(rng, 3, 2)
            s = bilinear_coefficients(model, 8)
            result = bilinear_realize(s)
            assert result.model.n <= 3
            assert result.max_discrepancy == 0
            assert bilinear_coefficients(result.model, 8) == s

    def test_round_trip_dimension_four(self, rng):
        model = rand_bilinear(rng, 4, 1)
        s = bilinear_coefficients(model, 10)
        result = bilinear_realize(s)
        assert result.model.n <= 4
        assert result.max_discrepancy == 0

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        # Hankel ranks of an n-state model settle by degree n - 1, so data to
        # degree 2d with d = max(n, 1) certifies stabilization.
        n = data.draw(st.integers(0, 3))
        m = data.draw(st.integers(1, 2))
        frac = st.fractions(min_value=-2, max_value=2, max_denominator=4)

        def vec():
            return [data.draw(frac) for _ in range(n)]

        model = BilinearModel(n, m, vec(), [[vec() for _ in range(n)] for _ in range(m + 1)], vec())
        degree = 2 * max(n, 1)
        s = bilinear_coefficients(model, degree)
        result = bilinear_realize(s)
        assert result.model.n <= n
        assert bilinear_coefficients(result.model, degree) == s

    def test_idempotent_at_coefficient_level(self, rng):
        model = rand_bilinear(rng, 2, 1)
        s = bilinear_coefficients(model, 6)
        first = bilinear_realize(s)
        s2 = bilinear_coefficients(first.model, 6)
        second = bilinear_realize(s2)
        assert bilinear_coefficients(second.model, 6) == s2 == s

    def test_basis_words_in_graded_lex_order(self, rng):
        s = Series.zero(1, 8)
        while s.is_zero():
            s = bilinear_coefficients(rand_bilinear(rng, 3, 1), 8)
        result = bilinear_realize(s)
        keys = [(len(w), w) for w in result.basis_words]
        assert keys == sorted(keys)
        assert result.basis_words[0] == ()

    def test_quadratic_readout_realizes_with_three_states(self):
        # Y = X^2 for dX = X dt + dW closes on the state (1, X, X^2), so the
        # synthesis finds a three-dimensional model from degree-6 data.
        model = parse_model("n = 1\nm = 1\nx0 = 1/2\ng0 = x1\ng1 = 1\nh = x1^2\n")
        s = cf_coefficients(model, 6)
        result = bilinear_realize(s)
        assert result.model.n == 3
        assert bilinear_coefficients(result.model, 6) == s

    def test_unstabilized_rank_fails_loudly(self):
        # factorial growth on the time letter: every Hankel section of the
        # next size picks up a new independent direction
        import math

        n = 8
        s = Series(1, n, {(0,) * k: math.factorial(k) for k in range(n + 1)})
        with pytest.raises(StabilizationError) as err:
            bilinear_realize(s)
        assert str(err.value) == (
            "truncated Hankel rank has not stabilized (rank 4 at degree 3 vs 5 at degree 4); "
            "insufficient data or possibly infinite Hankel rank"
        )

    def test_tampered_series_detected(self, rng):
        model = rand_bilinear(rng, 2, 1)
        s = bilinear_coefficients(model, 8)
        coeffs = dict(s.coeffs)
        w = (1,) * 8
        coeffs[w] = coeffs.get(w, Fraction(0)) + 1
        tampered = Series(1, 8, coeffs)
        with pytest.raises((ShiftInconsistencyError, StabilizationError)):
            bilinear_realize(tampered)

    @pytest.mark.parametrize(
        "s, where",
        [
            (Series(1, 5, {(0, 0, 0, 0, 1): 1}), "at word (0, 0, 0, 0, 1) by 1"),
            (Series(2, 3, {(1, 2, 0): 3}), "at word (1, 2, 0) by 3"),
        ],
    )
    def test_empty_basis_of_nonzero_series(self, s, where):
        # every Hankel entry the rank gate and the basis see is zero, so the
        # synthesized model is the empty one and the check names the word
        with pytest.raises(ShiftInconsistencyError) as err:
            bilinear_realize(s)
        assert str(err.value) == (
            f"synthesized model deviates from the series {where}; "
            "the series is not rational at this truncation"
        )

    def test_float_mode_refused(self):
        from cfrealize import ModeMismatchError, to_float

        with pytest.raises(ModeMismatchError):
            bilinear_realize(to_float(drift_series()))

    def test_insufficient_budget(self):
        s = Series(1, 1, {(0,): 1})
        with pytest.raises(StabilizationError):
            bilinear_realize(s)


class TestStabilizationRanks:
    """The gate's two ranks, read from one elimination of the (d, d) block,
    are the exact ranks of the (d - 1, d - 1) and (d, d) blocks."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 2), st.integers(2, 8), st.booleans(), st.randoms(use_true_random=False))
    def test_matches_two_exact_ranks(self, m, n, bilinear, rnd):
        # Both kinds are rank-deficient: a model of at most 3 states, or at
        # most 8 nonzero words, each on at most n + 1 entries of a block.
        if bilinear:
            s = bilinear_coefficients(rand_bilinear(rnd, rnd.randint(1, 3), m), n)
        else:
            words = words_up_to(m, n)
            words = rnd.sample(words, rnd.randint(1, min(8, len(words))))
            s = Series(m, n, {w: Fraction(rnd.randint(-3, 3), rnd.randint(1, 5)) for w in words})
        d = n // 2
        want = (
            rank_exact(hankel_build(s, d - 1, d - 1)).rank,
            rank_exact(hankel_build(s, d, d)).rank,
        )
        assert _stabilization_ranks(s, d) == want


class TestVerifyRealization:
    def test_perturbed_readout_detected(self, rng):
        model = rand_bilinear(rng, 2, 1)
        s = bilinear_coefficients(model, 6)
        bad = BilinearModel(
            model.n,
            model.m,
            model.x0,
            model.mats,
            tuple(c + 1 for c in model.c),
        )
        report = verify_realization(bad, s, 6)
        assert report.max_abs > 0

    def test_perturbed_realized_matrix_detected(self, rng):
        s = bilinear_coefficients(rand_bilinear(rng, 2, 1), 6)
        model = bilinear_realize(s).model
        assert model.n == 2
        for i, mat in enumerate(model.mats):
            for r in range(model.n):
                for c in range(model.n):
                    rows = [list(row) for row in mat]
                    rows[r][c] += 1
                    mats = model.mats[:i] + (tuple(map(tuple, rows)),) + model.mats[i + 1 :]
                    bad = BilinearModel(model.n, model.m, model.x0, mats, model.c)
                    assert verify_realization(bad, s, 6).max_abs > 0, (i, r, c)

    def test_same_numerators_other_denominator_detected(self):
        # Halving C keeps every odd numerator and doubles each level's
        # denominator: the levels' numerators agree, the coefficients do not.
        model = parse_model("n = 1\nm = 1\nx0 = 1\nA0 = 1\nA1 = 3\nC = 1\n")
        s = bilinear_coefficients(model, 4)
        half = BilinearModel(1, 1, model.x0, model.mats, (Fraction(1, 2),))
        assert bilinear_coefficients(half, 4).levels == s.levels
        report = verify_realization(half, s, 4)
        assert (report.max_abs, report.worst_word) == (Fraction(81, 2), (1, 1, 1, 1))

    def test_linear_embedding_cross_check(self, rng):
        model = rand_bilinear(rng, 3, 1)
        s = cf_coefficients(linear_embedding(model), 6)
        assert verify_realization(model, s, 6).max_abs == 0


def exp_decay_markov(k_max=10):
    # impulse response of h(t) = e^{-t}: derivatives alternate sign at zero
    return [[Fraction(-1) ** k] for k in range(k_max + 1)]


class TestLinearHoKalman:
    def test_exponential_impulse_response(self):
        real = linear_ho_kalman(exp_decay_markov(), n_max=5)
        assert real.n == 1
        got = real.markov(10)
        assert got == [((-1) ** k,) for k in range(11)]

    def test_all_zero_markov(self):
        real = linear_ho_kalman([[0], [0], [0], [0], [0]], n_max=2)
        assert real.n == 0
        assert real.markov(4) == [(Fraction(0),)] * 5

    def test_double_integrator(self):
        markov = [[0], [1], [0], [0], [0], [0], [0], [0], [0]]
        real = linear_ho_kalman(markov, n_max=4)
        assert real.n == 2
        assert real.markov(8) == [tuple(row) for row in markov]

    def test_rank_exceeds_budget(self):
        markov = [[0], [1], [0], [0], [0]]
        with pytest.raises(RankExceededError):
            linear_ho_kalman(markov, n_max=1)

    def test_needs_enough_parameters(self):
        with pytest.raises(ValueError):
            linear_ho_kalman([[1], [1]], n_max=2)

    def test_two_channel_data(self):
        # h(t) = (e^{-t}, 1): block Hankel with m = 2 columns per block
        markov = [[Fraction(-1) ** k, Fraction(int(k == 0))] for k in range(9)]
        real = linear_ho_kalman(markov, n_max=4)
        assert real.n == 2
        assert real.markov(8) == [tuple(row) for row in markov]

    def test_markov_hankel_rank_one_for_exponential(self):
        h = markov_hankel(exp_decay_markov(), 5, 5)
        assert exact_rank(h) == 1


class TestMarkovToSeries:
    def test_word_placement(self):
        s = markov_to_series(exp_decay_markov(), 6)
        assert coefficient(s, (1,)) == 1
        assert coefficient(s, (0, 1)) == -1
        assert coefficient(s, (0, 0, 1)) == 1
        # pure time words vanish: the filter output starts at zero
        for k in range(7):
            assert coefficient(s, (0,) * k) == 0
        # a noise letter anywhere but last kills the coefficient
        assert coefficient(s, (1, 0)) == 0

    def test_word_series_hankel_rank_is_two(self):
        # The affine filter dynamics need one extra constant state in any
        # bilinear realization, and the word-series Hankel sees it: its rank
        # is 2, one above the classical Markov block-Hankel rank.
        s = markov_to_series(exp_decay_markov(), 8)
        assert rank_exact(hankel_build(s, 4, 4)).rank == 2

    def test_word_series_is_bilinearly_realizable(self):
        s = markov_to_series(exp_decay_markov(), 8)
        result = bilinear_realize(s)
        assert result.model.n == 2
        assert bilinear_coefficients(result.model, 8) == s


class TestRealizationAgainstSource:
    """The golden ANALYTIC model (g0 = 1 - x1, g1 = x1, h = x1^2 + x1) and
    its n = 3 realization from the degree-8 series, both stepped by Heun on
    nested subsamples (256 to 16 384 cells) of one fine path, 100 replicates
    up to T = 0.5.  Both schemes converge to the same Stratonovich solution
    with strong order 1, so the RMS terminal gap should about halve with
    each halving of the step; fresh noise per grid would hide that.

    Bounds, against the gaps of ten study seeds (4 among them): every
    halving from 1 024 cells on lowers the gap by at least 1.3 (measured at
    least 1.45), the six halvings together by at least 1.7 per halving
    (measured 1.91 to 2.19), and the finest gap is under 3e-4 for Brownian
    input (measured 3.7e-5 to 1.6e-4; 1.0e-4 at seed 4) and 6e-5 for the
    diffusion input (2.0e-5 to 3.6e-5; 2.5e-5 at seed 4)."""

    FINEST = 2**14
    FINEST_BOUND = {"brownian": 3e-4, "diffusion": 6e-5}

    @staticmethod
    def fine_path(name, grid):
        if name == "brownian":
            return sample_brownian(QSpec.identity(1), grid, 4, 100)
        drift = PolyVectorField((parse_polynomial("1 - 2*x1", 1),))  # dW' = (1 - 2W') dt + 0.8 dB
        return sample_diffusion_input(drift, [[0.8]], grid, 4, 100)

    @pytest.mark.parametrize("name", ["brownian", "diffusion"])
    def test_terminal_gap_falls_with_the_step(self, name):
        source = parse_model(ANALYTIC)
        realization = bilinear_realize(cf_coefficients(source, 8)).model
        assert realization.n == 3
        grid = make_grid(0.5, self.FINEST)
        path = self.fine_path(name, grid)
        gaps = []
        for every in (64, 32, 16, 8, 4, 2, 1):  # 256 cells up to FINEST
            sub = SamplePath(grid[::every], path.values[:, ::every], path.q)
            gap = simulate_analytic(source, sub)[:, -1] - simulate_bilinear(realization, sub)[:, -1]
            gaps.append(float(np.sqrt(np.mean(gap**2))))
        factors = [a / b for a, b in zip(gaps, gaps[1:])]
        assert min(factors[2:]) >= 1.3, gaps
        assert (gaps[0] / gaps[-1]) ** (1 / 6) >= 1.7, gaps
        assert gaps[-1] < self.FINEST_BOUND[name], gaps
