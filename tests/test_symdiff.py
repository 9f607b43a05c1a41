import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrealize import (
    AnalyticModel,
    BilinearModel,
    MonomialBudgetError,
    MultiPoly,
    ParseError,
    PolyVectorField,
    Series,
    bilinear_coefficients,
    cf_coefficients,
    coefficient,
    lie_derivative,
    linear_embedding,
    parse_model,
    parse_polynomial,
    poly_eval,
    stratonovich_to_ito_drift,
    words_up_to,
)
from cfrealize import symdiff
from cfrealize.symdiff import MAX_EXPONENT, MAX_TERMS, compile_float, format_model, poly_to_string
from conftest import rand_bilinear, rand_poly


def P(text, n):
    return parse_polynomial(text, n)


def rejected_parse(text, n):
    """The ParseError of parsing ``text`` in n variables, and the peak bytes
    tracemalloc traced while parsing it."""
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            P(text, n)
        return err.value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPolyBasics:
    def test_eval_coordinate(self):
        assert poly_eval(P("x1", 2), (3, 5)) == 3

    def test_eval_mixed(self):
        assert poly_eval(P("x1^2*x2 - 1", 2), (2, 3)) == 11

    def test_eval_zero_poly(self):
        assert poly_eval(MultiPoly.zero(3), (1, 2, 3)) == 0

    def test_eval_float_mode(self):
        assert poly_eval(P("x1^2", 1), (0.5,)) == pytest.approx(0.25)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poly_eval(P("x1", 2), (1,))

    def test_compiled_evaluator_matches_poly_eval(self, rng):
        # one polynomial gives shape (...), a list of k gives (..., k);
        # rounding of the float evaluation stays far below 1e-12
        import numpy as np

        polys = [rand_poly(rng, 3, 4) for _ in range(4)] + [MultiPoly.zero(3)]
        points = np.array([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(12)]).reshape(3, 4, 3)
        together = compile_float(polys)(points)
        assert together.shape == (3, 4, 5)
        for k, p in enumerate(polys):
            alone = compile_float(p)(points)
            assert alone.shape == (3, 4)
            for idx in np.ndindex(3, 4):
                want = float(poly_eval(p, tuple(Fraction(v) for v in points[idx])))
                assert alone[idx] == pytest.approx(want, rel=1e-12, abs=1e-12)
                assert together[idx + (k,)] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_partial(self):
        assert P("x1^2*x2", 2).partial(1) == P("2*x1*x2", 2)
        assert P("x1^2*x2", 2).partial(2) == P("x1^2", 2)


class TestLieDerivative:
    def test_constant_field_linear_readout(self):
        g = PolyVectorField((P("1", 2), P("0", 2)))
        assert lie_derivative(g, P("x1", 2)) == P("1", 2)

    def test_rotation_preserves_radius(self):
        g = PolyVectorField((P("x2", 2), P("-x1", 2)))
        assert lie_derivative(g, P("x1^2 + x2^2", 2)).is_zero()

    def test_symbolic_example(self):
        g = PolyVectorField((P("x1*x2", 2), P("x2", 2)))
        assert lie_derivative(g, P("x1", 2)) == P("x1*x2", 2)

    def test_leibniz_rule(self, rng):
        for _ in range(100):
            n = rng.randint(1, 3)
            g = PolyVectorField(tuple(rand_poly(rng, n, 2) for _ in range(n)))
            phi = rand_poly(rng, n, 4)
            psi = rand_poly(rng, n, 4)
            lhs = lie_derivative(g, phi * psi)
            rhs = phi * lie_derivative(g, psi) + psi * lie_derivative(g, phi)
            assert lhs == rhs


def drift_model():
    return parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh = x1\n")


class TestCoefficients:
    def test_pure_drift(self):
        s = cf_coefficients(drift_model(), 2)
        assert s.coeffs == {(0,): 1}

    def test_pure_diffusion_square(self):
        model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = 1\nh = x1^2\n")
        s = cf_coefficients(model, 2)
        assert s.coeffs == {(1, 1): 2}

    def test_rotation_model(self):
        model = parse_model("n = 2\nm = 1\nx0 = 1, 0\ng0 = x2, -x1\ng1 = 0, 0\nh = x1\n")
        s = cf_coefficients(model, 2)
        assert coefficient(s, (0,)) == 0
        assert coefficient(s, (0, 0)) == -1
        assert coefficient(s, ()) == 1

    def test_linearity_in_readout(self, rng):
        n = 2
        fields = tuple(
            PolyVectorField(tuple(rand_poly(rng, n, 2) for _ in range(n))) for _ in range(2)
        )
        h1, h2 = rand_poly(rng, n, 2), rand_poly(rng, n, 2)
        x0 = (Fraction(1), Fraction(-1))
        s1 = cf_coefficients(AnalyticModel(n, 1, x0, fields, h1), 4)
        s2 = cf_coefficients(AnalyticModel(n, 1, x0, fields, h2), 4)
        s12 = cf_coefficients(AnalyticModel(n, 1, x0, fields, h1 + h2), 4)
        for w in words_up_to(1, 4):
            assert coefficient(s12, w) == coefficient(s1, w) + coefficient(s2, w)

    def test_monomial_budget_guard(self):
        # At x0 = 1 the truncated derivatives peak at 128 live monomials.
        model = parse_model(
            "n = 1\nm = 1\nx0 = 1\ng0 = x1^2\ng1 = x1^3\nh = x1^4\n"
        )
        with pytest.raises(MonomialBudgetError):
            cf_coefficients(model, 6, term_budget=10)

    def test_monomial_budget_boundary(self):
        # The same model holds exactly 128 monomials at its peak, so the
        # count of live monomials cannot shift without this test noticing.
        model = parse_model(
            "n = 1\nm = 1\nx0 = 1\ng0 = x1^2\ng1 = x1^3\nh = x1^4\n"
        )
        with pytest.raises(MonomialBudgetError, match="exceed 127 live monomials"):
            cf_coefficients(model, 6, term_budget=127)
        assert cf_coefficients(model, 6, term_budget=128) == cf_coefficients(model, 6)

    def test_series_vanishes_at_origin(self):
        # Every iterated derivative of x1^4 along x1^2 and x1^3 is a monomial
        # of degree >= 4, so it vanishes at x0 = 0.
        model = parse_model(
            "n = 1\nm = 1\nx0 = 0\ng0 = x1^2\ng1 = x1^3\nh = x1^4\n"
        )
        assert cf_coefficients(model, 6, term_budget=10).is_zero()


def untruncated_coefficients(model, n_max):
    """Reference: full iterated Lie derivatives in the original coordinates,
    each evaluated at x0."""
    coeffs = {}
    level = {(): model.readout}
    for k in range(n_max + 1):
        nxt = {}
        for w, phi in level.items():
            coeffs[w] = poly_eval(phi, model.x0)
            if k < n_max:
                for i, g in enumerate(model.fields):
                    nxt[w + (i,)] = lie_derivative(g, phi)
        level = nxt
    return Series(model.m, n_max, coeffs)


# Field, readout and x0 terms over the primes 7, 11, 13, 17 and 19.
COPRIME_MODEL = (
    "n = 2\nm = 2\nx0 = 1/17, -2/19\n"
    "g0 = 1/7*x1*x2 + 1/11, 1/13*x2^2 - 3/7*x1\n"
    "g1 = 2/11*x2 - 1/19, 5/17*x1^2 + 1/7*x2\n"
    "g2 = 1/13*x1 + 4/17, 1/11*x1*x2 - 1/7\n"
    "h = 1/13*x1^2 + 6/19*x1*x2 - 1/11*x2 + 1/17\n"
)


def non_integer_fraction(rng):
    return Fraction(2 * rng.randint(-4, 3) + 1, rng.choice((2, 4, 6)))


class TestCoefficientOracle:
    @pytest.mark.parametrize("m, n_max", [(1, 5), (2, 5)])
    def test_matches_untruncated_reference(self, rng, m, n_max):
        for _ in range(3):
            n = rng.randint(1, 2)
            fields = tuple(
                PolyVectorField(tuple(rand_poly(rng, n, 3, density=0.4) for _ in range(n)))
                for _ in range(m + 1)
            )
            readout = rand_poly(rng, n, 3, density=0.6) * non_integer_fraction(rng)
            x0 = tuple(non_integer_fraction(rng) for _ in range(n))
            model = AnalyticModel(n, m, x0, fields, readout)
            assert cf_coefficients(model, n_max) == untruncated_coefficients(model, n_max)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_untruncated_reference_property(self, data):
        n = data.draw(st.integers(1, 2))
        m = data.draw(st.integers(1, 2))
        frac = st.fractions(min_value=-2, max_value=2, max_denominator=4)
        exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
        poly = st.dictionaries(exps, frac, max_size=3).map(lambda t: MultiPoly(n, t))
        fields = tuple(
            PolyVectorField(tuple(data.draw(poly) for _ in range(n))) for _ in range(m + 1)
        )
        x0 = tuple(data.draw(frac) for _ in range(n))
        model = AnalyticModel(n, m, x0, fields, data.draw(poly))
        n_max = data.draw(st.integers(0, 4))
        assert cf_coefficients(model, n_max) == untruncated_coefficients(model, n_max)


    def test_coprime_denominators(self):
        # Level k is built over D_h * D_g^k and must come out reduced.
        model = parse_model(COPRIME_MODEL)
        s = cf_coefficients(model, 6)
        assert s == untruncated_coefficients(model, 6)
        for level, den in zip(s.levels, s.dens):
            assert den > 0
            assert math.gcd(*level, den) == 1

    def test_lie_derivatives_form_no_fraction(self, monkeypatch):
        made, inside = [], []
        new, lie_jet = Fraction.__new__, symdiff._lie_jet

        def counted_new(cls, *args, **kwargs):
            if inside:
                made.append(args)
            return new(cls, *args, **kwargs)

        def watched_lie_jet(*args):
            inside.append(True)
            try:
                out = lie_jet(*args)
            finally:
                inside.pop()
            assert all(type(c) is int for c in out.values())
            return out

        monkeypatch.setattr(Fraction, "__new__", counted_new)
        monkeypatch.setattr(symdiff, "_lie_jet", watched_lie_jet)
        s = cf_coefficients(parse_model(COPRIME_MODEL), 4)
        monkeypatch.undo()
        assert made == []
        assert s == untruncated_coefficients(parse_model(COPRIME_MODEL), 4)


def word_product(model, w):
    """C * A_{i1} * ... * A_{ik} * x0 by plain Fraction mat-vec products."""
    v = list(model.x0)
    for i in reversed(w):
        a = model.mats[i]
        v = [sum((a[r][j] * v[j] for j in range(model.n)), Fraction(0)) for r in range(model.n)]
    return sum((ci * vi for ci, vi in zip(model.c, v)), Fraction(0))


class TestBilinearCoefficients:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_word_products(self, rng, n, m):
        for _ in range(3):
            model = rand_bilinear(rng, n, m, max_den=7)
            if n:
                # Zero one row of one matrix and one column of another.
                mats = [list(map(list, a)) for a in model.mats]
                r, i, j = rng.randrange(n), rng.randint(0, m), rng.randint(0, m)
                mats[i][r] = [Fraction(0)] * n
                for row in mats[j]:
                    row[r] = Fraction(0)
                model = BilinearModel(n, m, model.x0, mats, model.c)
            s = bilinear_coefficients(model, 5)
            assert (s.m, s.max_degree) == (m, 5)
            for w in words_up_to(m, 5):
                assert coefficient(s, w) == word_product(model, w), w

    def test_scalar_model_counts_letters(self, rng):
        a, b = Fraction(3, 2), Fraction(-2)
        model = BilinearModel(1, 1, (Fraction(1),), (((a,),), ((b,),)), (Fraction(1),))
        s = bilinear_coefficients(model, 5)
        for w in words_up_to(1, 5):
            zeros = sum(1 for c in w if c == 0)
            ones = len(w) - zeros
            assert coefficient(s, w) == a**zeros * b**ones

    def test_zero_readout(self, rng):
        model = rand_bilinear(rng, 3, 2)
        model = BilinearModel(3, 2, model.x0, model.mats, (Fraction(0),) * 3)
        assert bilinear_coefficients(model, 4).is_zero()

    def test_identity_matrices(self):
        eye = tuple(
            tuple(Fraction(int(i == j)) for j in range(2)) for i in range(2)
        )
        model = BilinearModel(2, 1, (Fraction(5), Fraction(7)), (eye, eye), (Fraction(1), Fraction(0)))
        s = bilinear_coefficients(model, 3)
        for w in words_up_to(1, 3):
            assert coefficient(s, w) == 5

    def test_matches_linear_embedding_to_degree_five(self, rng):
        for _ in range(4):
            model = rand_bilinear(rng, rng.randint(1, 3), rng.randint(1, 2))
            direct = bilinear_coefficients(model, 5)
            via_fields = cf_coefficients(linear_embedding(model), 5)
            assert direct == via_fields

    def test_commuting_fields_give_symmetric_coefficients(self):
        # A0 = diag(1,2), A1 = diag(3,-1) commute, so coefficients depend only
        # on the letter multiset.
        a0 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2)))
        a1 = ((Fraction(3), Fraction(0)), (Fraction(0), Fraction(-1)))
        model = BilinearModel(2, 1, (Fraction(1), Fraction(1)), (a0, a1), (Fraction(1), Fraction(1)))
        s = bilinear_coefficients(model, 4)
        import itertools

        for w in words_up_to(1, 4):
            for perm in itertools.permutations(w):
                assert coefficient(s, tuple(perm)) == coefficient(s, w)


class TestDriftConversion:
    def test_constant_fields_unchanged(self):
        model = parse_model("n = 2\nm = 2\nx0 = 0, 0\ng0 = 1, 2\ng1 = 3, 4\ng2 = -1, 0\nh = x1\n")
        q = [[1, 0], [0, 1]]
        b = stratonovich_to_ito_drift(model, q)
        assert b.components == model.fields[0].components

    def test_scalar_multiplicative_noise(self):
        model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = x1\nh = x1\n")
        b = stratonovich_to_ito_drift(model, [[1]])
        assert b.components[0] == P("1/2*x1", 1)

    def test_covariance_scaling(self):
        model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = x1\nh = x1\n")
        b = stratonovich_to_ito_drift(model, [[4]])
        assert b.components[0] == P("2*x1", 1)

    def test_rejects_non_spd(self):
        model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = x1\nh = x1\n")
        with pytest.raises(ValueError):
            stratonovich_to_ito_drift(model, [[-1]])
        model2 = parse_model("n = 1\nm = 2\nx0 = 0\ng0 = 0\ng1 = x1\ng2 = 1\nh = x1\n")
        with pytest.raises(ValueError):
            stratonovich_to_ito_drift(model2, [[1, 2], [2, 1]])


class TestPolynomialParser:
    def test_precedence_and_round_trip(self):
        p = P("-x1^2*x2 + 3/4*x1 - (x2 - 1)^2", 2)
        assert parse_polynomial(poly_to_string(p), 2) == p

    def test_unary_minus_binds_power(self):
        assert P("-x1^2", 1) == -P("x1^2", 1)

    def test_rational_literal(self):
        assert poly_eval(P("3/4", 1), (0,)) == Fraction(3, 4)

    def test_error_names_token(self):
        with pytest.raises(ParseError) as err:
            P("x1 + 2y", 1)
        assert "y" in str(err.value)

    def test_error_on_out_of_range_variable(self):
        with pytest.raises(ParseError) as err:
            P("x3", 2)
        assert "x3" in str(err.value)

    def test_error_on_fractional_exponent(self):
        with pytest.raises(ParseError):
            P("x1^1/2", 1)

    def test_exponent_bound_fails_fast(self):
        for text, exponent in (("(1+x1+x2+x3)^1000", "1000"), ("x1^1000000000", "1000000000")):
            error, peak = rejected_parse(text, 3)
            assert peak < 2 * 2**20
            assert repr(exponent) in str(error)
        assert P("x1^3", 1) == P("x1*x1*x1", 1)
        assert P(f"x1^{MAX_EXPONENT}", 1).total_degree() == MAX_EXPONENT


    def test_term_bound_fails_fast(self):
        # (1+x1+...+x5)^16 has 20 349 terms; the bound stops it early
        for text, token in (
            ("(1+x1+x2+x3+x4+x5)^16", "16"),
            ("(1+x1+x2+x3+x4+x5)^8 * (1+x1+x2+x3+x4+x5)^8", "*"),
        ):
            error, peak = rejected_parse(text, 5)
            assert peak < 2 * 2**20  # the unbounded expansion peaks near 6 MB
            assert f"limit of {MAX_TERMS} terms" in str(error)
            assert error.token == token
        # below the bound the expansion is exact: C(19, 3) terms
        assert len(P("(1+x1+x2+x3)^16", 3).terms) == 969
        assert P("(x1 + 1/2)^2", 1) == P("x1^2 + x1 + 1/4", 1)

    def test_oversized_literal_names_line_and_token(self):
        text = "n = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh = x1 + " + "1" * 5000 + "\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert err.value.line == 6
        assert err.value.token.startswith("1" * 20)
        assert "5000 characters" in str(err.value)

    def test_zero_denominator_literal(self):
        with pytest.raises(ParseError) as err:
            parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 1/0\ng1 = 0\nh = x1\n")
        assert err.value.line == 4 and err.value.token == "1/0"

    def test_model_error_names_token_once_with_column(self):
        text = "n = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh  =  (1 + x1)^3000\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        exc = err.value
        assert str(exc).count("'3000'") == 1
        assert (exc.line, exc.token) == (6, "3000")
        assert text.splitlines()[5][exc.column :].startswith("3000")
        assert str(exc) == (
            f"in h: exponent above the limit of {MAX_EXPONENT} near '3000' (line 6, column 15)"
        )
        # a field component's column counts in the whole line too
        text = "n = 2\nm = 1\nx0 = 0, 0\ng0 = x1,  x2 * qq\ng1 = 0, 0\nh = x1\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert err.value.line == 4 and err.value.token == "q"
        assert text.splitlines()[3][err.value.column :].startswith("qq")
        assert str(err.value).startswith("in g0: unexpected character in polynomial near 'q'")


class TestModelFiles:
    def test_analytic_round_trip(self):
        model = parse_model(
            "# a rotation\nn = 2\nm = 1\nx0 = 1, 0\ng0 = x2, -x1\ng1 = 0, 0\nh = x1\n"
        )
        text = format_model(model)
        assert parse_model(text) == model
        assert format_model(parse_model(text)) == text

    def test_bilinear_round_trip(self, rng):
        model = rand_bilinear(rng, 3, 2)
        assert parse_model(format_model(model)) == model

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        bilinear = data.draw(st.booleans())
        n = data.draw(st.integers(0 if bilinear else 1, 2))  # a vector field needs n >= 1
        m = data.draw(st.integers(1, 2))
        scalar = st.fractions(min_value=-4, max_value=4, max_denominator=6)

        def poly():
            exps = st.tuples(*[st.integers(0, 2)] * n)
            return MultiPoly(n, data.draw(st.dictionaries(exps, scalar, max_size=4)))

        x0 = tuple(data.draw(scalar) for _ in range(n))
        if bilinear:
            mats = tuple(
                tuple(tuple(data.draw(scalar) for _ in range(n)) for _ in range(n))
                for _ in range(m + 1)
            )
            model = BilinearModel(n, m, x0, mats, tuple(data.draw(scalar) for _ in range(n)))
        else:
            fields = tuple(
                PolyVectorField(tuple(poly() for _ in range(n))) for _ in range(m + 1)
            )
            model = AnalyticModel(n, m, x0, fields, poly())
        assert parse_model(format_model(model)) == model

    def test_missing_key(self):
        with pytest.raises(ParseError):
            parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 1\nh = x1\n")

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh = x1\nzz = 3\n")

    def test_wrong_matrix_size(self):
        with pytest.raises(ParseError):
            parse_model("n = 2\nm = 1\nx0 = 0, 0\nA0 = 1, 0\nA1 = 0, 0, 0, 0\nC = 1, 0\n")

    def test_type_mismatch(self):
        with pytest.raises(ParseError):
            parse_model("type = bilinear\nn = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh = x1\n")
