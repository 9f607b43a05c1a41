import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
from cfrealize.symdiff import (
    MAX_COEFFICIENT_BITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    compile_float,
    format_model,
    ito_correction,
    poly_to_string,
)
from conftest import rand_bilinear, rand_fraction, rand_poly, traced_peak


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


class TestFloatEvaluatorBlocks:
    """compile_float works point by point, so a caller may evaluate a large
    x in leading-axis blocks: the blocks give the bytes of one call, and
    their peak follows the block, not x."""

    READOUT = "(x1 + x2 + x3 + 1)^6"  # 84 monomials in 3 variables

    # (40, 257, 3): replicates of states, in blocks of 8 whole replicates;
    # (40 * 257, 3): one step's states, in blocks of 2056 rows.
    @pytest.mark.parametrize("shape", [(40, 257, 3), (40 * 257, 3)])
    @pytest.mark.parametrize("several", [False, True])
    def test_blocks_give_one_call_bytes_under_a_lower_peak(self, shape, several):
        import numpy as np

        h = P(self.READOUT, 3)
        assert len(h.terms) == 84
        ev = compile_float([h, P("x1*x2 - 3*x3^2 + 1/7", 3)] if several else h)
        x = np.random.default_rng(7).standard_normal(shape)
        whole = ev(x)
        blocked = np.empty_like(whole)
        size = len(x) // 5

        def fill():
            for i in range(0, len(x), size):
                blocked[i:i + size] = ev(x[i:i + size])

        whole_peak, blocked_peak = traced_peak(ev, x), traced_peak(fill)
        assert blocked.tobytes() == whole.tobytes()
        assert blocked_peak < whole_peak / 3, (blocked_peak, whole_peak)


class TestFloatEvaluatorMemory:
    """compile_float forms one monomial at a time, so the peak of a call
    does not grow with the number of terms."""

    def test_peak_does_not_grow_with_the_monomials(self):
        import numpy as np

        small = P("x1*x2 - 3*x3^2 + 1/7", 3)
        many = [P("(x1 + x2 + x3 + 1)^6", 3), small]  # 84 monomials
        few = [small, P("2*x1*x2 + x1", 3)]  # 4 monomials
        assert len({e for p in many for e in p.terms}) == 84
        assert len({e for p in few for e in p.terms}) == 4
        x = np.random.default_rng(7).standard_normal((40, 257, 3))
        peak_many, peak_few = (traced_peak(compile_float(polys), x) for polys in (many, few))
        assert abs(peak_many - peak_few) <= 0.1 * peak_few, (peak_many, peak_few)


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

    def test_output_correction_of_correlated_channels(self):
        # h = x1 * x2 with g1 = e1, g2 = e2: L_{g_j} L_{g_i} h is 1 for i != j
        model = parse_model("n = 2\nm = 2\nx0 = 0, 0\ng0 = 0, 0\ng1 = 1, 0\ng2 = 0, 1\nh = x1*x2\n")
        firsts = [lie_derivative(g, model.readout) for g in model.fields[1:]]
        q = [[1, Fraction(1, 3)], [Fraction(1, 3), 2]]
        assert ito_correction(model, q, firsts) == MultiPoly.const(2, Fraction(1, 3))
        # the state's correction is the same function, row by row
        cubic = parse_model("n = 1\nm = 2\nx0 = 0\ng0 = 1\ng1 = x1^2\ng2 = x1\nh = x1\n")
        b = stratonovich_to_ito_drift(cubic, q)
        # g0 + (2 x1^3 + (2/3 + 1/3) x1^2 + 2 x1) / 2
        assert b.components[0] == P("1 + x1^3 + 1/2*x1^2 + x1", 1)

    def test_rejects_non_spd(self):
        model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = x1\nh = x1\n")
        with pytest.raises(ValueError):
            stratonovich_to_ito_drift(model, [[-1]])
        model2 = parse_model("n = 1\nm = 2\nx0 = 0\ng0 = 0\ng1 = x1\ng2 = 1\nh = x1\n")
        with pytest.raises(ValueError):
            stratonovich_to_ito_drift(model2, [[1, 2], [2, 1]])


def spd_by_elimination(q) -> bool:
    """Oracle: Fraction Gaussian elimination tracking the leading principal
    minors, the way is_spd decided before it moved onto RowSpan."""
    q = [[Fraction(v) for v in row] for row in q]
    d = len(q)
    if any(len(row) != d for row in q):
        return False
    if any(q[i][j] != q[j][i] for i in range(d) for j in range(i)):
        return False
    a = [row[:] for row in q]
    det = Fraction(1)
    for k in range(d):
        if a[k][k] == 0:
            return False
        det *= a[k][k]
        if det <= 0:
            return False
        for i in range(k + 1, d):
            f = a[i][k] / a[k][k]
            for j in range(k, d):
                a[i][j] -= f * a[k][j]
    return True


class TestIsSpd:
    def test_matches_fraction_elimination(self, rng):
        # symmetric matrices, Gram matrices B B^T (often singular) and Gram
        # matrices plus a random diagonal, of sizes 0..4
        spd = 0
        for _ in range(3000):
            d = rng.randint(0, 4)
            b = [[rand_fraction(rng) for _ in range(d)] for _ in range(d)]
            kind = rng.randrange(3)
            if kind == 0:
                q = [[b[max(i, j)][min(i, j)] for j in range(d)] for i in range(d)]
            else:
                q = [[sum(x * y for x, y in zip(b[i], b[j])) for j in range(d)] for i in range(d)]
                if kind == 2:
                    for i in range(d):
                        q[i][i] += rand_fraction(rng)
            expected = spd_by_elimination(q)
            assert symdiff.is_spd(q) == expected, q
            spd += expected
        assert 500 < spd < 2500

    def test_shape_and_symmetry(self):
        assert symdiff.is_spd([])
        assert symdiff.is_spd([[2, 1], [1, 1]])
        assert not symdiff.is_spd([[2, 1], [1]])  # ragged
        assert not symdiff.is_spd([[2], [1]])
        assert not symdiff.is_spd([[2, 1], [0, 1]])
        assert not symdiff.is_spd([[0, 1], [1, 0]])  # the pivots leave the diagonal
        assert not symdiff.is_spd([[1, 1], [1, 1]])  # the second row is dependent
        assert not symdiff.is_spd([[1, 0], [0, -1]])


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

    def test_size_bounds_fail_fast(self):
        # nested powers multiply degrees and coefficient sizes; just below
        # the bounds they still parse
        for text, n, message, column, token in POLY_ERRORS:
            if message.startswith("product has"):
                error, peak = rejected_parse(text, n)
                assert peak < 2 * 2**20  # the unbounded parse peaked near 110 MB
                assert (error.message, error.token) == (message, token)
        assert P("((x1^16)^16)^16", 1).total_degree() == MAX_DEGREE
        assert P("((((2^16)^16)^16)^16)^15", 1) == MultiPoly.const(1, 2**983040)
        error, _ = rejected_parse("((x1^16)^16)^16 * x1", 1)
        assert (error.message, error.column, error.token) == (
            f"product has degree past the limit of {MAX_DEGREE}", 16, "*"
        )

    def test_power_refused_before_expanding(self):
        # the refused ^16 would build a 15.7-million-bit constant; its base
        # (983 041 bits) is the most the parser builds here
        text = "(((((2^16)^16)^16)^15)^16)^16"
        start = time.perf_counter()
        with pytest.raises(ParseError):
            P(text, 1)
        assert time.perf_counter() - start < 0.05  # 4.5 ms; 0.11 s before
        error, peak = rejected_parse(text, 1)
        assert peak < 2**20  # 2 MB before
        assert (error.column, error.token) == (27, "16")
        # the degree is bounded the same way, before a 257-term base is expanded
        error, _ = rejected_parse("(((x1^2 + x1)^16)^16)^16", 1)
        assert (error.message, error.column) == (
            f"product has degree past the limit of {MAX_DEGREE}", 22
        )

    def test_power_of_large_interior_term_refused_before_expanding(self):
        # the 65 537-bit coefficient sits in the middle term, between the
        # lex-first and lex-last terms; bounding by those two alone let the
        # ^16 expand for 0.4 s to a 4.5 MB peak before the product check
        text = "(x1^2 + ((((2^16)^16)^16)^16)*x1 + 1)^16"
        start = time.perf_counter()
        with pytest.raises(ParseError):
            P(text, 1)
        assert time.perf_counter() - start < 0.05  # 7 ms
        error, peak = rejected_parse(text, 1)
        assert peak < 2**20  # 47 KB
        assert (error.message, error.column, error.token) == (symdiff._PAST_BITS, 38, "16")
        # one factor of 2 less and the power still parses
        assert len(P("(x1^2 + (((2^16)^16)^16)^15*x1 + 1)^16", 1).terms) == 33

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


# Every error kind of the polynomial parser as (text, num_vars, message,
# column, token); trailing whitespace moves the end token's column only.
POLY_ERRORS = [
    ("x1 + 2y", 1, "unexpected character in polynomial", 6, "y"),
    ("x1 @ 2", 1, "unexpected character in polynomial", 3, "@"),
    ("x1 +\u00a0$ ", 1, "unexpected character in polynomial", 5, "$"),  # a no-break space
    ("x1^17 + y", 1, "unexpected character in polynomial", 8, "y"),
    ("1/ + x1", 1, "malformed rational literal", 0, "1/"),
    ("3/x1", 1, "malformed rational literal", 0, "3/"),
    ("  12/", 1, "malformed rational literal", 2, "12/"),
    ("x + 1", 1, "variable needs an index (x1, x2, ...)", 0, "x"),
    ("2*x", 2, "variable needs an index (x1, x2, ...)", 2, "x"),
    ("xx1", 1, "variable needs an index (x1, x2, ...)", 0, "x"),
    ("x3", 2, "variable index outside 1..2", 0, "x3"),
    ("x0", 2, "variable index outside 1..2", 0, "x0"),
    ("x1 * x10", 9, "variable index outside 1..9", 5, "x10"),
    ("(x1 + 1", 1, "expected ')'", 7, "<end>"),
    ("(x1 + 1  ", 1, "expected ')'", 9, "<end>"),
    ("((x1)", 1, "expected ')'", 5, "<end>"),
    ("x1 x2", 2, "trailing input after polynomial", 3, "x2"),
    ("x1 )", 1, "trailing input after polynomial", 3, ")"),
    ("(x1) (x2)", 2, "trailing input after polynomial", 5, "("),
    ("x1 2  ", 1, "trailing input after polynomial", 3, "2"),
    ("x1^1/2", 1, "exponent must be an integer", 3, "1/2"),
    ("x1^x1", 1, "expected 'num'", 3, "x1"),
    ("x1^", 1, "expected 'num'", 3, "<end>"),
    ("x1^  ", 1, "expected 'num'", 5, "<end>"),
    ("x1^-2", 1, "expected 'num'", 3, "-"),
    ("x1^(2)", 1, "expected 'num'", 3, "("),
    ("x1^17", 1, f"exponent above the limit of {MAX_EXPONENT}", 3, "17"),
    ("(1+x1)^3000", 1, f"exponent above the limit of {MAX_EXPONENT}", 7, "3000"),
    ("x1^0016", 1, f"exponent above the limit of {MAX_EXPONENT}", 3, "0016"),
    ("x1^1000000000", 1, f"exponent above the limit of {MAX_EXPONENT}", 3, "1000000000"),
    ("(1+x1+x2+x3+x4+x5)^8 * (1+x1+x2+x3+x4+x5)^8", 5,
     f"product expands past the limit of {MAX_TERMS} terms", 21, "*"),
    ("(1+x1+x2+x3+x4+x5)^16", 5, f"product expands past the limit of {MAX_TERMS} terms", 19, "16"),
    ("(((((((2^16)^16)^16)^16)^16)^16)^16)", 1,
     f"product has a coefficient past the limit of {MAX_COEFFICIENT_BITS} bits", 25, "16"),
    ("((((((x1^16)^16)^16)^16)^16)^16)", 1, f"product has degree past the limit of {MAX_DEGREE}",
     21, "16"),
    ("(((((2^16)^16)^16)^15)^16)^16", 1,
     f"product has a coefficient past the limit of {MAX_COEFFICIENT_BITS} bits", 27, "16"),
    ("1/0", 1, "zero denominator", 0, "1/0"),
    ("x1 + 3/00", 1, "zero denominator", 5, "3/00"),
    ("x1 + " + "1" * 5000, 1,
     "number literal of 5000 characters is too long to convert", 5, "1" * 20 + "..."),
    ("7/" + "2" * 5000, 1,
     "number literal of 5002 characters is too long to convert", 0, "7/" + "2" * 18 + "..."),
    ("", 1, "expected number, variable, or '('", 0, "<end>"),
    ("   ", 1, "expected number, variable, or '('", 3, "<end>"),
    ("\t", 1, "expected number, variable, or '('", 1, "<end>"),
    ("x1 +  ", 1, "expected number, variable, or '('", 6, "<end>"),
    ("x1 + ", 1, "expected number, variable, or '('", 5, "<end>"),
    ("-", 1, "expected number, variable, or '('", 1, "<end>"),
    ("()", 1, "expected number, variable, or '('", 1, ")"),
    ("x1 + * x2", 2, "expected number, variable, or '('", 5, "*"),
]

# (model text, message, line, column, token): a polynomial's error counts its
# column in the whole line
MODEL_ERRORS = [
    ("n = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh  =  (1 + x1)^3000\n",
     f"in h: exponent above the limit of {MAX_EXPONENT}", 6, 15, "3000"),
    ("n = 2\nm = 1\nx0 = 0, 0\ng0 = x1,  x2 * qq\ng1 = 0, 0\nh = x1\n",
     "in g0: unexpected character in polynomial", 4, 15, "q"),
    ("n = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh = x1 + " + "1" * 5000 + "\n",
     "in h: number literal of 5000 characters is too long to convert", 6, 9, "1" * 20 + "..."),
    ("n = 1\nm = 1\nx0 = 0\ng0 = 1/0\ng1 = 0\nh = x1\n", "in g0: zero denominator", 4, 5, "1/0"),
    ("n = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh = x1 +  \n",
     "in h: expected number, variable, or '('", 6, 8, "<end>"),
]

# The n = 3, m = 1 model of the benchmark's exact_analytic pool at seed 1501.
POOL_MODEL = """n = 3
m = 1
x0 = 1, 2, -2
g0 = (-1) + (-1/4)*x2^2 + (1)*x1^1*x3^1 + (1)*x1^1*x2^1 + (-1)*x1^2, \
(2)*x3^1 + (-1)*x2^1 + (-2)*x1^1*x2^1 + (-2)*x1^2, \
(2) + (-1)*x3^2 + (-2)*x2^1 + (1)*x2^1*x3^1 + (2)*x1^1*x2^1
g1 = (-1/2)*x3^2 + (-1/2)*x2^2 + (-1/2)*x1^1*x3^1 + (-1/2)*x1^1*x2^1 + (-1)*x1^2, \
(2)*x3^1 + (1)*x3^2 + (2)*x2^1 + (1/2)*x2^1*x3^1 + (1)*x2^2, \
(-4) + (-1)*x3^1 + (2)*x1^1*x3^1 + (1)*x1^1*x2^1
h = (-1) + (-1)*x3^1 + (-1/2)*x3^2 + (1/4)*x2^2 + (1)*x1^1 + (1)*x1^1*x3^1 + (1)*x1^2
"""

# Expression trees: ("num", Fraction >= 0), ("var", k), ("neg", t), ("^", t, e)
# and (op, t, u) for op in + - *; PRECEDENCE is the grammar level of each.
PRECEDENCE = {"+": 0, "-": 0, "*": 1, "neg": 2, "^": 3, "num": 4, "var": 4}


def expression_trees(n):
    leaves = st.one_of(
        st.tuples(st.just("num"), st.fractions(min_value=0, max_value=12, max_denominator=6)),
        st.tuples(st.just("var"), st.integers(1, n)),
    )
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.tuples(st.sampled_from("+-*"), kids, kids),
            st.tuples(st.just("neg"), kids),
            st.tuples(st.just("^"), kids, st.integers(0, 3)),
        ),
        max_leaves=10,
    )


def tree_degree(t):
    kind = t[0]
    if kind in ("num", "var"):
        return int(kind == "var")
    if kind == "neg":
        return tree_degree(t[1])
    if kind == "^":
        return t[2] * tree_degree(t[1])
    degrees = tree_degree(t[1]), tree_degree(t[2])
    return sum(degrees) if kind == "*" else max(degrees)


def render(t, level, draw):
    """Text of tree t that parses at grammar level ``level``, with drawn
    spacing and parentheses beyond the ones precedence needs."""
    def gap():
        return draw(st.sampled_from(["", " ", "  ", "\t", "\n"]))

    kind = t[0]
    if kind == "num":
        text = str(t[1])
    elif kind == "var":
        text = f"x{t[1]}"
    elif kind == "neg":
        text = "-" + gap() + render(t[1], 2, draw)
    elif kind == "^":
        text = render(t[1], 4, draw) + gap() + "^" + gap() + str(t[2])
    else:
        left, right = render(t[1], PRECEDENCE[kind], draw), render(t[2], PRECEDENCE[kind] + 1, draw)
        text = left + gap() + kind + gap() + right
    if PRECEDENCE[kind] < level or draw(st.integers(0, 4)) == 0:
        text = "(" + gap() + text + gap() + ")"
    return text


def tree_poly(t, n):
    kind = t[0]
    if kind == "num":
        return MultiPoly.const(n, t[1])
    if kind == "var":
        return MultiPoly.var(n, t[1])
    if kind == "neg":
        return -tree_poly(t[1], n)
    if kind == "^":
        return math.prod([tree_poly(t[1], n)] * t[2], start=MultiPoly.const(n, 1))
    p, q = tree_poly(t[1], n), tree_poly(t[2], n)
    return p + q if kind == "+" else p - q if kind == "-" else p * q


def tree_value(t, x):
    """Value of tree t at the rational point x, with no polynomial algebra."""
    kind = t[0]
    if kind == "num":
        return t[1]
    if kind == "var":
        return x[t[1] - 1]
    if kind == "neg":
        return -tree_value(t[1], x)
    if kind == "^":
        return tree_value(t[1], x) ** t[2]
    a, b = tree_value(t[1], x), tree_value(t[2], x)
    return a + b if kind == "+" else a - b if kind == "-" else a * b


def short_id(value):
    """Test id of a parameter: long texts are cut to their first 24 characters."""
    return value[:24] if isinstance(value, str) else None


class TestParserFrontEnd:
    @pytest.mark.parametrize("text, n, message, column, token", POLY_ERRORS, ids=short_id)
    def test_error_table(self, text, n, message, column, token):
        with pytest.raises(ParseError) as err:
            P(text, n)
        assert (err.value.message, err.value.line, err.value.column, err.value.token) == (
            message, None, column, token
        )

    @pytest.mark.parametrize("text, message, line, column, token", MODEL_ERRORS, ids=short_id)
    def test_model_error_table(self, text, message, line, column, token):
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert (err.value.message, err.value.line, err.value.column, err.value.token) == (
            message, line, column, token
        )

    @pytest.mark.parametrize(
        "text, message, column, token",
        [
            ("x\u00b2", "variable needs an index (x1, x2, ...)", 0, "x"),
            ("x1^\u00b2", "unexpected character in polynomial", 3, "\u00b2"),
            ("\u0663*x1", "unexpected character in polynomial", 0, "\u0663"),
            ("x\u0663", "variable needs an index (x1, x2, ...)", 0, "x"),
            ("1/\u00b2", "malformed rational literal", 0, "1/"),
            ("x" + "1" * 5000, "variable index outside 1..1", 0, "x" + "1" * 5000),
        ],
        ids=short_id,
    )
    def test_digits_are_ascii(self, text, message, column, token):
        # str.isdigit holds for a superscript two (U+00B2) and an Arabic-Indic
        # three (U+0663); the parser takes 0-9 only, and never int() of an
        # unbounded index
        with pytest.raises(ParseError) as err:
            P(text, 1)
        assert (err.value.message, err.value.column, err.value.token) == (message, column, token)

    def test_nesting_depth_is_bounded(self):
        # every level of parentheses is a few interpreter frames: past the
        # bound a ParseError names the first parenthesis too deep, where the
        # interpreter's stack used to overflow with a RecursionError
        x1 = MultiPoly.var(1, 1)
        assert P("(" * MAX_NESTING + "x1" + ")" * MAX_NESTING, 1) == x1
        assert P("-" * 5000 + "x1", 1) == x1 and P("-" * 5001 + "x1", 1) == -x1
        deep = MAX_NESTING + 1
        for text, column in (
            ("(" * 5000 + "x1", MAX_NESTING),
            ("-(" * deep + "x1" + ")" * deep, 2 * MAX_NESTING + 1),
        ):
            with pytest.raises(ParseError) as err:
                P(text, 1)
            assert err.value.message == f"parentheses nested deeper than {MAX_NESTING}"
            assert (err.value.column, err.value.token) == (column, "(")
        with pytest.raises(ParseError) as err:
            parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh = " + "(" * 200 + "x1\n")
        assert (err.value.line, err.value.column, err.value.token) == (6, 4 + MAX_NESTING, "(")

    def test_whitespace_and_leading_zeros(self):
        x1 = MultiPoly.var(1, 1)
        assert P("x1  ", 1) == P(" \u2003x1\t\n", 1) == x1  # Unicode spaces stay spaces
        assert P("x01", 1) == P("x" + "0" * 5000 + "1", 1) == x1
        assert P("007/014", 1) == MultiPoly.const(1, Fraction(1, 2))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_multipoly_arithmetic(self, data):
        n = data.draw(st.integers(1, 3))
        tree = data.draw(expression_trees(n))
        assume(tree_degree(tree) <= 8)
        text = data.draw(st.sampled_from(["", " ", "\t"])) + render(tree, 0, data.draw)
        p = P(text + data.draw(st.sampled_from(["", " ", "  \n"])), n)
        assert p == tree_poly(tree, n)
        x = data.draw(st.tuples(*[st.fractions(-3, 3, max_denominator=5)] * n))
        assert poly_eval(p, x) == tree_value(tree, x)

    def test_one_multipoly_per_polynomial(self, monkeypatch):
        built = []
        init = MultiPoly.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(MultiPoly, "__init__", counted)
        model = parse_model(POOL_MODEL)
        monkeypatch.undo()
        assert len(built) == 7  # three components in each of g0 and g1, and h
        assert built == [*model.fields[0].components, *model.fields[1].components, model.readout]
        assert parse_model(format_model(model)) == model


class TestModelFiles:
    BILINEAR = "type = bilinear\nn = 1\nm = 1\nx0 = 1\nA0 = 0\nA1 = 0\nC = 1\n"

    @pytest.mark.parametrize(
        "key, entry, line",
        [
            ("x0", "1e1000000", 4),
            ("x0", "1.5", 4),
            ("x0", "1_000", 4),
            ("x0", "+1", 4),
            ("x0", "\u0663", 4),
            ("A0", "1/0", 5),
            ("A1", "2e3", 6),
            ("C", "1/-2", 7),
        ],
    )
    def test_list_entries_take_the_written_form(self, key, entry, line):
        # x0, A<i> and C entries are read in the form format_model writes;
        # Fraction(str) would build a 3-million-bit integer from 1e1000000
        text = self.BILINEAR.replace(f"\n{key} = ", f"\n{key} = {entry} #", 1)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse_model(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.message, err.value.line, err.value.token) == (
            "bad rational literal", line, entry
        )
        assert peak < 2**20

    def test_list_entries_signed_integers_and_ratios(self):
        text = self.BILINEAR.replace("x0 = 1", "x0 = -007/014").replace("C = 1", "C = -0")
        model = parse_model(text)
        assert model.x0 == (Fraction(-1, 2),) and model.c == (0,)

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
