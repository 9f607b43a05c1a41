"""The benchmark's oracles and generators, pinned on hand-checked cases."""

import random
from fractions import Fraction as F

import models
import oracles

QUADRATIC_MODEL = "n = 1\nm = 1\nx0 = 1/2\ng0 = x1\ng1 = 1\nh = x1^2\n"


def test_frac_rank_hand_cases():
    assert oracles.frac_rank([[0, 3, 5, -1], [2, 0, 0, 1], [0, 0, 2, -1], [0, 3, 3, 0]]) == 3
    assert oracles.frac_rank([[0, 0, -1], [2, -1, -1], [-1, 0, 3]]) == 3
    assert oracles.frac_rank([[1, 2], [2, 4]]) == 1
    assert oracles.frac_rank([[0, 0], [0, 0]]) == 0
    assert oracles.frac_rank([[F(1, 2), F(1, 3)], [F(3, 2), 1]]) == 1
    assert oracles.frac_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]) == 3


def test_words_up_to_is_graded_lex():
    assert oracles.words_up_to(1, 2) == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_bilinear_coefficient_hand_case():
    # A0 = [[0, 1], [0, 0]], A1 = [[1, 0], [0, 2]], x0 = (1, 1), C = (1, 0)
    model = models.Bilinear(
        2, 1, (F(1), F(1)),
        (((F(0), F(1)), (F(0), F(0))), ((F(1), F(0)), (F(0), F(2)))),
        (F(1), F(0)),
    )
    assert oracles.bilinear_coefficient(model, ()) == 1
    assert oracles.bilinear_coefficient(model, (0,)) == 1  # C A0 x0
    assert oracles.bilinear_coefficient(model, (0, 1)) == 2  # C A0 A1 x0
    assert oracles.bilinear_coefficient(model, (1, 0)) == 1  # C A1 A0 x0
    assert oracles.bilinear_coefficient(model, (0, 0)) == 0


def test_lie_oracle_on_quadratic_model():
    lie = oracles.LieOracle(QUADRATIC_MODEL)
    # h = x^2, g0 = x, g1 = 1 at x0 = 1/2
    assert lie.coefficient(()) == F(1, 4)
    assert lie.coefficient((1,)) == 1  # 2x
    assert lie.coefficient((1, 1)) == 2
    assert lie.coefficient((0,)) == F(1, 2)  # 2x^2
    assert lie.coefficient((0, 1)) == 2  # L_g1 (2x^2) = 4x
    assert lie.coefficient((1, 0)) == 1  # L_g0 (2x) = 2x
    assert lie.coefficient((1, 1, 1)) == 0


def test_filter_model_carries_markov_parameters():
    rng = random.Random(3)
    model = models.filter_bilinear(rng, 2, 2)
    d = 2
    a = [[model.mats[0][r][s] for s in range(d)] for r in range(d)]
    b = [[model.mats[i + 1][r][d] for i in range(2)] for r in range(d)]
    c = model.c[:d]
    row = list(c)  # C A^k
    for k in range(4):
        for i in range(2):
            markov = sum(row[r] * b[r][i] for r in range(d))
            assert oracles.bilinear_coefficient(model, (0,) * k + (i + 1,)) == markov
        row = [sum(row[r] * a[r][s] for r in range(d)) for s in range(d)]
    for w in [(), (0,), (0, 0), (1, 0), (1, 2), (2, 0, 1)]:
        assert oracles.bilinear_coefficient(model, w) == 0


def test_coordinate_change_keeps_bilinear_coefficients():
    rng = random.Random(5)
    base = models.dense_bilinear(rng, 3, 2)
    moved = models.transform_bilinear(base, *models.draw_coordinates(rng, 3))
    moved = oracles.parse_bilinear(models.model_text(moved))
    for w in oracles.words_up_to(2, 4):
        assert oracles.bilinear_coefficient(moved, w) == oracles.bilinear_coefficient(base, w)


def test_coordinate_change_keeps_analytic_coefficients():
    rng = random.Random(7)
    base = models.rand_analytic(rng, 2, 1)
    moved = models.transform_analytic(base, [1, 0], [F(2), F(-1, 2)])
    want = oracles.LieOracle(models.model_text(base))
    got = oracles.LieOracle(models.model_text(moved))
    for w in oracles.words_up_to(1, 3):
        assert got.coefficient(w) == want.coefficient(w)


def test_parse_series_reads_both_modes():
    text = "cfseries m=1 N=1 mode=rational\n;1/2\n0;0/1\n1;-3/1\n"
    assert oracles.parse_series(text) == (1, 1, "rational", {(): F(1, 2), (0,): 0, (1,): -3})
    m, n, mode, coeffs = oracles.parse_series("cfseries m=1 N=0 mode=float\n;0.25\n")
    assert (m, n, mode, coeffs) == (1, 0, "float", {(): 0.25})
