"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs at its stated scale and tolerance; stated runtime
budgets are asserted with a monotonic clock.  Run with ``pytest -v
tests/test_acceptance.py`` to see one line per criterion.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import cfrealize as cf
from cfrealize.paths import replicate_seed, zakai_readout
from conftest import rand_analytic, rand_bilinear, rand_poly


def report(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


QUADRATIC_MODEL = "n = 1\nm = 1\nx0 = 1/2\ng0 = x1\ng1 = 1\nh = x1^2\n"


def test_criterion_1_bilinear_round_trip():
    t0 = time.monotonic()
    rng = random.Random(101)
    dims = []
    for trial in range(20):
        n = rng.randint(1, 3)
        model = rand_bilinear(rng, n, 2, bound=2, max_den=4)
        s = cf.bilinear_coefficients(model, 8)
        result = cf.bilinear_realize(s)
        assert result.model.n <= n, f"trial {trial}: dimension {result.model.n} > {n}"
        assert result.max_discrepancy == 0
        rep = cf.verify_realization(result.model, s, 8)
        assert rep.max_abs == 0, f"trial {trial}: discrepancy {rep.max_abs}"
        dims.append((n, result.model.n))
    elapsed = time.monotonic() - t0
    report(
        "1",
        elapsed < 60.0,
        f"20 round trips exact to degree 8, dims {dims}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_rank_theorems():
    rng = random.Random(202)
    worst = []
    for trial in range(20):
        n = rng.randint(1, 3)
        model = rand_bilinear(rng, n, 2, bound=2, max_den=4)
        s = cf.bilinear_coefficients(model, 8)
        for d in range(5):
            rk = cf.rank_exact(cf.hankel_build(s, d, d)).rank
            assert rk <= n, f"bilinear trial {trial}: rank {rk} > n={n} at degree {d}"
        lie = cf.lie_rank(s, 3, 3).rank
        han = cf.rank_exact(cf.hankel_build(s, 3, 3)).rank
        assert lie <= han, f"bilinear trial {trial}: lie {lie} > hankel {han}"
        worst.append((n, han))
    analytic_cases = []
    for trial in range(10):
        n = rng.randint(1, 3)
        m = 2 if trial % 3 == 0 else 1
        model = rand_analytic(rng, n, m, field_deg=2)
        s = cf.cf_coefficients(model, 6)
        lie = cf.lie_rank(s, 3, 3).rank
        han = cf.rank_exact(cf.hankel_build(s, 3, 3)).rank
        assert lie <= n, f"analytic trial {trial}: lie rank {lie} > n={n}"
        assert lie <= han, f"analytic trial {trial}: lie {lie} > hankel {han}"
        analytic_cases.append((n, m, lie, han))
    report(
        "2",
        True,
        f"rank bounds hold on 20 bilinear + 10 analytic models; analytic (n,m,lie,hankel): {analytic_cases}",
    )


def test_criterion_3_linear_filter_case():
    markov = [[Fraction(-1) ** k] for k in range(11)]
    real = cf.linear_ho_kalman(markov, n_max=5)
    assert real.n == 1, f"expected dimension 1, got {real.n}"
    got = real.markov(10)
    assert got == [((-1) ** k,) for k in range(11)], "Markov parameters not reproduced"
    from cfrealize.exactla import rank as exact_rank

    hk_rank = exact_rank(cf.markov_hankel(markov, 6, 6))
    assert hk_rank == 1, f"Markov block-Hankel rank {hk_rank} != 1"
    report(
        "3",
        True,
        "dimension 1, parameters (-1)^k reproduced exactly for k <= 10, "
        f"Markov block-Hankel rank {hk_rank}",
    )


def test_criterion_4a_time_word_exact():
    t0 = time.monotonic()
    path = cf.sample_brownian(cf.QSpec.identity(1), cf.make_grid(0.25, 4096), 41)
    table = cf.iterated_stratonovich(path, 2)
    err = float(np.max(np.abs(table[(0, 0)] - path.grid**2 / 2)))
    elapsed = time.monotonic() - t0
    report(
        "4a",
        err <= 1e-15 and elapsed < 120.0,
        f"max |I_(0,0)(t) - t^2/2| = {err:.2e} (machine precision), {elapsed:.1f}s",
    )


def test_criterion_4b_repeated_letter_refinement():
    # A repeated noise letter converges to its Stratonovich value, checked
    # against the shuffle oracle I_1^k = k! I_(1,...,1) over 200 seeds,
    # J = 2^10 -> 2^12.
    # (a) For (1,1) the trapezoidal step (W_j + W_{j+1})(W_{j+1} - W_j)/2 is
    #     (W_{j+1}^2 - W_j^2)/2, so the sum telescopes to W(T)^2/2 at every J:
    #     the error is rounding noise and must stay at that level (an Ito
    #     left-point sum would miss by about T/2).  Being zero, it cannot
    #     shrink under refinement.
    # (b) (1,1,1) is the shortest repeated-letter word on which the trapezoid
    #     is not exact: each cell adds dW^3/12 to I_(1,1,1) - W^3/6, so the
    #     RMS of that error must fall by >= 1.2 per grid halving.
    t0 = time.monotonic()
    T = 0.25
    max_err2 = 0.0
    rms = []
    for steps in (1024, 2048, 4096):
        errs3 = []
        for k in range(200):
            path = cf.sample_brownian(
                cf.QSpec.identity(1), cf.make_grid(T, steps), replicate_seed(404, k)
            )
            table = cf.iterated_stratonovich(path, 3)
            w = path.values[-1, 0]
            max_err2 = max(max_err2, abs(table[(1, 1)][-1] - w * w / 2))
            errs3.append(table[(1, 1, 1)][-1] - w**3 / 6)
        rms.append(float(np.sqrt(np.mean(np.square(errs3)))))
    factors = [rms[i] / rms[i + 1] for i in range(2)]
    elapsed = time.monotonic() - t0
    ok = max_err2 <= 1e-12 and all(f >= 1.2 for f in factors) and elapsed < 120.0
    report(
        "4b",
        ok,
        f"max |I_(1,1)(T) - W(T)^2/2| = {max_err2:.2e} over 600 paths (<= 1e-12); "
        f"RMS of I_(1,1,1)(T) - W(T)^3/6 per J=2^10,2^11,2^12: "
        f"{[f'{r:.2e}' for r in rms]}, decay factors "
        f"{[f'{f:.2f}' for f in factors]} (>= 1.2), {elapsed:.1f}s",
    )


def test_criterion_4c_shuffle_identity_smooth_path():
    t0 = time.monotonic()
    u, v = (0, 1), (0,)
    sh = cf.shuffle(u, v, 1)
    defects = []
    for steps in (512, 1024):
        grid = cf.make_grid(1.0, steps)
        path = cf.SamplePath(grid, np.sin(grid)[:, None])
        table = cf.iterated_stratonovich(path, 3)
        prod = table[u] * table[v]
        mix = np.zeros_like(prod)
        for w, c in sh.coeffs.items():
            mix += float(c) * table[w]
        defects.append(float(np.max(np.abs(prod - mix))))
    ratio = defects[0] / defects[1]
    elapsed = time.monotonic() - t0
    report(
        "4c",
        ratio >= 3.0 and elapsed < 120.0,
        f"shuffle defect on sin path: {defects[0]:.2e} -> {defects[1]:.2e}, "
        f"ratio {ratio:.2f} (>= 3), {elapsed:.1f}s",
    )


def test_criterion_5_series_truncation_error():
    t0 = time.monotonic()
    model = cf.parse_model(QUADRATIC_MODEL)
    s = cf.to_float(cf.cf_coefficients(model, 6))
    errs = {n: [] for n in range(2, 7)}
    paths = cf.sample_brownian(cf.QSpec.identity(1), cf.make_grid(0.25, 4096), 505, 200)
    ys = cf.simulate_analytic(model, paths)[:, -1]
    for k, y in enumerate(ys):
        table = cf.iterated_stratonovich(paths.replicate(k), 6)
        sums = cf.cf_trajectory(s, table)
        for n in errs:
            errs[n].append(abs(sums[n, -1] - y))
    medians = {n: float(np.median(v)) for n, v in errs.items()}
    elapsed = time.monotonic() - t0
    monotone = all(medians[n] >= medians[n + 1] for n in range(2, 6))
    factor = medians[2] / medians[6]
    report(
        "5",
        monotone and factor >= 3.0 and elapsed < 300.0,
        f"medians {({n: f'{m:.2e}' for n, m in medians.items()})}, monotone={monotone}, "
        f"N=2/N=6 factor {factor:.0f} (>= 3), {elapsed:.1f}s (< 300s)",
    )


def test_criterion_6_functional_ito_residual():
    from cfrealize.dupire import MemorylessFunctional, functional_ito_residual
    from cfrealize.symdiff import parse_polynomial

    def study(steps):
        return cf.sample_brownian(cf.QSpec.identity(1), cf.make_grid(0.25, steps), 606, 200)

    w1 = MemorylessFunctional(parse_polynomial("x2", 2), 1)
    linear = functional_ito_residual(w1, study(512), 0.25)
    w1sq = MemorylessFunctional(parse_polynomial("x2^2", 2), 1)
    rms = []
    for steps in (512, 1024, 2048):
        rep = functional_ito_residual(w1sq, study(steps), 0.25)
        rms.append(rep.rms)
    factors = [rms[0] / rms[1], rms[1] / rms[2]]
    ok = linear.rms <= 1e-10 and all(f >= 1.2 for f in factors)
    report(
        "6",
        ok,
        f"linear rms {linear.rms:.2e} (<= 1e-10); quadratic rms {[f'{r:.2e}' for r in rms]} "
        f"decay factors {[f'{f:.2f}' for f in factors]} (>= 1.2)",
    )


def test_criterion_7_first_order_decomposition():
    from cfrealize.dupire import hijab_decomposition_check

    model = cf.parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = 1\nh = x1^2\n")
    rms = []
    for steps in (1024, 2048):
        path = cf.sample_brownian(cf.QSpec.identity(1), cf.make_grid(0.25, steps), 707, 200)
        rep = hijab_decomposition_check(model, path)
        rms.append(rep.ito_rms)
    factor = rms[0] / rms[1]
    report(
        "7",
        factor >= 1.2,
        f"corrected-drift reconstruction of W^2 = t + 2 int W dW: RMS "
        f"{rms[0]:.2e} -> {rms[1]:.2e}, factor {factor:.2f} (>= 1.2)",
    )


def test_criterion_8_filter_demo():
    model = cf.zakai_build([[-1, 1], [1, -1]], [0, 1], [0, 1], ["1/2", "1/2"])
    grid = cf.make_grid(0.25, 4096)
    q = cf.QSpec.identity(1)
    path = cf.sample_brownian(q, grid, 808, 200)
    sigma_phi, sigma_one = zakai_readout(model, path)
    violations = int(np.count_nonzero(sigma_one <= 0))
    pi = cf.normalize_filter(sigma_phi, sigma_one)
    pi_lo, pi_hi = float(np.min(pi)), float(np.max(pi))
    unit_dev = float(np.max(np.abs(cf.normalize_filter(sigma_one, sigma_one) - 1.0)))
    s = cf.bilinear_coefficients(model, 6)
    rank = cf.rank_exact(cf.hankel_build(s, 3, 3)).rank
    ok = (
        violations == 0
        and 0.0 <= pi_lo <= pi_hi <= 1.0
        and unit_dev <= 1e-12
        and rank <= 2
    )
    report(
        "8",
        ok,
        f"200 seeds at J=4096: positivity violations {violations}, pi range "
        f"[{pi_lo:.4f}, {pi_hi:.4f}] in [0,1], unit-phi deviation {unit_dev:.1e} "
        f"(<= 1e-12), Hankel rank {rank} (<= 2)",
    )


def test_criterion_9_algebra_suite():
    t0 = time.monotonic()
    rng = random.Random(909)

    # Lyndon counts on the binary alphabet, degrees 1..5
    words = cf.lyndon_words(1, 5)
    counts = [sum(1 for w in words if len(w) == d) for d in range(1, 6)]
    assert counts == [2, 1, 2, 3, 6], counts

    # antisymmetry and Jacobi for bracket trees up to degree 6, exact
    trees = [0, 1, (0, 1), ((0, 1), 1), (0, (0, 1))]
    for _ in range(30):
        a, b = rng.choice(trees), rng.choice(trees)
        lhs = cf.expand_bracket((a, b), 1, 6)
        rhs = cf.expand_bracket((b, a), 1, 6)
        assert cf.series_linear_combine(1, lhs, 1, rhs).is_zero()
    small = [0, 1, (0, 1)]
    for _ in range(20):
        a, b, c = (rng.choice(small) for _ in range(3))
        s1 = cf.expand_bracket((a, (b, c)), 1, 6)
        s2 = cf.expand_bracket((b, (c, a)), 1, 6)
        s3 = cf.expand_bracket((c, (a, b)), 1, 6)
        total = cf.series_linear_combine(1, cf.series_linear_combine(1, s1, 1, s2), 1, s3)
        assert total.is_zero()

    # shuffle commutativity and associativity, exact
    from cfrealize.fps import shuffle_counts

    def shuffle_series_word(series, w):
        total = cf.Series.zero(1, series.max_degree + len(w))
        for u, cu in series.coeffs.items():
            total = cf.series_linear_combine(1, total, cu, cf.shuffle(u, w, 1))
        return total

    for _ in range(30):
        u, v, w = (
            tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 2))) for _ in range(3)
        )
        assert shuffle_counts(u, v) == shuffle_counts(v, u)
        assert shuffle_series_word(cf.shuffle(u, v, 1), w) == shuffle_series_word(
            cf.shuffle(v, w, 1), u
        )

    # Leibniz rule on 100 random polynomial pairs, exact
    for _ in range(100):
        n = rng.randint(1, 3)
        g = cf.PolyVectorField(tuple(rand_poly(rng, n, 2) for _ in range(n)))
        phi, psi = rand_poly(rng, n, 4), rand_poly(rng, n, 4)
        assert cf.lie_derivative(g, phi * psi) == phi * cf.lie_derivative(
            g, psi
        ) + psi * cf.lie_derivative(g, phi)

    elapsed = time.monotonic() - t0
    report("9", elapsed < 30.0, f"all algebraic identities exact, {elapsed:.1f}s (< 30s)")
