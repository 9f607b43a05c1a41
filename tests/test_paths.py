import math
import warnings
from itertools import chain

import numpy as np
import pytest

from cfrealize import (
    DegreeError,
    DivergenceError,
    PositivityError,
    QSpec,
    SamplePath,
    cf_coefficients,
    cf_trajectory,
    coefficient,
    hankel_build,
    iterated_stratonovich,
    make_grid,
    normalize_filter,
    parse_model,
    poly_eval,
    rank_exact,
    sample_brownian,
    sample_diffusion_input,
    shuffle,
    simulate_analytic,
    simulate_bilinear,
    simulate_states,
    to_float,
    words_up_to,
    zakai_build,
)
from cfrealize.paths import replicate_seed, zakai_readout
from cfrealize.symdiff import (
    MultiPoly,
    PolyVectorField,
    bilinear_coefficients,
    compile_float,
    lie_derivative,
    linear_embedding,
    parse_polynomial,
)


# g0 overflows to inf - inf at x0 (x1^16*x1^16*x1^16 is x1^48).
OVERFLOW_MODEL = (
    "n = 2\nm = 1\nx0 = 10000000, 10000000\n"
    "g0 = x1^16*x1^16*x1^16 - x2^16*x2^16*x2^16, 0\ng1 = 0, 0\nh = x1\n"
)


def sin_path(steps, horizon=1.0):
    """Deterministic smooth driving path W1(t) = sin t sampled on the grid."""
    grid = make_grid(horizon, steps)
    return SamplePath(grid, np.sin(grid)[:, None])


class TestQSpec:
    def test_rejects_asymmetric_and_indefinite(self):
        with pytest.raises(ValueError):
            QSpec.constant([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            QSpec.constant([[0.0]])

    def test_piecewise_lookup(self):
        q = QSpec([(0.0, [[1.0]]), (0.5, [[4.0]])])
        assert q.at(0.25)[0, 0] == 1.0
        assert q.at(0.5)[0, 0] == 4.0
        assert q.at(0.9)[0, 0] == 4.0
        assert q.piece_index(np.array([0.0, 0.49, 0.5, 2.0])).tolist() == [0, 0, 1, 1]
        assert [t for t, _ in q.pieces] == [0.0, 0.5]

    def test_near_symmetric_q_is_held_as_the_sampler_reads_it(self):
        # np.allclose accepts this Q; the Ito conversion needs exact symmetry,
        # and cholesky reads only the lower triangle
        q = np.array([[1.0, 0.1], [0.1 + 1e-11, 1.0]])
        held = QSpec.constant(q).at(0.0)
        assert np.array_equal(held, held.T) and np.array_equal(np.tril(held), np.tril(q))
        np.testing.assert_array_equal(np.linalg.cholesky(held), np.linalg.cholesky(q))
        model = parse_model(
            "n = 2\nm = 2\nx0 = 1, -1/3\ng0 = x2, -x1 + 1/2*x1*x2\n"
            "g1 = 1/2*x1, 1\ng2 = 1/4*x2^2, 1/3*x1\nh = x1^2 - x2\n"
        )
        path = sample_brownian(QSpec.constant(q), make_grid(0.25, 16), 3)
        assert np.all(np.isfinite(simulate_states(model, path, method="euler_ito")))
        sym = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(QSpec.constant(sym).at(0.0), sym)

    def test_piece_times_validated(self):
        with pytest.raises(ValueError):
            QSpec([(0.1, [[1.0]])])


class TestSamplePath:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_refused_without_warning(self, bad):
        # Before any increment is taken: inf on consecutive rows would be
        # inf - inf there, and numpy's warning would precede the error.
        grid = make_grid(1.0, 8)
        values = np.zeros((9, 1))
        values[5:] = bad
        batch = np.zeros((3, 9, 2))
        batch[2, 3, 1] = batch[1, 7, 0] = batch[1, 8, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^path value not finite at row 5$"):
                SamplePath(grid, values)
            with pytest.raises(ValueError, match="^path value not finite at replicate 1, row 7$"):
                SamplePath(grid, batch)
        values[5:] = 0.0
        assert SamplePath(grid, values).increments().shape == (8, 2)


class TestSampleBrownian:
    def test_increment_covariance_oracle(self):
        # Monte Carlo moment check: per-increment sample covariance within
        # three standard errors of dt * I.
        q = QSpec.identity(2)
        grid = make_grid(0.1, 2)
        reps = 100_000
        incs = np.diff(sample_brownian(q, grid, 123, reps).values, axis=1)
        dt = 0.05
        flat = incs.reshape(-1, 2)
        cov = flat.T @ flat / flat.shape[0]
        se_diag = dt * math.sqrt(2.0 / flat.shape[0])
        se_off = dt / math.sqrt(flat.shape[0])
        assert abs(cov[0, 0] - dt) <= 3 * se_diag
        assert abs(cov[1, 1] - dt) <= 3 * se_diag
        assert abs(cov[0, 1]) <= 3 * se_off

    def test_degenerate_grid(self):
        path = sample_brownian(QSpec.identity(1), np.array([0.0]), 7)
        assert path.values.shape == (1, 1)
        assert path.values[0, 0] == 0.0

    def test_replicate_streams_match_single_paths(self):
        # Replicate k of a batched study is byte for byte the single path
        # sampled with seed replicate_seed(s, k), for constant and piecewise Q.
        grid = make_grid(0.25, 64)
        q_const = QSpec.constant([[2.0, 0.3], [0.3, 1.0]])
        q_piece = QSpec([(0.0, [[2.0, 0.3], [0.3, 1.0]]), (0.1, [[1.0, -0.2], [-0.2, 3.0]])])
        for q in (q_const, q_piece):
            batch = sample_brownian(q, grid, 1234, 6)
            assert batch.values.shape == (6, 65, 2)
            for k in range(6):
                single = sample_brownian(q, grid, replicate_seed(1234, k))
                assert batch.values[k].tobytes() == single.values.tobytes()
        # without a replicate count the study seed drives one generator
        path = sample_brownian(QSpec.identity(1), grid, 7)
        z = np.random.default_rng(7).standard_normal(64)
        assert np.array_equal(path.values[1:, 0], np.cumsum(z * np.sqrt(np.diff(grid))))

    def test_seed_determinism(self):
        q = QSpec.identity(2)
        grid = make_grid(0.25, 64)
        a = sample_brownian(q, grid, 99)
        b = sample_brownian(q, grid, 99)
        assert np.array_equal(a.values, b.values)
        c = sample_brownian(q, grid, 100)
        assert not np.array_equal(a.values, c.values)


def euler_diffusion_reference(drift, sigma, grid, seed, replicates=None):
    """The Euler-Maruyama loop of dW' = drift(W') dt + sigma dB that
    sample_diffusion_input ran on its own draws before it used the model
    integrator: values (..., J+1, m)."""
    sigma = np.asarray(sigma, dtype=float)
    m = sigma.shape[0]
    dt = np.diff(grid)
    seeds = [seed] if replicates is None else [replicate_seed(seed, k) for k in range(replicates)]
    draws = np.array([np.random.default_rng(k).standard_normal((dt.size, m)) for k in seeds])
    noise = draws * np.sqrt(dt)[:, None] @ sigma.T
    b = compile_float(drift.components)
    values = np.zeros(noise.shape[:-2] + (grid.size, m))
    for j in range(dt.size):
        x = values[..., j, :]
        values[..., j + 1, :] = x + b(x) * dt[j] + noise[..., j, :]
    return values[0] if replicates is None else values


class TestSampleDiffusionInput:
    @pytest.mark.parametrize(
        "components, sigma, replicates",
        [
            (["-x1 + 1/2*x1^2"], [[0.8]], None),
            (["-x1 + 1/2*x1^2"], [[0.8]], 4),
            (["-x1 + x2^2", "x1 - 1/2*x2"], [[1.0, 0.2], [0.1, 0.7]], 5),
        ],
    )
    def test_matches_euler_reference(self, components, sigma, replicates):
        m = len(components)
        drift = PolyVectorField(tuple(parse_polynomial(c, m) for c in components))
        grid = make_grid(0.5, 128)
        path = sample_diffusion_input(drift, sigma, grid, 41, replicates)
        want = euler_diffusion_reference(drift, sigma, grid, 41, replicates)
        assert path.values.shape == want.shape
        np.testing.assert_allclose(path.values, want, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(path.q.at(0.0), np.asarray(sigma) @ np.asarray(sigma).T)

    def test_exploding_drift_trips_divergence_guard(self):
        # dW' = (1 + W'^2) dt + dB leaves every bound before t = pi/2
        drift = PolyVectorField((parse_polynomial("1 + x1^2", 1),))
        with pytest.raises(DivergenceError):
            sample_diffusion_input(drift, [[1.0]], make_grid(4.0, 400), 3, 2)

    def test_zero_drift_reduces_to_brownian_statistics(self):
        drift = PolyVectorField((MultiPoly.zero(1),))
        grid = make_grid(0.2, 4)
        reps = 20_000
        path = sample_diffusion_input(drift, [[1.0]], grid, 5, reps)
        incs = np.diff(path.values[..., 0], axis=1).ravel()
        dt = 0.05
        assert abs(incs.var() - dt) <= 3 * dt * math.sqrt(2.0 / incs.size)
        assert abs(incs.mean()) <= 3 * math.sqrt(dt / incs.size)

    def test_ou_stationary_variance(self):
        drift = PolyVectorField((parse_polynomial("-x1", 1),))
        grid = make_grid(4.0, 400)
        terminals = sample_diffusion_input(drift, [[1.0]], grid, 31, 3000).values[:, -1, 0]
        var = float(np.var(terminals))
        assert abs(var - 0.5) <= 0.05 * 0.5 + 3 * 0.5 * math.sqrt(2.0 / 3000)

    def test_replicate_streams_match_single_paths(self):
        drift = PolyVectorField((parse_polynomial("-x1 + x2^2", 2), parse_polynomial("x1 - 1/2*x2", 2)))
        sigma = [[1.0, 0.2], [0.1, 0.7]]
        grid = make_grid(0.5, 128)
        batch = sample_diffusion_input(drift, sigma, grid, 77, 5)
        assert batch.values.shape == (5, 129, 2)
        for k in range(5):
            single = sample_diffusion_input(drift, sigma, grid, replicate_seed(77, k))
            assert batch.values[k].tobytes() == single.values.tobytes()

    def test_determinism_and_q_attached(self):
        drift = PolyVectorField((MultiPoly.zero(1),))
        grid = make_grid(0.25, 16)
        a = sample_diffusion_input(drift, [[2.0]], grid, 3)
        b = sample_diffusion_input(drift, [[2.0]], grid, 3)
        assert np.array_equal(a.values, b.values)
        assert a.q.at(0.0)[0, 0] == pytest.approx(4.0)

    def test_rejects_singular_sigma(self):
        drift = PolyVectorField((MultiPoly.zero(2), MultiPoly.zero(2)))
        with pytest.raises(ValueError):
            sample_diffusion_input(drift, [[1.0, 0.0], [1.0, 0.0]], make_grid(1.0, 4), 0)

    @pytest.mark.parametrize("scale", [1e-5, 1e5])
    def test_invertibility_does_not_depend_on_scale(self, scale):
        # det(1e-5 * I3) = 1e-15: an absolute threshold on det refuses it.
        drift = PolyVectorField((MultiPoly.zero(3),) * 3)
        path = sample_diffusion_input(drift, scale * np.eye(3), make_grid(1.0, 4), 0)
        np.testing.assert_allclose(path.q.at(0.0), scale**2 * np.eye(3))

    @pytest.mark.parametrize(
        "sigma",
        [
            np.zeros((3, 3)),
            np.diag([1.0, 1.0, 0.0]),
            1e5 * np.array([[1.0, 2, 3], [2, 4, 6], [0, 1, 1]]),
        ],
        ids=["zero", "singular", "rank_deficient_1e5"],
    )
    def test_rejects_singular_sigma_at_any_scale(self, sigma):
        drift = PolyVectorField((MultiPoly.zero(3),) * 3)
        with pytest.raises(ValueError, match="sigma must be invertible"):
            sample_diffusion_input(drift, sigma, make_grid(1.0, 4), 0)


class TestIteratedIntegrals:
    def test_time_words_exact(self):
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 64), 11)
        table = iterated_stratonovich(path, 4)
        t = path.grid
        assert np.allclose(table[(0,)], t, atol=1e-15)
        assert np.allclose(table[(0, 0)], t**2 / 2, atol=1e-15)
        assert np.max(np.abs(table[(0, 0, 0, 0)] - t**4 / 24)) <= (0.25 / 64) ** 2

    def test_repeated_noise_letter_chain_rule(self):
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 256), 12)
        table = iterated_stratonovich(path, 3)
        w = path.values[:, 0]
        assert np.max(np.abs(table[(1, 1)] - w**2 / 2)) <= 1e-12
        # (1,1,1) is not exact: each cell adds dW^3/12 to I_(1,1,1) - W^3/6
        dw = np.diff(w)
        local = np.concatenate([[0.0], np.cumsum(dw**3 / 12)])
        defect = table[(1, 1, 1)] - w**3 / 6
        assert np.max(np.abs(local)) > 1e-6
        assert np.max(np.abs(defect - local)) <= 1e-13

    @pytest.mark.parametrize("m", [1, 2])
    def test_rows_match_per_word_recursion(self, m):
        # Reference: the per-word recursion the level build replaced, one
        # trajectory per word from its tail's midpoints and the increments
        # of its first letter.
        path = sample_brownian(QSpec.identity(m), make_grid(0.25, 256), 21)
        incs = path.increments()
        ref = {(): np.ones(path.grid.size)}
        prev = dict(ref)
        for _ in range(4):
            nxt = {}
            for tail, vals in prev.items():
                mid = 0.5 * (vals[:-1] + vals[1:])
                for i in range(m + 1):
                    traj = np.empty(path.grid.size)
                    traj[0] = 0.0
                    np.cumsum(mid * incs[:, i], out=traj[1:])
                    nxt[(i,) + tail] = traj
            ref.update(nxt)
            prev = nxt
        table = iterated_stratonovich(path, 4)
        assert [level.shape for level in table.levels] == [
            ((m + 1) ** k, path.grid.size) for k in range(5)
        ]
        stacked = np.array([ref[w] for w in words_up_to(m, 4)])
        assert np.concatenate(table.levels).tobytes() == stacked.tobytes()
        assert all(table[w].tobytes() == traj.tobytes() for w, traj in ref.items())
        with pytest.raises(DegreeError):
            table[(0,) * 5]

    def test_empty_word_is_one(self):
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 8), 1)
        table = iterated_stratonovich(path, 0)
        assert np.all(table[()] == 1.0)

    def test_shuffle_identity_smooth_path_second_order(self):
        # defect of I_u I_v = sum of shuffle integrals decays at quadrature
        # order on a smooth deterministic path
        defects = []
        for steps in (64, 128):
            table = iterated_stratonovich(sin_path(steps), 3)
            u, v = (0, 1), (0,)
            prod = table[u] * table[v]
            mix = np.zeros_like(prod)
            for w, c in shuffle(u, v, 1).coeffs.items():
                mix += float(c) * table[w]
            defects.append(np.max(np.abs(prod - mix)))
        assert defects[0] / defects[1] >= 3.0

    def test_shuffle_identity_brownian_rms_decays(self):
        # degree-3 shuffle on Brownian paths: trapezoid defect shrinks under
        # refinement (factor >= 1.2 per halving over 200 replicates)
        u, v = (1,), (1, 1)
        sh = shuffle(u, v, 1)
        rms = []
        for steps in (256, 512):
            defects = []
            for k in range(200):
                path = sample_brownian(QSpec.identity(1), make_grid(0.25, steps), replicate_seed(77, k))
                table = iterated_stratonovich(path, 3)
                prod = table[u][-1] * table[v][-1]
                mix = sum(float(c) * table[w][-1] for w, c in sh.coeffs.items())
                defects.append(prod - mix)
            rms.append(float(np.sqrt(np.mean(np.square(defects)))))
        assert rms[0] / rms[1] >= 1.2


class TestCfEvaluate:
    def test_pure_drift_series(self):
        model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh = x1\n")
        s = to_float(cf_coefficients(model, 3))
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 32), 2)
        table = iterated_stratonovich(path, 3)
        assert cf_trajectory(s, table)[-1, path.index_of(0.25)] == pytest.approx(0.25, abs=1e-14)

    def test_single_noise_letter(self):
        from cfrealize import Series

        s = to_float(Series(1, 1, {(1,): 1}))
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 32), 3)
        table = iterated_stratonovich(path, 1)
        assert cf_trajectory(s, table)[-1, path.index_of(0.25)] == pytest.approx(path.values[-1, 0])

    def test_squared_noise(self):
        model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = 1\nh = x1^2\n")
        s = to_float(cf_coefficients(model, 2))
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 512), 4)
        table = iterated_stratonovich(path, 2)
        w = path.values[-1, 0]
        assert cf_trajectory(s, table)[-1, path.index_of(0.25)] == pytest.approx(w * w, abs=1e-10)

    def test_rows_match_per_degree_walks(self):
        # the walk per truncation degree that one running-sum walk replaced
        def walk_to_degree(s, table, degree):
            out = np.zeros(table.grid.size)
            rows = chain.from_iterable(table.levels)
            for c, row in zip(chain.from_iterable(s.levels[: degree + 1]), rows):
                if c:
                    out += float(c) * row
            return out

        models = [
            ("n = 1\nm = 1\nx0 = 1/2\ng0 = x1\ng1 = 1\nh = x1^2\n", 6),
            ("n = 2\nm = 2\nx0 = 1, -1/3\ng0 = x2, -x1 + 1/2*x1*x2\n"
             "g1 = 1/2*x1, 1\ng2 = 1/4*x2^2, 1/3*x1\nh = x1^2 - x2\n", 4),
        ]
        for text, degree in models:
            model = parse_model(text)
            s = to_float(cf_coefficients(model, degree))
            assert not all(chain.from_iterable(s.levels))  # zero terms are skipped
            path = sample_brownian(QSpec.identity(model.m), make_grid(0.25, 64), 22)
            table = iterated_stratonovich(path, degree + 1)
            sums = cf_trajectory(s, table)
            assert sums.shape == (degree + 1, 65)
            for d in range(degree + 1):
                assert sums[d].tobytes() == walk_to_degree(s, table, d).tobytes()

    def test_degree_mismatch(self):
        model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 1\ng1 = 0\nh = x1\n")
        s = to_float(cf_coefficients(model, 3))
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 8), 2)
        with pytest.raises(DegreeError):
            cf_trajectory(s, iterated_stratonovich(path, 2))[-1, path.index_of(0.25)]


class TestSimulateAnalytic:
    def test_deterministic_rotation_matches_cosine(self):
        model = parse_model("n = 2\nm = 1\nx0 = 1, 0\ng0 = x2, -x1\ng1 = 0, 0\nh = x1\n")
        errs = []
        for steps in (128, 256):
            path = sample_brownian(QSpec.identity(1), make_grid(1.0, steps), 5)
            y = simulate_analytic(model, path)
            errs.append(np.max(np.abs(y - np.cos(path.grid))))
        assert errs[0] <= 2e-4
        assert errs[0] / errs[1] >= 3.0  # second order on the ODE limit

    def test_identity_noise_returns_driving_path(self):
        model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = 1\nh = x1\n")
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 64), 6)
        y = simulate_analytic(model, path)
        assert np.allclose(y, path.values[:, 0], atol=1e-14)

    def test_heun_vs_euler_ito_refinement(self):
        model = parse_model("n = 1\nm = 1\nx0 = 1\ng0 = 0\ng1 = x1\nh = x1\n")
        diffs = []
        for steps in (512, 1024):
            path = sample_brownian(QSpec.identity(1), make_grid(0.25, steps), 8, 200)
            yh = simulate_analytic(model, path)[:, -1]
            ye = simulate_analytic(model, path, method="euler_ito")[:, -1]
            terminal = yh - ye
            diffs.append(float(np.sqrt(np.mean(np.square(terminal)))))
        assert diffs[0] / diffs[1] >= 1.2

    def test_euler_ito_follows_piecewise_covariance(self):
        # Q switches from 1 to 4 at t = 1/8, so the Ito drift x1/2 becomes
        # 2*x1.  Over 8 studies of 50 replicates the RMS gap to Heun was
        # 0.025-0.067 with per-piece drifts and 0.22-0.40 with Q(0) alone.
        model = parse_model("n = 1\nm = 1\nx0 = 1\ng0 = 0\ng1 = x1\nh = x1\n")
        q = QSpec([(0.0, [[1.0]]), (0.125, [[4.0]])])
        path = sample_brownian(q, make_grid(0.25, 512), 13, 50)
        gaps = simulate_analytic(model, path)[:, -1] - simulate_analytic(
            model, path, method="euler_ito"
        )[:, -1]
        assert float(np.sqrt(np.mean(np.square(gaps)))) < 0.12

    def test_replicate_axis_matches_single_paths(self):
        model = parse_model(
            "n = 2\nm = 2\nx0 = 1, -1/3\ng0 = x2, -x1 + 1/2*x1*x2\n"
            "g1 = 1/2*x1, 1\ng2 = 1/4*x2^2, 1/3*x1\nh = x1^2 - x2\n"
        )
        q = QSpec([(0.0, [[1.0, 0.2], [0.2, 2.0]]), (0.1, [[3.0, 0.0], [0.0, 0.5]])])
        batch = sample_brownian(q, make_grid(0.25, 256), 9, 5)
        for method in ("heun", "euler_ito"):
            y = simulate_analytic(model, batch, method=method)
            states = simulate_states(model, batch, method=method)
            assert y.shape == (5, 257) and states.shape == (5, 257, 2)
            for k in range(5):
                yk = simulate_analytic(model, batch.replicate(k), method=method)
                sk = simulate_states(model, batch.replicate(k), method=method)
                np.testing.assert_allclose(y[k], yk, rtol=1e-13, atol=1e-15)
                np.testing.assert_allclose(states[k], sk, rtol=1e-13, atol=1e-15)

    def test_matches_serial_heun_reference(self):
        # a plain per-component Heun loop through poly_eval as the oracle
        model = parse_model(
            "n = 2\nm = 2\nx0 = 1, -1/3\ng0 = x2, -x1 + 1/2*x1*x2\n"
            "g1 = 1/2*x1, 1\ng2 = 1/4*x2^2, 1/3*x1\nh = x1^2 - x2\n"
        )
        path = sample_brownian(QSpec.identity(2), make_grid(0.25, 128), 21)

        def field(x):
            return [[poly_eval(c, x) for c in g.components] for g in model.fields]

        def step(f, dxi):
            return [sum(float(dxi[i]) * f[i][k] for i in range(3)) for k in range(2)]

        x = [float(v) for v in model.x0]
        want = [poly_eval(model.readout, x)]
        for dxi in path.increments():
            drift = step(field(x), dxi)
            corrected = step(field([a + b for a, b in zip(x, drift)]), dxi)
            x = [a + 0.5 * (b + c) for a, b, c in zip(x, drift, corrected)]
            want.append(poly_eval(model.readout, x))
        np.testing.assert_allclose(simulate_analytic(model, path), want, rtol=1e-12, atol=1e-14)

    def test_divergence_guard(self):
        model = parse_model("n = 1\nm = 1\nx0 = 10\ng0 = x1^2\ng1 = 0\nh = x1\n")
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 512), 9)
        with pytest.raises(DivergenceError):
            simulate_analytic(model, path)

    def test_non_finite_state_trips_guard(self):
        # x1^48 - x2^48 at x = 1e7 is inf - inf: the first state is NaN,
        # which no comparison with the guard finds past it
        model = parse_model(OVERFLOW_MODEL)
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 8), 1, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="not finite or past .* at step 1$"):
                simulate_analytic(model, path)

    def test_no_replicates_simulate_to_empty_states(self):
        model = parse_model("n = 2\nm = 1\nx0 = 1, 2\ng0 = x2, x1\ng1 = 1, 0\nh = x1\n")
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 16), 3, replicates=0)
        assert simulate_states(model, path).shape == (0, 17, 2)
        assert simulate_analytic(model, path).shape == (0, 17)

    def test_two_channel_geometric_matches_closed_form(self):
        # dX = -X/2 dt + X/2 o dW1 + X/3 o dW2 has X = exp(-t/2 + W1/2 + W2/3).
        # The fields commute, so Heun's terminal error is first order: the
        # RMS ratios were 2.06 and 2.17, and the RMS at 1024 cells 1.36e-4.
        model = parse_model(
            "n = 1\nm = 2\nx0 = 1\ng0 = -1/2*x1\ng1 = 1/2*x1\ng2 = 1/3*x1\nh = x1\n"
        )
        fine = sample_brownian(QSpec.identity(2), make_grid(1.0, 1024), 17, 200)
        w1, w2 = fine.values[:, -1, 0], fine.values[:, -1, 1]
        exact = np.exp(-0.5 + w1 / 2 + w2 / 3)
        rms = []
        for every in (4, 2, 1):  # the same paths on 256, 512 and 1024 cells
            path = SamplePath(fine.grid[::every], fine.values[:, ::every], fine.q)
            err = simulate_analytic(model, path)[:, -1] - exact
            rms.append(float(np.sqrt(np.mean(np.square(err)))))
        assert all(a / b >= 1.5 for a, b in zip(rms, rms[1:])), rms
        assert rms[-1] < 2e-4, rms


class TestSimulateBilinear:
    def test_frozen_state(self, rng):
        from conftest import rand_bilinear
        from fractions import Fraction

        model = rand_bilinear(rng, 2, 1)
        zero = tuple(tuple(Fraction(0) for _ in range(2)) for _ in range(2))
        model = type(model)(2, 1, model.x0, (zero, zero), model.c)
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 32), 10)
        y = simulate_bilinear(model, path)
        expected = float(sum(c * x for c, x in zip(model.c, model.x0)))
        assert np.allclose(y, expected)

    def test_stratonovich_exponential(self):
        from cfrealize import BilinearModel
        from fractions import Fraction

        model = BilinearModel(
            1, 1, (Fraction(1),), (((Fraction(0),),), ((Fraction(1),),)), (Fraction(1),)
        )
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 2048), 11)
        y = simulate_bilinear(model, path)
        w = path.values[:, 0]
        assert np.max(np.abs(y - np.exp(w))) <= 5e-3

    def test_matches_linear_embedding_exactly(self, rng):
        from conftest import rand_bilinear

        model = rand_bilinear(rng, 2, 1)
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 128), 12)
        direct = simulate_bilinear(model, path)
        embedded = simulate_analytic(linear_embedding(model), path)
        assert np.max(np.abs(direct - embedded)) <= 1e-12


class TestOrderingConsistency:
    def test_two_step_expansion_reconstructs_output(self):
        # degree <= 2 coefficients plus the simulated degree-2 remainder
        # reproduce the output pathwise, pinning the word/integral ordering
        model = parse_model("n = 1\nm = 1\nx0 = 1/2\ng0 = x1\ng1 = 1\nh = x1^2\n")
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 2048), 13)
        y = simulate_analytic(model, path)
        states = simulate_states(model, path)
        s = cf_coefficients(model, 1)

        phis = {}
        for i1 in range(2):
            for i2 in range(2):
                p = model.readout
                p = lie_derivative(model.fields[i1], p)
                p = lie_derivative(model.fields[i2], p)
                phis[(i1, i2)] = p

        from cfrealize.symdiff import compile_float

        incs = path.increments()  # (J, 2) with dt column 0
        total = np.full(path.grid.size, float(coefficient(s, ())))
        for i1 in range(2):
            total += float(coefficient(s, (i1,))) * np.concatenate(
                [[0.0], np.cumsum(incs[:, i1])]
            )
        # remainder: words (i1, i2) with the integrand S_{(i1,i2)}Y simulated
        for (i1, i2), p in phis.items():
            ev = compile_float(p)
            z = np.array([ev(x) for x in states])
            inner = np.concatenate(
                [[0.0], np.cumsum(0.5 * (z[:-1] + z[1:]) * incs[:, i2])]
            )
            total += np.concatenate(
                [[0.0], np.cumsum(0.5 * (inner[:-1] + inner[1:]) * incs[:, i1])]
            )
        assert np.max(np.abs(total - y)) <= 5e-3  # O(dt) agreement

    def test_truncation_error_broadly_decreasing(self):
        model = parse_model("n = 1\nm = 1\nx0 = 1/2\ng0 = x1\ng1 = 1\nh = x1^2\n")
        s = to_float(cf_coefficients(model, 6))
        meds = {n: [] for n in (2, 4, 6)}
        paths = sample_brownian(QSpec.identity(1), make_grid(0.25, 1024), 14, 50)
        ys = simulate_analytic(model, paths)[:, -1]
        for k, y in enumerate(ys):
            table = iterated_stratonovich(paths.replicate(k), 6)
            sums = cf_trajectory(s, table)
            for n in meds:
                meds[n].append(abs(sums[n, -1] - y))
        m2, m4, m6 = (float(np.median(meds[n])) for n in (2, 4, 6))
        assert m2 >= m4 >= m6

    def test_expansion_along_semimartingale_input(self):
        # A Stratonovich Chen-Fliess expansion holds pathwise along any
        # continuous semimartingale, here dW' = (1 - 2 W') dt + 0.8 dB.  On
        # 1024 cells the Heun discretization floor (~2e-5) is reached by
        # degree 6 on some seeds; 4096 cells keep it below the degree-6 term.
        model = parse_model("n = 1\nm = 1\nx0 = 1/2\ng0 = x1\ng1 = 1\nh = x1^2\n")
        s = to_float(cf_coefficients(model, 6))
        drift = PolyVectorField((parse_polynomial("1 - 2*x1", 1),))
        path = sample_diffusion_input(drift, [[0.8]], make_grid(0.25, 4096), 16, 20)
        ys = simulate_analytic(model, path)[:, -1]
        errs = [
            np.abs(cf_trajectory(s, iterated_stratonovich(path.replicate(k), 6))[:, -1] - y)
            for k, y in enumerate(ys)
        ]
        medians = np.median(errs, axis=0)  # one per truncation degree 0..6
        assert np.all(medians[1:] < medians[:-1])
        assert medians[6] < 1e-4 * medians[0]


class TestZakai:
    def test_conservation_with_zero_observation(self):
        model = zakai_build([[-1, 1], [1, -1]], [0, 0], [1, 1], ["1/2", "1/2"])
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 256), 15)
        y = simulate_bilinear(model, path)
        assert np.max(np.abs(y - 1.0)) <= 1e-12

    def test_positivity_and_rank_bound(self):
        model = zakai_build([[-1, 1], [1, -1]], [0, 1], [1, 1], ["1/2", "1/2"])
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 1024), 16, 20)
        sigma_phi, sigma_one = zakai_readout(model, path)
        assert sigma_one.shape == (20, 1025)
        assert np.all(sigma_one > 0)
        s = bilinear_coefficients(model, 6)
        assert rank_exact(hankel_build(s, 3, 3)).rank <= 2

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            zakai_build([[-1, 2], [1, -1]], [0, 1], [1, 1], ["1/2", "1/2"])
        with pytest.raises(ValueError):
            zakai_build([[-1, 1], [-1, 1]], [0, 1], [1, 1], ["1/2", "1/2"])
        with pytest.raises(ValueError):
            zakai_build([[-1, 1], [1, -1]], [0, 1], [1, 1], ["1/2", "1/4"])


class TestNormalizeFilter:
    def test_unit_test_function_is_identically_one(self):
        sigma = np.array([0.5, 0.7, 1.4])
        assert np.all(normalize_filter(sigma, sigma) == 1.0)

    def test_indicator_stays_in_unit_interval(self):
        model = zakai_build([[-1, 1], [1, -1]], [0, 1], [0, 1], ["1/2", "1/2"])
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 1024), 17)
        sigma_phi, sigma_one = zakai_readout(model, path)
        pi = normalize_filter(sigma_phi, sigma_one)
        assert np.all(pi >= 0.0) and np.all(pi <= 1.0)

    def test_symmetric_chain_stays_at_half(self):
        model = zakai_build([[-1, 1], [1, -1]], [0, 0], [0, 1], ["1/2", "1/2"])
        path = sample_brownian(QSpec.identity(1), make_grid(0.25, 256), 18)
        sigma_phi, sigma_one = zakai_readout(model, path)
        pi = normalize_filter(sigma_phi, sigma_one)
        assert np.max(np.abs(pi - 0.5)) <= 1e-12

    def test_nonpositive_normalizer_rejected(self):
        with pytest.raises(PositivityError):
            normalize_filter(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        batch = np.ones((3, 5))
        batch[2, 4] = -1.0
        with pytest.raises(PositivityError, match=r"index 4 of replicate \(2,\)"):
            normalize_filter(batch, batch)


class TestDeterminism:
    def test_identical_seed_identical_output(self):
        model = parse_model("n = 1\nm = 1\nx0 = 1/2\ng0 = x1\ng1 = 1\nh = x1^2\n")
        grid = make_grid(0.25, 256)
        out = []
        for _ in range(2):
            path = sample_brownian(QSpec.identity(1), grid, 19)
            y = simulate_analytic(model, path)
            table = iterated_stratonovich(path, 3)
            out.append((path.values.tobytes(), y.tobytes(), table[(0, 1)].tobytes()))
        assert out[0] == out[1]
