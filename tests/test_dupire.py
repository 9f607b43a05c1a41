import numpy as np
import pytest

from cfrealize import QSpec, make_grid, parse_model, sample_brownian
from cfrealize.dupire import (
    LinearFilterFunctional,
    MemorylessFunctional,
    RunningIntegralFunctional,
    causality_defect,
    default_bump,
    functional_ito_residual,
    hijab_decomposition_check,
    horizontal_derivative,
    memoryless_from_state_poly,
    second_vertical_derivative,
    stopped_values,
    vertical_derivative,
)
from cfrealize.paths import replicate_seed
from cfrealize.symdiff import MultiPoly, parse_polynomial


def P(text, n):
    return parse_polynomial(text, n)


def brownian(steps=256, horizon=0.25, seed=1, m=1):
    return sample_brownian(QSpec.identity(m), make_grid(horizon, steps), seed)


# registered functionals, one of each flavor
def w1(m=1):
    return MemorylessFunctional(P("x2", m + 1), m)  # vars: (t, x1)


def w1_squared(m=1):
    return MemorylessFunctional(P("x2^2", m + 1), m)


class TestStoppedPath:
    def test_constant_after_stop(self):
        path = brownian()
        stopped = stopped_values(path.values, 100)
        assert np.all(stopped[100:] == path.values[100])
        assert np.array_equal(stopped[:101], path.values[:101])


class TestHorizontalDerivative:
    def test_running_integral_recovers_integrand(self):
        path = brownian()
        f = RunningIntegralFunctional(1)
        j = 99
        got = horizontal_derivative(f, path, j)
        assert got == pytest.approx(path.values[j, 0], abs=1e-12)

    def test_memoryless_coordinate_is_flat(self):
        path = brownian()
        assert horizontal_derivative(w1(), path, 50) == 0.0

    def test_time_weighted_coordinate(self):
        path = brownian()
        f = MemorylessFunctional(P("x1*x2", 2), 1)  # t * w1(t)
        j = 77
        got = horizontal_derivative(f, path, j)
        assert got == pytest.approx(path.values[j, 0], abs=1e-12)

    def test_horizon_guard(self):
        path = brownian(steps=16)
        with pytest.raises(ValueError):
            horizontal_derivative(w1(), path, 16)


class TestVerticalDerivative:
    def test_coordinate_is_exactly_one(self):
        path = brownian()
        for scheme in ("central", "forward"):
            assert vertical_derivative(w1(), path, 31, 1, scheme=scheme) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_running_integral_is_exactly_zero(self):
        path = brownian()
        assert vertical_derivative(RunningIntegralFunctional(1), path, 31, 1) == 0.0

    def test_square_recovers_gradient(self):
        path = brownian()
        j = 31
        got = vertical_derivative(w1_squared(), path, j, 1, h=1e-4)
        assert got == pytest.approx(2 * path.values[j, 0], abs=1e-9)

    def test_one_sided_error_is_first_order(self):
        path = brownian()
        j = 40
        w = path.values[j, 0]
        errs = [
            abs(vertical_derivative(w1_squared(), path, j, 1, h=h, scheme="forward") - 2 * w)
            for h in (0.1, 0.05)
        ]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=1e-6)

    def test_central_is_second_order_on_cubic(self):
        cubic = MemorylessFunctional(P("x2^3", 2), 1)
        path = brownian()
        j = 40
        w = path.values[j, 0]
        errs = [
            abs(vertical_derivative(cubic, path, j, 1, h=h) - 3 * w * w)
            for h in (0.1, 0.05)
        ]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=1e-6)

    def test_second_derivative_square(self):
        path = brownian()
        assert second_vertical_derivative(w1_squared(), path, 31, 1, 1) == pytest.approx(2.0)

    def test_second_derivative_mixed(self):
        f = MemorylessFunctional(P("x2*x3", 3), 2)  # w1 * w2
        path = brownian(m=2)
        got = second_vertical_derivative(f, path, 31, 1, 2)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_filter_bump_sees_kernel_at_zero(self):
        f = LinearFilterFunctional(P("1 - x1", 1), 1)
        path = brownian(steps=512)
        got = vertical_derivative(f, path, 100, 1)
        dt = 0.25 / 512
        assert got == pytest.approx(1.0, abs=2 * dt)


class TestReplicateAxis:
    def test_values_and_bumps_per_replicate(self):
        batch = sample_brownian(QSpec.identity(2), make_grid(0.25, 256), 3, 5)
        grid = batch.grid
        functionals = [
            MemorylessFunctional(P("x1 + x2^2*x3", 3), 2),
            RunningIntegralFunctional(2),
            LinearFilterFunctional(P("1 - x1", 1), 1),
        ]
        h = default_bump(batch)
        assert h.shape == (5,)
        for f in functionals:
            for j in (0, 17, 256):
                value = f.value(grid, batch.values, j)
                first = vertical_derivative(f, batch, j, 1)
                second = second_vertical_derivative(f, batch, j, 1, 2)
                assert value.shape == first.shape == second.shape == (5,)
                for k in range(5):
                    single = batch.replicate(k)
                    assert h[k] == default_bump(single)
                    assert value[k] == pytest.approx(f.value(grid, single.values, j), abs=1e-12)
                    assert first[k] == pytest.approx(vertical_derivative(f, single, j, 1), abs=1e-12)
                    assert second[k] == pytest.approx(
                        second_vertical_derivative(f, single, j, 1, 2), abs=1e-9
                    )


class TestCausality:
    def test_all_registered_functionals_exactly_causal(self):
        path = brownian(m=2)
        functionals = [
            MemorylessFunctional(P("x1 + x2^2*x3", 3), 2),
            RunningIntegralFunctional(2),
            LinearFilterFunctional(P("1 - x1", 1), 1),
        ]
        for f in functionals:
            for j in (0, 17, 128):
                assert causality_defect(f, path, j, seed=3) == 0.0


class TestResiduals:
    def test_linear_functional_residual_at_rounding(self):
        rep = functional_ito_residual(
            w1(), QSpec.identity(1), make_grid(0.25, 256), 0.25, 20, 5
        )
        assert rep.rms <= 1e-10

    def test_quadratic_residual_decays(self):
        rms = []
        for steps in (128, 256, 512):
            rep = functional_ito_residual(
                w1_squared(), QSpec.identity(1), make_grid(0.25, steps), 0.25, 60, 6
            )
            rms.append(rep.rms)
        assert rms[0] / rms[1] >= 1.2
        assert rms[1] / rms[2] >= 1.2

    def test_quadratic_residual_matches_known_identity(self):
        # residual for w^2 under unit covariance is sum((dW)^2 - dt)
        grid = make_grid(0.25, 128)
        rep = functional_ito_residual(w1_squared(), QSpec.identity(1), grid, 0.25, 1, 7)
        path = sample_brownian(QSpec.identity(1), grid, replicate_seed(7, 0))
        dw = np.diff(path.values[:, 0])
        expected = np.sum(dw**2 - np.diff(grid))
        assert rep.rms == pytest.approx(abs(expected), rel=1e-9)

    def test_filter_residual_decays(self):
        f = LinearFilterFunctional(P("1 - x1", 1), 1)
        rms = []
        for steps in (128, 256):
            rep = functional_ito_residual(
                f, QSpec.identity(1), make_grid(0.25, steps), 0.25, 40, 8
            )
            rms.append(rep.rms)
        assert rms[0] / rms[1] >= 1.2

    def test_stratonovich_form_quadratic_telescopes(self):
        rep = functional_ito_residual(
            w1_squared(), QSpec.identity(1), make_grid(0.25, 256), 0.25, 20, 9, form="strat"
        )
        assert rep.rms <= 1e-12

    def test_bump_range_over_replicates(self):
        # The default bump scales with each replicate's amplitude; with
        # Q = 16 on [0, 1] the amplitudes exceed 1 and differ.
        q = QSpec.constant([[16.0]])
        grid = make_grid(1.0, 32)
        rep = functional_ito_residual(w1_squared(), q, grid, 1.0, 8, 21)
        bumps = [default_bump(sample_brownian(q, grid, replicate_seed(21, k))) for k in range(8)]
        assert rep.bump_min == min(bumps) and rep.bump_max == max(bumps)
        assert rep.bump_min < rep.bump_max
        assert rep.as_dict()["bump_max"] == rep.bump_max
        fixed = functional_ito_residual(w1_squared(), q, grid, 1.0, 8, 21, bump=1e-3)
        assert fixed.bump_min == fixed.bump_max == 1e-3

    def test_nonunit_covariance(self):
        rms = []
        for steps in (128, 256):
            rep = functional_ito_residual(
                w1_squared(), QSpec.constant([[2.0]]), make_grid(0.25, steps), 0.25, 40, 10
            )
            rms.append(rep.rms)
        assert rms[0] / rms[1] >= 1.2


class TestHijabDecomposition:
    def test_linear_model_exact_both_ways(self):
        model = parse_model("n = 1\nm = 1\nx0 = 2\ng0 = 3\ng1 = -1\nh = x1\n")
        rep = hijab_decomposition_check(model, make_grid(0.25, 128), 11, replicates=20)
        assert rep.strat_rms <= 1e-12
        assert rep.ito_rms <= 1e-12

    def test_quadratic_recovers_classical_identity(self):
        # Y = W^2 with unit diffusion: the corrected-drift pair reconstructs
        # exactly t + 2 * leftpoint(W dW) per path
        model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = 1\nh = x1^2\n")
        grid = make_grid(0.25, 256)
        rep = hijab_decomposition_check(model, grid, 12, replicates=1)
        path = sample_brownian(QSpec.identity(1), grid, replicate_seed(12, 0))
        w = path.values[:, 0]
        recon = 0.25 + 2 * np.sum(w[:-1] * np.diff(w))
        assert rep.ito_rms == pytest.approx(abs(recon - w[-1] ** 2), rel=1e-9)

    def test_refinement_decay_on_quadratic_model(self):
        model = parse_model("n = 1\nm = 1\nx0 = 1/2\ng0 = x1\ng1 = 1\nh = x1^2\n")
        rms = []
        for steps in (256, 512):
            rep = hijab_decomposition_check(model, make_grid(0.25, steps), 13, replicates=60)
            rms.append(rep.ito_rms)
        assert rms[0] / rms[1] >= 1.2

    def test_requires_single_noise_channel(self):
        model = parse_model(
            "n = 1\nm = 2\nx0 = 0\ng0 = 0\ng1 = 1\ng2 = 1\nh = x1\n"
        )
        with pytest.raises(ValueError):
            hijab_decomposition_check(model, make_grid(0.25, 16), 1)


class TestHelpers:
    def test_memoryless_from_state_poly(self):
        f = memoryless_from_state_poly(P("x1^2", 1), 1)
        path = brownian()
        assert f.value(path.grid, path.values, 10) == pytest.approx(path.values[10, 0] ** 2)
