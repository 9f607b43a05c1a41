from fractions import Fraction

import numpy as np
import pytest

from cfrealize import (
    QSpec,
    bilinear_coefficients,
    cf_coefficients,
    coefficient,
    make_grid,
    parse_model,
    sample_brownian,
    sample_diffusion_input,
    simulate_analytic,
)
from cfrealize.cli import main
from cfrealize.dupire import (
    CausalFunctional,
    MemorylessFunctional,
    default_bump,
    functional_ito_residual,
    hijab_decomposition_check,
    horizontal_derivative,
    second_vertical_derivative,
    vertical_derivative,
)
from cfrealize.paths import SamplePath, replicate_seed
from cfrealize.symdiff import (
    MultiPoly,
    PolyVectorField,
    ito_correction,
    lie_derivative,
    linear_embedding,
    parse_polynomial,
    poly_eval,
)

from helpers import LinearFilterFunctional, RunningIntegralFunctional, causality_defect


def P(text, n):
    return parse_polynomial(text, n)


def brownian(steps=256, horizon=0.25, seed=1, m=1):
    return sample_brownian(QSpec.identity(m), make_grid(horizon, steps), seed)


def study(steps, replicates, seed, q=None, horizon=0.25):
    """A batched driving path, as a study samples it."""
    return sample_brownian(q or QSpec.identity(1), make_grid(horizon, steps), seed, replicates)


# registered functionals, one of each flavor
def w1(m=1):
    return MemorylessFunctional(P("x2", m + 1), m)  # vars: (t, x1)


def w1_squared(m=1):
    return MemorylessFunctional(P("x2^2", m + 1), m)


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


# Reference derivatives that copy the path, as the module did before it bumped
# and stopped rows in place: the in-place forms must agree to the last bit.
def copy_stopped(values, j):
    out = values.copy()
    out[..., j + 1 :, :] = values[..., j : j + 1, :]
    return out


def copy_bumped(values, j, channel, h):
    out = values[..., : j + 1, :].copy()
    out[..., j, channel - 1] += h
    return out


def ref_horizontal(f, path, j):
    stopped = copy_stopped(path.values[..., : j + 2, :], j)
    num = f.value(path.grid, stopped, j + 1) - f.value(path.grid, path.values, j)
    return num / (float(path.grid[j + 1]) - float(path.grid[j]))


def ref_vertical(f, path, j, channel, h, scheme="central"):
    up = f.value(path.grid, copy_bumped(path.values, j, channel, h), j)
    if scheme == "forward":
        return (up - f.value(path.grid, path.values, j)) / h
    dn = f.value(path.grid, copy_bumped(path.values, j, channel, -h), j)
    return (up - dn) / (2.0 * h)


def ref_second(f, path, j, ci, cj, h):
    g, vals = path.grid, path.values
    if ci == cj:
        up = f.value(g, copy_bumped(vals, j, ci, h), j)
        dn = f.value(g, copy_bumped(vals, j, ci, -h), j)
        return (up - 2.0 * f.value(g, vals, j) + dn) / (h * h)
    pp = f.value(g, copy_bumped(copy_bumped(vals, j, cj, h), j, ci, h), j)
    pm = f.value(g, copy_bumped(copy_bumped(vals, j, cj, -h), j, ci, h), j)
    mp = f.value(g, copy_bumped(copy_bumped(vals, j, cj, h), j, ci, -h), j)
    mm = f.value(g, copy_bumped(copy_bumped(vals, j, cj, -h), j, ci, -h), j)
    return (pp - pm - mp + mm) / (4.0 * h * h)


def ref_residual_rms(f, path, t, form, bump):
    q, grid, m, replicates = path.q, path.grid, path.m, len(path.values)
    jt = path.index_of(t)
    h = np.broadcast_to(bump if bump is not None else default_bump(path), (replicates,))
    vals = path.values
    lhs = f.value(grid, vals, jt) - f.value(grid, vals, 0)
    horiz = 0.0
    for j in range(jt):
        stopped = copy_stopped(vals[:, : j + 2], j)
        horiz += f.value(grid, stopped, j + 1) - f.value(grid, vals, j)
    if form == "ito":
        stoch = 0.0
        qv = 0.0
        for j in range(jt):
            dw = vals[:, j + 1] - vals[:, j]
            dt = grid[j + 1] - grid[j]
            qmat = q.at(grid[j])
            for i in range(1, m + 1):
                stoch += ref_vertical(f, path, j, i, h) * dw[:, i - 1]
                for k in range(1, m + 1):
                    qv += ref_second(f, path, j, i, k, h) * qmat[k - 1, i - 1] * dt
        rhs = horiz + stoch + 0.5 * qv
    else:
        deriv = np.empty((replicates, jt + 1, m))
        for j in range(jt + 1):
            for i in range(1, m + 1):
                deriv[:, j, i - 1] = ref_vertical(f, path, j, i, h)
        dw = np.diff(vals[:, : jt + 1], axis=1)
        rhs = horiz + np.sum(0.5 * (deriv[:, :-1] + deriv[:, 1:]) * dw, axis=(1, 2))
    return float(np.sqrt(np.mean((lhs - rhs) ** 2)))


def registered(m):
    if m == 1:
        return [
            w1_squared(),
            MemorylessFunctional(P("x1*x2^3 - x2", 2), 1),
            RunningIntegralFunctional(1),
            LinearFilterFunctional(P("1 - x1", 1), 1),
        ]
    return [
        MemorylessFunctional(P("x1 + x2^2*x3", 3), 2),
        RunningIntegralFunctional(2),
        LinearFilterFunctional(P("1 - 2*x1 + x1^2", 1), 2),
    ]


def bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestInPlaceMatchesCopies:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("replicates", [None, 3])
    @pytest.mark.parametrize("bump", ["scalar", "per_replicate"])
    def test_derivatives_bit_equal(self, m, replicates, bump):
        path = sample_brownian(QSpec.identity(m), make_grid(0.25, 40), 17, replicates)
        h = 1e-3 if bump == "scalar" else default_bump(path)
        for f in registered(m):
            for j in (0, 1, 13, 39):
                assert bit_equal(horizontal_derivative(f, path, j), ref_horizontal(f, path, j))
                for ci in range(1, m + 1):
                    for scheme in ("central", "forward"):
                        got = vertical_derivative(f, path, j, ci, h, scheme)
                        assert bit_equal(got, ref_vertical(f, path, j, ci, h, scheme))
                    for cj in range(1, m + 1):
                        got = second_vertical_derivative(f, path, j, ci, cj, h)
                        assert bit_equal(got, ref_second(f, path, j, ci, cj, h))

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("form", ["ito", "strat"])
    @pytest.mark.parametrize("bump", [None, 1e-3])
    def test_residual_bit_equal(self, m, form, bump):
        q = QSpec.identity(m) if m == 1 else QSpec.constant([[2.0, 0.5], [0.5, 1.0]])
        path = study(24, 4, 31, q, horizon=0.5)
        before = path.values.copy()
        for f in registered(m):
            got = functional_ito_residual(f, path, 0.375, form=form, bump=bump)
            assert bit_equal(path.values, before)
            assert got.rms == ref_residual_rms(f, path, 0.375, form, bump)


class RaiseOnCall(CausalFunctional):
    """Delegates to f, but raises on its n-th evaluation (never for n <= 0;
    -n then counts the evaluations)."""

    def __init__(self, f, n):
        self.f, self.n = f, n

    def value(self, grid, values, j):
        self.n -= 1
        if self.n == 0:
            raise RuntimeError("evaluation failed")
        return self.f.value(grid, values, j)


class TestPathRestored:
    DERIVATIVES = {
        "horizontal": lambda f, path: horizontal_derivative(f, path, 9),
        "forward": lambda f, path: vertical_derivative(f, path, 9, 2, scheme="forward"),
        "central": lambda f, path: vertical_derivative(f, path, 9, 2),
        "second_diagonal": lambda f, path: second_vertical_derivative(f, path, 9, 1, 1),
        "second_mixed": lambda f, path: second_vertical_derivative(f, path, 9, 1, 2),
    }

    @pytest.mark.parametrize("replicates", [None, 3])
    @pytest.mark.parametrize("name", sorted(DERIVATIVES))
    def test_values_bit_identical_after_call(self, replicates, name):
        path = sample_brownian(QSpec.identity(2), make_grid(0.25, 16), 5, replicates)
        self.check_restored(self.DERIVATIVES[name], path)

    @pytest.mark.parametrize("form", ["ito", "strat"])
    def test_residual_restores_values_after_each_raise(self, form):
        path = sample_brownian(QSpec.identity(2), make_grid(0.25, 16), 5, 3)
        self.check_restored(lambda f, p: functional_ito_residual(f, p, 0.0625, form=form), path)

    @staticmethod
    def check_restored(derivative, path):
        """``derivative`` leaves ``path.values`` bit-identical when it
        returns, and when f raises at any one of its evaluations."""
        before = path.values.copy()
        counted = RaiseOnCall(MemorylessFunctional(P("x1 + x2^2*x3", 3), 2), 0)
        derivative(counted, path)
        assert bit_equal(path.values, before)
        evaluations = -counted.n
        assert evaluations >= 2
        for n in range(1, evaluations + 1):
            with pytest.raises(RuntimeError):
                derivative(RaiseOnCall(counted.f, n), path)
            assert bit_equal(path.values, before)

    def test_read_only_values_are_copied_not_written(self):
        path = brownian(steps=16, m=2)
        frozen = path.values.copy()
        frozen.flags.writeable = False
        held = SamplePath(path.grid, frozen)
        f = MemorylessFunctional(P("x1 + x2^2*x3", 3), 2)
        assert bit_equal(vertical_derivative(f, held, 9, 2), vertical_derivative(f, path, 9, 2))
        assert bit_equal(frozen, path.values)


class TestEvaluationCounts:
    """A cell evaluates f once per distinct path: stopped, unbumped, +-h on
    each channel and, in the Ito form, the four corners of each pair of
    channels, 2 + 2m + 2m(m - 1) in all.  The Stratonovich form needs
    2 + 2m, and 2m more at t for its last trapezoid."""

    @pytest.mark.parametrize("m, ito, strat", [(1, 4, 4), (2, 10, 6)])
    def test_residual_evaluations_per_cell(self, m, ito, strat):
        path = sample_brownian(QSpec.identity(m), make_grid(0.25, 16), 5, 3)
        for form, per_cell, at_t in (("ito", ito, 0), ("strat", strat, 2 * m)):
            counted = RaiseOnCall(registered(m)[0], 0)
            functional_ito_residual(counted, path, 0.25, form=form)
            assert -counted.n == 2 + 16 * per_cell + at_t  # 2 for F(t) - F(0)

    def test_ito_check_evaluations(self, monkeypatch, capsys):
        calls = []
        value = MemorylessFunctional.value
        monkeypatch.setattr(MemorylessFunctional, "value", lambda *a: calls.append(1) or value(*a))
        main(["ito-check", "--grid", "8", "--reps", "400", "--seed", "1"])
        # 8 cells of the linear functional and 8 + 16 + 32 of the quadratic,
        # 4 evaluations each, and 2 per residual for F(t) - F(0)
        assert len(calls) == 4 * 64 + 2 * 4


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
        rep = functional_ito_residual(w1(), study(256, 20, 5), 0.25)
        assert rep.rms <= 1e-10

    def test_quadratic_residual_decays(self):
        rms = []
        for steps in (128, 256, 512):
            rep = functional_ito_residual(w1_squared(), study(steps, 60, 6), 0.25)
            rms.append(rep.rms)
        assert rms[0] / rms[1] >= 1.2
        assert rms[1] / rms[2] >= 1.2

    def test_quadratic_residual_matches_known_identity(self):
        # residual for w^2 under unit covariance is sum((dW)^2 - dt)
        grid = make_grid(0.25, 128)
        rep = functional_ito_residual(w1_squared(), study(128, 1, 7), 0.25)
        path = sample_brownian(QSpec.identity(1), grid, replicate_seed(7, 0))
        dw = np.diff(path.values[:, 0])
        expected = np.sum(dw**2 - np.diff(grid))
        assert rep.rms == pytest.approx(abs(expected), rel=1e-9)

    def test_filter_residual_decays(self):
        f = LinearFilterFunctional(P("1 - x1", 1), 1)
        rms = []
        for steps in (128, 256):
            rep = functional_ito_residual(f, study(steps, 40, 8), 0.25)
            rms.append(rep.rms)
        assert rms[0] / rms[1] >= 1.2

    def test_stratonovich_form_quadratic_telescopes(self):
        rep = functional_ito_residual(w1_squared(), study(256, 20, 9), 0.25, form="strat")
        assert rep.rms <= 1e-12

    def test_bump_range_over_replicates(self):
        # The default bump scales with each replicate's amplitude; with
        # Q = 16 on [0, 1] the amplitudes exceed 1 and differ.
        q = QSpec.constant([[16.0]])
        grid = make_grid(1.0, 32)
        path = study(32, 8, 21, q, horizon=1.0)
        rep = functional_ito_residual(w1_squared(), path, 1.0)
        bumps = [default_bump(sample_brownian(q, grid, replicate_seed(21, k))) for k in range(8)]
        assert rep.bump_min == min(bumps) and rep.bump_max == max(bumps)
        assert rep.bump_min < rep.bump_max
        assert rep.as_dict()["bump_max"] == rep.bump_max
        fixed = functional_ito_residual(w1_squared(), path, 1.0, bump=1e-3)
        assert fixed.bump_min == fixed.bump_max == 1e-3

    def test_nonunit_covariance(self):
        rms = []
        for steps in (128, 256):
            rep = functional_ito_residual(
                w1_squared(), study(steps, 40, 10, QSpec.constant([[2.0]])), 0.25
            )
            rms.append(rep.rms)
        assert rms[0] / rms[1] >= 1.2

    def test_ornstein_uhlenbeck_input(self):
        # A semimartingale input with drift: dX = -X dt + dB.  The identity
        # holds along X with d[X] = dt; the linear functional stays exact.
        drift = PolyVectorField((parse_polynomial("-x1", 1),))

        def ou(steps):
            return sample_diffusion_input(drift, [[1.0]], make_grid(0.25, steps), 14, 200)

        assert functional_ito_residual(w1(), ou(64), 0.25).rms <= 1e-10
        rms = [functional_ito_residual(w1_squared(), ou(j), 0.25).rms for j in (64, 128, 256)]
        assert rms[0] / rms[1] >= 1.2
        assert rms[1] / rms[2] >= 1.2

    def test_rejects_unbatched_path(self):
        with pytest.raises(ValueError, match="batched"):
            functional_ito_residual(w1_squared(), brownian(steps=16), 0.25)

    def test_rejects_path_without_covariance_rate(self):
        path = study(16, 2, 1)
        with pytest.raises(ValueError, match="covariance rate"):
            functional_ito_residual(w1_squared(), SamplePath(path.grid, path.values), 0.25)


class TestHijabDecomposition:
    def test_linear_model_exact_both_ways(self):
        model = parse_model("n = 1\nm = 1\nx0 = 2\ng0 = 3\ng1 = -1\nh = x1\n")
        rep = hijab_decomposition_check(model, study(128, 20, 11))
        assert rep.strat_rms <= 1e-12
        assert rep.ito_rms <= 1e-12

    def test_quadratic_recovers_classical_identity(self):
        # Y = W^2 with unit diffusion: the corrected-drift pair reconstructs
        # exactly t + 2 * leftpoint(W dW) per path
        model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = 1\nh = x1^2\n")
        grid = make_grid(0.25, 256)
        rep = hijab_decomposition_check(model, study(256, 1, 12))
        path = sample_brownian(QSpec.identity(1), grid, replicate_seed(12, 0))
        w = path.values[:, 0]
        recon = 0.25 + 2 * np.sum(w[:-1] * np.diff(w))
        assert rep.ito_rms == pytest.approx(abs(recon - w[-1] ** 2), rel=1e-9)

    def test_refinement_decay_on_quadratic_model(self):
        model = parse_model("n = 1\nm = 1\nx0 = 1/2\ng0 = x1\ng1 = 1\nh = x1^2\n")
        rms = []
        for steps in (256, 512):
            rep = hijab_decomposition_check(model, study(steps, 60, 13))
            rms.append(rep.ito_rms)
        assert rms[0] / rms[1] >= 1.2

    def test_rejects_unbatched_path(self):
        model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = 1\nh = x1^2\n")
        with pytest.raises(ValueError, match="batched"):
            hijab_decomposition_check(model, brownian(steps=16))

    def test_correlated_channels_match_closed_form(self):
        # X = W with Q = [[1, rho], [rho, 1]] and Y = W1 * W2: the Ito drift
        # of Y is rho, so the Ito pair reconstructs rho * T + sum(W2 dW1 +
        # W1 dW2) per path
        rho, horizon, steps = 0.5, 0.25, 128
        model = parse_model("n = 2\nm = 2\nx0 = 0, 0\ng0 = 0, 0\ng1 = 1, 0\ng2 = 0, 1\nh = x1*x2\n")
        path = study(steps, 30, 15, QSpec.constant([[1.0, rho], [rho, 1.0]]))
        rep = hijab_decomposition_check(model, path)
        w1, w2 = path.values[..., 0], path.values[..., 1]
        recon = rho * horizon + np.sum(
            w2[:, :-1] * np.diff(w1, axis=-1) + w1[:, :-1] * np.diff(w2, axis=-1), axis=-1
        )
        closed = np.sqrt(np.mean((recon - w1[:, -1] * w2[:, -1]) ** 2))
        assert rep.ito_rms == pytest.approx(closed, rel=1e-12)
        assert rep.strat_rms <= 1e-12  # trapezoid sums of a bilinear Y telescope

    def test_piecewise_covariance_matches_closed_form(self):
        # Y = W^2 with Q = 1 before t = 1/8 and 4 after: the Ito drift of Y is
        # Q(t), so the Ito pair reconstructs sum Q(t_j) dt_j + 2 sum W dW
        model = parse_model("n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = 1\nh = x1^2\n")
        q = QSpec([(0.0, [[1.0]]), (0.125, [[4.0]])])
        path = study(256, 20, 16, q)
        rep = hijab_decomposition_check(model, path)
        grid, w = path.grid, path.values[..., 0]
        qdt = np.sum(np.where(grid[:-1] < 0.125, 1.0, 4.0) * np.diff(grid))
        recon = qdt + 2 * np.sum(w[:, :-1] * np.diff(w, axis=-1), axis=-1)
        closed = np.sqrt(np.mean((recon - w[:, -1] ** 2) ** 2))
        assert rep.ito_rms == pytest.approx(closed, rel=1e-9)

    def test_two_channel_refinement_decay(self):
        # dX = -X/2 dt + X/2 o dW1 + X/3 o dW2, Y = X
        model = parse_model(
            "n = 1\nm = 2\nx0 = 1\ng0 = -1/2*x1\ng1 = 1/2*x1\ng2 = 1/3*x1\nh = x1\n"
        )
        rms = [
            hijab_decomposition_check(model, study(steps, 100, 17, QSpec.identity(2))).ito_rms
            for steps in (256, 512, 1024)
        ]
        assert rms[0] / rms[1] >= 1.2
        assert rms[1] / rms[2] >= 1.2

    def test_path_without_covariance_rate_reads_identity(self):
        model = parse_model("n = 1\nm = 1\nx0 = 1/2\ng0 = x1\ng1 = 1\nh = x1^2\n")
        path = study(64, 5, 18)
        bare = SamplePath(path.grid, path.values)
        assert hijab_decomposition_check(model, bare) == hijab_decomposition_check(model, path)


class ModelOutput(CausalFunctional):
    """The output y(t_j) of a model simulated (Heun) along the path prefix
    up to t_j."""

    name = "model_output"

    def __init__(self, model):
        self.model = model

    def value(self, grid, values, j):
        return simulate_analytic(self.model, SamplePath(grid[: j + 1], values[..., : j + 1, :]))[..., -1]


class TestDupireDerivativesGiveSeries:
    """The Chen-Fliess coefficients of words of degree <= 2 read off Dupire
    derivatives of a model's output at the start, on cells of length 1e-6
    with bumps of 1e-4, against ``cf_coefficients``.  The expansion is
    y = sum_w c(w) I_w with the first letter outermost, so a bump of channel
    k in the first cell and of channel i in the second has mixed derivative
    I_(i,k) = 1: c(i, k), the later letter first."""

    # The two-channel analytic model of the golden study digests.
    MODEL = (
        "n = 2\nm = 2\nx0 = 1/2, -1/4\ng0 = -x1 + 1/4*x2^2, -x2\ng1 = 1/2, 1/3*x1\n"
        "g2 = 1/2*x2, 1/4 - 1/5*x1*x2\nh = x1^2 + x1*x2 - x2\n"
    )
    BUMP = 1e-4
    # The drift moves every quotient by O(1e-6); the errors seen were 4e-8 to 9e-7.
    TOL = 5e-6

    @pytest.fixture(scope="class")
    def setting(self):
        model = parse_model(self.MODEL)
        series = cf_coefficients(model, 2)
        path = SamplePath(np.array([0.0, 1e-6, 2e-6]), np.zeros((3, 2)))
        return ModelOutput(model), path, lambda w: float(coefficient(series, w))

    def test_time_letter_from_horizontal_derivative(self, setting):
        f, path, c = setting
        assert horizontal_derivative(f, path, 0) == pytest.approx(c((0,)), abs=self.TOL)

    @pytest.mark.parametrize("i", [1, 2])
    def test_first_order_from_vertical_derivative(self, setting, i):
        f, path, c = setting
        assert vertical_derivative(f, path, 1, i, h=self.BUMP) == pytest.approx(c((i,)), abs=self.TOL)

    @pytest.mark.parametrize("i", [1, 2])
    def test_doubled_letter_from_second_vertical_derivative(self, setting, i):
        f, path, c = setting
        got = second_vertical_derivative(f, path, 1, i, i, h=self.BUMP)
        assert got == pytest.approx(c((i, i)), abs=self.TOL)

    @pytest.mark.parametrize("i, k", [(1, 2), (2, 1)])
    def test_letter_order_from_bumps_in_successive_cells(self, setting, i, k):
        f, path, c = setting
        h = self.BUMP
        # Replicates (+, +), (+, -), (-, +), (-, -): channel k moves by the
        # first sign in cell 0, channel i by the second in cell 1.
        values = np.zeros((4, 3, 2))
        for r, (sk, si) in enumerate([(1, 1), (1, -1), (-1, 1), (-1, -1)]):
            values[r, 1:, k - 1] += sk * h
            values[r, 2:, i - 1] += si * h
        pp, pm, mp, mm = f.value(path.grid, values, 2)
        assert (pp - pm - mp + mm) / (4 * h * h) == pytest.approx(c((i, k)), abs=self.TOL)
        assert c((1, 2)) != c((2, 1))  # the order is visible on this model

    @pytest.mark.parametrize("q", [[[1, 0], [0, 1]], [[1, Fraction(1, 2)], [Fraction(1, 2), 2]]])
    def test_ito_form_gives_ito_drift(self, setting, q):
        # D F + 1/2 sum Q_ik d_i d_k F at the start is the Ito drift of the
        # output, L_{g0} h plus the Ito correction of h under Q.
        f, path, _ = setting
        model = f.model
        got = horizontal_derivative(f, path, 0) + 0.5 * sum(
            float(q[i - 1][k - 1]) * second_vertical_derivative(f, path, 1, i, k, h=self.BUMP)
            for i in (1, 2)
            for k in (1, 2)
        )
        firsts = [lie_derivative(g, model.readout) for g in model.fields[1:]]
        drift = lie_derivative(model.fields[0], model.readout) + ito_correction(model, q, firsts)
        assert got == pytest.approx(float(poly_eval(drift, model.x0)), abs=self.TOL)

    # The one-channel models of the benchmark's pathwise workload: the
    # quadratic analytic model, and the two-state bilinear model through its
    # linear embedding against the bilinear recursion.
    QUADRATIC = "n = 1\nm = 1\nx0 = 1/2\ng0 = x1\ng1 = 1\nh = x1^2\n"
    BILINEAR = "n = 2\nm = 1\nx0 = 1, 1/2\nA0 = -1, 1/2, 0, -1/2\nA1 = 1/2, 0, 1/4, -1/4\nC = 1, -1\n"

    @pytest.mark.parametrize(
        "text, embed, coefficients",
        [(QUADRATIC, None, cf_coefficients), (BILINEAR, linear_embedding, bilinear_coefficients)],
        ids=["quadratic", "bilinear_embedding"],
    )
    def test_one_channel_models(self, text, embed, coefficients):
        model = parse_model(text)
        series = coefficients(model, 2)
        if embed:
            model = embed(model)
        f = ModelOutput(model)
        path = SamplePath(np.array([0.0, 1e-6, 2e-6]), np.zeros((3, 1)))
        got = {
            (0,): horizontal_derivative(f, path, 0),
            (1,): vertical_derivative(f, path, 1, 1, h=self.BUMP),
            (1, 1): second_vertical_derivative(f, path, 1, 1, 1, h=self.BUMP),
        }
        for word, value in got.items():
            assert value == pytest.approx(float(coefficient(series, word)), abs=self.TOL)

    def time_letter_words(self, f, m, i):
        """c(0, 0), c(i, 0) and c(0, i) read on two cells (one path, m channels).

        Cell 0 then cell 1: a horizontal step and a second one give
        c(0, 0); a horizontal step and a bump give c(i, 0); a bump and a
        horizontal step give c(0, i).  Each quotient Q(delta) is off by
        O(delta), 2e-4 to 5e-4 on cells of 1e-4, and 2 Q(delta) - Q(2 delta)
        cancels that term: the errors seen were 4e-8 to 1.2e-7 on the
        quadratic m = 1 model and 7e-10 to 6.4e-8 on the m = 2 one."""
        h = self.BUMP

        def quotients(delta):
            path = SamplePath(np.arange(3) * delta, np.zeros((3, m)))

            def moved(sign):  # channel i bumped by sign * h in cell 0
                values = np.zeros((3, m))
                values[1:, i - 1] = sign * h
                return SamplePath(path.grid, values)

            return {
                (0, 0): (horizontal_derivative(f, path, 1) - horizontal_derivative(f, path, 0)) / delta,
                (i, 0): (vertical_derivative(f, path, 2, i, h=h) - vertical_derivative(f, path, 1, i, h=h))
                / delta,
                (0, i): (horizontal_derivative(f, moved(1), 1) - horizontal_derivative(f, moved(-1), 1))
                / (2.0 * h),
            }

        near, far = quotients(1e-4), quotients(2e-4)
        return {word: 2.0 * near[word] - far[word] for word in near}

    def test_time_letter_words_of_degree_two(self):
        model = parse_model(self.QUADRATIC)
        series = cf_coefficients(model, 2)
        for word, value in self.time_letter_words(ModelOutput(model), 1, 1).items():
            assert value == pytest.approx(float(coefficient(series, word)), abs=self.TOL)
        assert (coefficient(series, (1, 0)), coefficient(series, (0, 1))) == (1, 2)  # the order is visible

    @pytest.mark.parametrize("i", [1, 2])
    def test_two_channel_time_letter_words_of_degree_two(self, setting, i):
        f, _, c = setting
        for word, value in self.time_letter_words(f, 2, i).items():
            assert value == pytest.approx(c(word), abs=self.TOL)
        assert c((i, 0)) != c((0, i))  # the order is visible
