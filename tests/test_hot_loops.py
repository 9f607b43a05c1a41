"""Byte-identity oracles for the pathwise hot loops.

The state integrator, the float polynomial evaluator and the replicate CSV
writer were rewritten for speed; the references below fix their arithmetic
in Python floats, so the new code must give the same bytes, not merely
close floats.  ``reference_evaluator`` sums each output's own terms in
sorted monomial order, a monomial being its variables multiplied left to
right.  ``reference_states`` steps each replicate in Python floats: every
cell contracts its increments into the fields' monomial coefficients, then
affine fields in at most ``AFFINE_MAX_DIM`` dimensions take the scheme's
exact per-cell map and every other field the polynomial kernel, in the
same order of operations as ``simulate_states``.  The earlier integrator,
one ``@`` per Heun stage on a power-table evaluator, stays as
``reference_loop_states``, the oracle of both steppers' values within a
rounding bound.  The CSV reference is a row-by-row join, which the files
must match however many workers write them.  The memory tests hold the
stepper's peak flat in the number of monomials and an exact span's answer
to a zero vector free of full-length copies.
"""

import os
import random
import warnings
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from cfrealize import QSpec, make_grid, parse_model, sample_brownian, simulate_states
from cfrealize.cli import _write_replicates
from cfrealize.errors import DivergenceError
from cfrealize.exactla import RowSpan
from cfrealize.paths import (
    AFFINE_MAX_DIM,
    DIVERGENCE_GUARD,
    GUARD_BLOCK,
    SamplePath,
    exact_rates,
    zakai_build,
)
from cfrealize.symdiff import MultiPoly, compile_float, linear_embedding, stratonovich_to_ito_drift

from conftest import assert_no_child, count_forks, rand_analytic, rand_bilinear, rand_poly, traced_peak
from helpers import total_degree


def ordered_sum(terms):
    """The terms added left to right from the first (a 0.0 start would turn -0.0 into 0.0)."""
    terms = iter(terms)
    total = next(terms)
    for t in terms:
        total = total + t
    return total


def ordered_product(factors):
    """The factors multiplied left to right from the first."""
    factors = iter(factors)
    total = next(factors)
    for f in factors:
        total = total * f
    return total


def monomial(point, e):
    """The monomial with exponents e at a point: its variables left to right, repeats included."""
    factors = [xi for xi, a in zip(point, e) for _ in range(a)]
    return ordered_product(factors) if factors else 1.0


def reference_evaluator(polys):
    """Each output at each point in Python floats: its own terms c * monomial
    in sorted monomial order, added left to right from the first (0.0 for
    the zero polynomial)."""
    single = isinstance(polys, MultiPoly)
    polys = [polys] if single else list(polys)

    def value(p, point):
        terms = [float(c) * monomial(point, e) for e, c in sorted(p.terms.items())]
        return ordered_sum(terms) if terms else 0.0

    def ev(x):
        x = np.asarray(x, dtype=float)
        points = x.reshape(prod(x.shape[:-1]), x.shape[-1]).tolist()
        out = np.array([[value(p, point) for p in polys] for point in points])
        out = out.reshape(x.shape[:-1] + (len(polys),))
        return out[..., 0] if single else out

    return ev


def power_table_evaluator(polys):
    """prod(x ** E) @ C: the sorted monomials' power table times their
    coefficient matrix, the evaluator of ``reference_loop_states``."""
    monomials = sorted({e for p in polys for e in p.terms})
    row = {e: t for t, e in enumerate(monomials)}
    coef = np.zeros((len(monomials), len(polys)))
    for k, p in enumerate(polys):
        for e, c in p.terms.items():
            coef[row[e], k] = float(c)
    expo = np.array(monomials, dtype=float).reshape(len(monomials), polys[0].num_vars)
    return lambda x: np.multiply.reduce(x[..., None, :] ** expo, axis=-1) @ coef


def reference_fields(model, path, method):
    """F_0..F_m of each piece of the path's covariance, and the piece of each cell."""
    if method == "heun":
        return [model.fields], np.zeros(path.steps, dtype=int)
    rates, piece = exact_rates(path, model.m)
    return [(stratonovich_to_ito_drift(model, r), *model.fields[1:]) for r in rates], piece


def takes_map(model, path, method):
    """Whether ``simulate_states`` steps this model by the affine map."""
    fields, _ = reference_fields(model, path, method)
    degrees = [total_degree(c) for fs in fields for g in fs for c in g.components]
    return model.n <= AFFINE_MAX_DIM and max(degrees) <= 1


def reference_loop_states(model, path, method, guard=DIVERGENCE_GUARD):
    """Heun or Euler-Ito through a ``step`` closure, one ``@`` per stage."""
    fields, piece = reference_fields(model, path, method)
    evals = [power_table_evaluator([c for g in fs for c in g.components]) for fs in fields]
    incs = path.increments()
    shape = incs.shape[:-2] + (model.m + 1, model.n)
    x = np.empty(shape[:-2] + (model.n,))
    x[...] = [float(v) for v in model.x0]
    states = np.empty(shape[:-2] + (path.grid.size, model.n))
    states[..., 0, :] = x

    def step(f, x, dxi):
        return (dxi[..., None, :] @ f(x).reshape(shape))[..., 0, :]

    for j in range(path.steps):
        f = evals[piece[j]]
        dxi = incs[..., j, :]
        drift = step(f, x, dxi)
        if method == "heun":
            drift = 0.5 * (drift + step(f, x + drift, dxi))
        x = x + drift
        states[..., j + 1, :] = x
        if np.any(np.abs(x) > guard):
            raise DivergenceError(f"step {j + 1}")
    return states


def reference_table(fields, n):
    """The monomials 1, x_1..x_n, then the others of the fields in sorted
    order; and per piece and field the coefficient of each monomial in each
    component, [p][i][t][k]."""
    base = [tuple(int(i == l) for i in range(n)) for l in range(-1, n)]
    others = {e for fs in fields for g in fs for c in g.components for e in c.terms} - set(base)
    monomials = base + sorted(others)
    coef = [
        [[[float(c.terms.get(e, 0)) for c in g.components] for e in monomials] for g in fs]
        for fs in fields
    ]
    return monomials, coef


def map_step(cc, x, heun):
    """One cell of affine fields from C[t][k], the coefficients of 1, x_1..x_n:
    B[k][l] = C[1 + l][k] and c[k] = C[0][k]; Heun M = (B + 0.5 * B B) + I and
    v = c + 0.5 * B c, Euler-Ito M = B + I and v = c; x' = (sum_l M[k][l] x_l) + v."""
    n = len(x)
    b = [[cc[1 + l][k] for l in range(n)] for k in range(n)]
    mx, v = b, cc[0]
    if heun:
        mx = [
            [b[k][l] + 0.5 * ordered_sum(b[k][p] * b[p][l] for p in range(n)) for l in range(n)]
            for k in range(n)
        ]
        v = [v[k] + 0.5 * ordered_sum(b[k][l] * v[l] for l in range(n)) for k in range(n)]
    for k in range(n):
        mx[k][k] = mx[k][k] + 1.0
    return [ordered_sum(mx[k][l] * x[l] for l in range(n)) + v[k] for k in range(n)]


def kernel_step(cc, x, heun, monomials):
    """One cell of the polynomial kernel from C[t][k]: D(y) = sum_t mono_t(y) C[t],
    Heun x + (D(x) + D(x + D(x))) * 0.5, Euler-Ito x + D(x)."""

    def drift(y):
        mono = [monomial(y, e) for e in monomials]
        return [ordered_sum(m * ct[k] for m, ct in zip(mono, cc)) for k in range(len(y))]

    d = drift(x)
    if heun:
        d = [(a + b) * 0.5 for a, b in zip(d, drift([xk + dk for xk, dk in zip(x, d)]))]
    return [xk + dk for xk, dk in zip(x, d)]


def reference_states(model, path, method, guard=DIVERGENCE_GUARD):
    """Each replicate stepped in Python floats: per cell the increments
    contracted into C[t][k] = sum_i dxi_i coef_i[t][k], then the affine map
    or the polynomial kernel, whichever ``simulate_states`` takes.  Every
    sum runs left to right over its index, as ``simulate_states`` adds."""
    fields, piece = reference_fields(model, path, method)
    monomials, table = reference_table(fields, model.n)
    heun, affine = method == "heun", takes_map(model, path, method)
    incs = path.increments()
    cells = incs.reshape(prod(incs.shape[:-2]), path.steps, model.m + 1)
    states = np.empty((len(cells), path.grid.size, model.n))
    for r, dxis in enumerate(cells.tolist()):
        x = [float(v) for v in model.x0]
        states[r, 0] = x
        for j, dxi in enumerate(dxis):
            coef = table[piece[j]]
            cc = [
                [ordered_sum(d * ci[t][k] for d, ci in zip(dxi, coef)) for k in range(model.n)]
                for t in range(len(monomials))
            ]
            x = map_step(cc, x, heun) if affine else kernel_step(cc, x, heun, monomials)
            states[r, j + 1] = x
            if any(abs(xk) > guard for xk in x):
                raise DivergenceError(f"step {j + 1}")
    return states.reshape(incs.shape[:-2] + states.shape[1:])


def reference_divergence(model, path, method):
    """The message of a guard checked after every step: the first step
    whose state is not finite or past the guard, read off the unguarded
    reference states (None when there is none)."""
    with np.errstate(all="ignore"):
        states = reference_states(model, path, method, guard=np.inf)
    for j in range(1, path.grid.size):
        if not abs(states[..., j, :]).max(initial=0.0) <= DIVERGENCE_GUARD:
            return f"state not finite or past divergence guard {DIVERGENCE_GUARD:g} at step {j}"
    return None


def divergence(model, path, method):
    """The DivergenceError message of ``simulate_states`` (None when it runs through)."""
    try:
        simulate_states(model, path, method)
    except DivergenceError as err:
        return str(err)
    return None


def reference_csv(grid, columns):
    cols = [grid.tolist(), *(v.tolist() for v in columns.values())]
    rows = (",".join(map(repr, row)) for row in zip(*cols))
    return "\n".join([",".join(["t", *columns]), *rows]) + "\n"


def piecewise_q(m):
    first = np.eye(m) if m == 1 else [[1.0, 0.3], [0.3, 2.0]]
    return QSpec([(0.0, first), (0.05, 4.0 * np.eye(m))])


class TestIntegratorBytes:
    def test_random_models_match_reference_bytes(self):
        rng = random.Random(1707)
        grid = make_grid(0.125, 32)
        compared = 0
        for k in range(40):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            model = rand_analytic(rng, n, m, field_deg=rng.randint(1, 3))
            for replicates in (None, 3):
                for method, q in (
                    ("heun", QSpec.identity(m)),
                    ("euler_ito", QSpec.identity(m)),
                    ("euler_ito", piecewise_q(m)),
                ):
                    path = sample_brownian(q, grid, 100 + k, replicates)
                    try:
                        want = reference_states(model, path, method)
                    except DivergenceError:
                        with pytest.raises(DivergenceError):
                            simulate_states(model, path, method)
                        continue
                    got = simulate_states(model, path, method)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (k, n, m, replicates, method)
                    h, h_ref = compile_float(model.readout), reference_evaluator(model.readout)
                    assert h(got).tobytes() == h_ref(want).tobytes()
                    compared += 1
        assert compared >= 170  # 180 of 240; the rest diverge in both

    def test_evaluator_matches_reference_bytes(self):
        rng = random.Random(1708)
        gen = np.random.default_rng(1708)
        for _ in range(100):
            n = rng.randint(1, 3)
            polys = [rand_poly(rng, n, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
            polys[0] = polys[0] + MultiPoly(n, {(1,) * n: 3})  # every factor in one term
            x = gen.standard_normal((4, 5, n)) * 3
            for arg in (polys, polys[0]):
                assert compile_float(arg)(x).tobytes() == reference_evaluator(arg)(x).tobytes()

    def test_evaluator_in_zero_variables(self):
        polys = [MultiPoly.const(0, 3), MultiPoly.const(0, -0.5), MultiPoly.zero(0)]
        for x in (np.empty(0), np.empty((4, 0))):
            got, want = compile_float(polys)(x), reference_evaluator(polys)(x)
            assert got.shape == x.shape[:-1] + (3,)
            assert got.tobytes() == want.tobytes()
            single = compile_float(polys[0])(x)
            assert single.tobytes() == reference_evaluator(polys[0])(x).tobytes()


# The bilinear model of the pathwise_mc benchmark workload.
PATHWISE_BILINEAR = (
    "type = bilinear\nn = 2\nm = 1\nx0 = 1, 1/2\nA0 = -1, 1/2, 0, -1/2\nA1 = 1/2, 0, 1/4, -1/4\nC = 1, -1\n"
)


def zakai_embedding():
    """The linear embedding of the filter model demo-zakai simulates."""
    return linear_embedding(zakai_build([[-1, 1], [1, -1]], [0, 1], [0, 1], ["1/2", "1/2"]))


def worst_loop_gap(rng, models, field_deg, grid, seed):
    """The largest |x - x_loop| / max(1, |x_loop|) of ``simulate_states``
    against the ``@`` loop over random models of the given field degree,
    under Heun, Euler-Ito and piecewise Q, and the runs compared (a run
    that diverges in both is skipped)."""
    worst, compared = 0.0, 0
    for k in range(models):
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        model = rand_analytic(rng, n, m, field_deg=field_deg)
        if max(total_degree(c) for g in model.fields for c in g.components) < min(field_deg, 2):
            continue  # a draw of degree-2 fields that came out affine
        for method, q in (
            ("heun", QSpec.identity(m)),
            ("euler_ito", QSpec.identity(m)),
            ("euler_ito", piecewise_q(m)),
        ):
            path = sample_brownian(q, grid, seed + k, 3)
            assert takes_map(model, path, method) == (field_deg <= 1)
            try:
                want = reference_loop_states(model, path, method)
            except DivergenceError:
                with pytest.raises(DivergenceError):
                    simulate_states(model, path, method)
                continue
            got = simulate_states(model, path, method)
            worst = max(worst, (abs(got - want) / np.maximum(1.0, abs(want))).max())
            compared += 1
    return worst, compared


class TestAffineMap:
    """Affine fields step by the exact per-cell map of the scheme and other
    fields by the polynomial kernel, whose bits are those of
    ``reference_states``; the ``@`` loop stays the oracle of their values."""

    def test_map_matches_loop_reference_within_bound(self):
        worst, compared = worst_loop_gap(random.Random(2201), 10, 1, make_grid(0.25, 1024), 400)
        assert compared == 30
        assert worst <= 1e-11, worst

    def test_kernel_matches_loop_reference_within_bound(self):
        worst, compared = worst_loop_gap(random.Random(2301), 60, 2, make_grid(0.0625, 256), 500)
        assert compared >= 130  # 141 of 180 runs; the rest diverge in both or are affine
        assert worst <= 1e-11, worst

    def test_study_models_take_their_stepper(self):
        from test_acceptance import QUADRATIC_MODEL
        from test_golden import TWO_CHANNEL

        affine = [parse_model(QUADRATIC_MODEL), linear_embedding(parse_model(PATHWISE_BILINEAR))]
        cases = [(model, True) for model in (*affine, zakai_embedding())]
        cases.append((parse_model(TWO_CHANNEL), False))  # quadratic fields
        grid = make_grid(1.0, 200)
        for model, affine in cases:
            for method in ("heun", "euler_ito"):
                path = sample_brownian(QSpec.identity(model.m), grid, 11, 4)
                assert takes_map(model, path, method) == affine
                got = simulate_states(model, path, method).tobytes()
                assert got == reference_states(model, path, method).tobytes()
                assert got != reference_loop_states(model, path, method).tobytes()


class TestStepperMemory:
    """The driver contracts the increments into the monomial coefficients a
    few cells at a time, so the peak of a run does not grow with the
    fields' number of monomials."""

    FIELDS = "n = 3\nm = 1\nx0 = 0, 0, 0\ng0 = {}, 0, 0\ng1 = 1, 1/2, 1/3\nh = x1\n"

    def test_peak_does_not_grow_with_the_monomials(self):
        many = parse_model(self.FIELDS.format("1/100*(x1 + x2 + x3 + 1)^3"))  # 20 monomials
        few = parse_model(self.FIELDS.format("1/100*x1^2"))  # 5 monomials
        path = sample_brownian(QSpec.identity(1), make_grid(0.5, 128), 5, 200)
        peak_many, peak_few = (traced_peak(simulate_states, model, path) for model in (many, few))
        assert peak_many <= 1.2 * peak_few, (peak_many, peak_few)


class TestZeroVectorMemory:
    """Most rows of the filter models' Hankel blocks are zero.  A span
    answers a zero vector without a Bareiss step, so it copies no
    full-length list: 10^4 entries would take 8 * 10^4 bytes of pointers."""

    LENGTH = 10**4

    def test_zero_vector_allocates_no_full_length_list(self):
        span = RowSpan(self.LENGTH)
        assert span.add([1] * self.LENGTH) and span.add([0, 1] * (self.LENGTH // 2))
        for zero in ([0] * self.LENGTH, (0,) * self.LENGTH):
            for answer in (span.add, span.coords):
                assert traced_peak(answer, zero) < 8 * 10**3, answer.__name__
            assert not span.add(zero)
            assert span.coords(zero) == [Fraction(0)] * 2
        assert span.dim == 2


def rand_affine(rng, n, constant):
    """A polynomial of degree <= 1 in n variables, with a constant term or without."""
    exponents = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    exponents = rng.sample(exponents, rng.randint(1, n))  # some variables, at least one
    if constant:
        exponents.append((0,) * n)
    return MultiPoly(
        n, {e: Fraction(rng.randint(1, 30), rng.randint(1, 7)) * rng.choice((1, -1)) for e in exponents}
    )


class TestAffineEvaluatorBytes:
    """Degree <= 1 polynomials, the fields and readouts of the affine
    studies, give the bits of ``reference_evaluator`` on random, strided
    and special inputs."""

    @staticmethod
    def assert_reference_bytes(polys, x):
        for arg in (polys, polys[0]):
            got, want = compile_float(arg)(x), reference_evaluator(arg)(x)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (x.shape, arg)

    @pytest.mark.parametrize("constant", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_affine_match_reference_bytes(self, n, constant):
        rng = random.Random(2000 + 2 * n + constant)
        gen = np.random.default_rng(2000 + 2 * n + constant)
        for _ in range(30):
            polys = [rand_affine(rng, n, constant) for _ in range(rng.randint(1, 4))]
            assert all(total_degree(p) <= 1 for p in polys)
            assert all(((0,) * n in p.terms) == constant for p in polys)
            scale = 10.0 ** rng.uniform(-3, 3)
            for shape in ((rng.randint(1, 9), n), (4, 5, n), (n,)):
                self.assert_reference_bytes(polys, gen.standard_normal(shape) * scale)
            # a strided view, as the functionals pass one time row of a path
            self.assert_reference_bytes(polys, gen.standard_normal((6, 9, n))[:, 4, :])

    def test_special_values_match_reference_bytes(self):
        rng = random.Random(2010)
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1.5]
        with np.errstate(all="ignore"):
            for n in (1, 2, 3):
                x = np.array([np.roll(special, k) for k in range(n)]).T.copy()  # (8, n)
                for constant in (False, True):
                    polys = [rand_affine(rng, n, constant) for _ in range(3)]
                    self.assert_reference_bytes(polys, x)
                    self.assert_reference_bytes(polys, x.reshape(2, 4, n))

    def test_linear_embedding_fields_match_reference_bytes(self):
        rng = random.Random(2011)
        gen = np.random.default_rng(2011)
        for _ in range(30):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            model = linear_embedding(rand_bilinear(rng, n, m))
            components = [c for g in model.fields for c in g.components]
            for shape in ((8, n), (4, 5, n)):
                x = gen.standard_normal(shape) * 4
                self.assert_reference_bytes(components, x)
                self.assert_reference_bytes([model.readout], x)


class TestBlockedGuard:
    """``simulate_states`` checks the guard once per GUARD_BLOCK steps; the
    DivergenceError must name the step a per-step guard names."""

    # x = x0 + W on both schemes, so a spike in the path is a spike in x.
    # These fields are affine, so the spike of 1e308 is the state's.  In
    # the polynomial kernel the Heun state would be (1e308 + 1e308) * 0.5 =
    # inf and, one step on, inf - inf = NaN: see SPIKE_MODELS below.
    SPIKE_MODEL = "n = 1\nm = 1\nx0 = 0\ng0 = 0\ng1 = 1\nh = x1\n"

    @pytest.mark.parametrize("replicates", [None, 3])
    @pytest.mark.parametrize("method", ["heun", "euler_ito"])
    def test_first_bad_step_is_named(self, method, replicates):
        assert GUARD_BLOCK == 64
        model = parse_model(self.SPIKE_MODEL)
        # step 1; the last step of the first block and the first of the
        # second; inside and at the end of a last partial block
        for steps, bad in ((100, 1), (100, 64), (100, 65), (100, 90), (100, 100), (64, 64)):
            for spike in (2e12, -2e12, 1e308, -1e308):
                values = np.zeros((3, steps + 1, 1))
                values[2, bad, 0] = spike
                values[0, min(bad + 3, steps), 0] = spike  # a later trip elsewhere
                if replicates is None:
                    values = values[2]
                path = SamplePath(make_grid(1.0, steps), values)
                want = f"state not finite or past divergence guard {DIVERGENCE_GUARD:g} at step {bad}"
                assert reference_divergence(model, path, method) == want
                assert divergence(model, path, method) == want, (steps, bad, spike)
        # a state at the guard itself does not trip it
        values = np.zeros((101, 1))
        values[50:, 0] = DIVERGENCE_GUARD
        assert divergence(model, SamplePath(make_grid(1.0, 100), values), method) is None

    # The same spikes through either stepper: the step loop of the
    # polynomial kernel (x2 stays 0, so x1 = W) and the affine map of fields
    # that couple the states.
    SPIKE_MODELS = {
        "loop": "n = 2\nm = 1\nx0 = 0, 0\ng0 = 0, x2^2\ng1 = 1, 0\nh = x1\n",
        "map": "n = 2\nm = 1\nx0 = 0, 1\ng0 = -1/2*x1, x1 - x2\ng1 = 1, 1/4*x2\nh = x1\n",
    }

    @pytest.mark.parametrize("replicates", [None, 3])
    @pytest.mark.parametrize("method", ["heun", "euler_ito"])
    @pytest.mark.parametrize("stepper", sorted(SPIKE_MODELS))
    def test_spikes_name_the_reference_step(self, stepper, method, replicates):
        model = parse_model(self.SPIKE_MODELS[stepper])
        for bad in (1, 64, 65, 90, 100):
            for spike in (2e12, -2e12, 1e308, -1e308):
                values = np.zeros((3, 101, 1))
                values[2, bad, 0] = spike
                values[0, min(bad + 3, 100), 0] = spike  # a later trip elsewhere
                path = SamplePath(make_grid(1.0, 100), values if replicates else values[2])
                assert takes_map(model, path, method) == (stepper == "map")
                want = reference_divergence(model, path, method)
                assert want.endswith(f" at step {bad}"), want
                assert divergence(model, path, method) == want, (bad, spike)

    def test_random_models_name_the_reference_step(self):
        rng = random.Random(2012)
        grid = make_grid(2.0, 100)  # a block of 64 steps and a partial one of 36
        steps_named = []
        for k in range(30):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            model = rand_analytic(rng, n, m, field_deg=rng.randint(1, 3))
            for replicates in (None, 3):
                for method in ("heun", "euler_ito"):
                    path = sample_brownian(QSpec.identity(m), grid, 300 + k, replicates)
                    want = reference_divergence(model, path, method)
                    assert divergence(model, path, method) == want, (k, replicates, method)
                    if want:
                        steps_named.append(int(want.rsplit(" ", 1)[1]))
        # trips in both blocks, so the test reads both
        assert min(steps_named) <= GUARD_BLOCK < max(steps_named)

    OVERFLOWING = {
        # x' = x^2 from 10 passes the guard near t = 0.1 (step 16 or 20) and
        # overflows to inf, then NaN, before the first block ends
        "blow_up": "n = 1\nm = 1\nx0 = 10\ng0 = x1^2\ng1 = 0\nh = x1\n",
        # x1^48 - x2^48 at x = 1e7 is inf - inf: the first state is NaN
        "nan_at_start": (
            "n = 2\nm = 1\nx0 = 10000000, 10000000\n"
            "g0 = x1^16*x1^16*x1^16 - x2^16*x2^16*x2^16, 0\ng1 = 0, 0\nh = x1\n"
        ),
    }

    @pytest.mark.parametrize("replicates", [None, 2])
    @pytest.mark.parametrize("name", sorted(OVERFLOWING))
    def test_overflow_inside_a_block_warns_nothing(self, name, replicates):
        model = parse_model(self.OVERFLOWING[name])
        path = sample_brownian(QSpec.identity(1), make_grid(4.0, 512), 9, replicates)
        with np.errstate(all="ignore"):
            states = reference_states(model, path, "heun", guard=np.inf)
        assert not np.isfinite(states[..., 1:GUARD_BLOCK, :]).all()  # the block overflows
        for method in ("heun", "euler_ito"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                message = divergence(model, path, method)
            assert message == reference_divergence(model, path, method)


def special_columns(count):
    """A grid and W1, Y_sim, pi columns for ``count`` replicates: replicates
    0 and 1 of Y_sim hold special values forwards and backwards, the others
    random draws at 1e8; pi is -Y_sim."""
    grid = np.concatenate([[0.0], np.cumsum([0.1, 1 / 3, 0.7, 1e-05, 2.5, 1 / 7])])
    special = [-0.0, 1e-05, 1e16, 5e-324, -1.5e-300, 0.1 + 0.2, 2.0**0.5]
    gen = np.random.default_rng(1709)
    w = gen.standard_normal((count, grid.size))
    y = np.array([special, special[::-1], *(gen.standard_normal(grid.size) * 1e8 for _ in range(count - 2))])
    return grid, {"W1": w, "Y_sim": y, "pi": -y}


def assert_reference_files(directory, grid, columns, count):
    assert sorted(p.name for p in directory.iterdir()) == [f"rep{k:03d}.csv" for k in range(count)]
    for rep in range(count):
        want = reference_csv(grid, {name: col[rep] for name, col in columns.items()})
        assert (directory / f"rep{rep:03d}.csv").read_text() == want, rep


class TestCsvBytes:
    def test_rows_match_reference_join(self, tmp_path):
        grid, columns = special_columns(3)
        _write_replicates(str(tmp_path), grid, columns, 2)
        assert_reference_files(tmp_path, grid, columns, 2)
        text = (tmp_path / "rep000.csv").read_text()
        assert ",-0.0,0.0\n" in text and ",5e-324,-5e-324\n" in text

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("count", [3, 5])
    def test_bytes_do_not_depend_on_the_workers(self, tmp_path, monkeypatch, count, cpus):
        grid, columns = special_columns(count)
        forks = count_forks(monkeypatch, cpus)
        _write_replicates(str(tmp_path), grid, columns, count)
        assert len(forks) == cpus - 1
        assert_no_child()
        assert_reference_files(tmp_path, grid, columns, count)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_no_more_workers_than_replicates(self, tmp_path, monkeypatch, cpus):
        grid, columns = special_columns(3)
        forks = count_forks(monkeypatch, cpus)
        _write_replicates(str(tmp_path / "one"), grid, columns, 1)
        assert forks == []
        _write_replicates(str(tmp_path / "two"), grid, columns, 2)
        assert len(forks) == min(2, cpus) - 1
        assert_no_child()
        assert_reference_files(tmp_path / "two", grid, columns, 2)

    def test_one_worker_without_an_affinity_call(self, tmp_path, monkeypatch):
        grid, columns = special_columns(3)
        forks = count_forks(monkeypatch, 3)
        monkeypatch.delattr(os, "sched_getaffinity")
        _write_replicates(str(tmp_path), grid, columns, 3)
        assert forks == []
        assert_reference_files(tmp_path, grid, columns, 3)
