"""Byte-identity oracles for the pathwise hot loops.

The state integrator, the float polynomial evaluator and the replicate CSV
writer were rewritten for speed with the same arithmetic.  The references
below are the earlier forms: a step loop through a ``step`` closure, an
evaluator built on ``np.multiply.reduce`` of a power table, and a
row-by-row CSV join.  ``compile_float`` forms each monomial as a product of
its variables taken left to right and calls no ``pow``; for polynomials of
degree <= 1 that is the power table's bits, for higher degrees it is those
of a per-point product in Python floats, the second reference.  Affine
fields in at most ``AFFINE_MAX_DIM`` dimensions step by the scheme's exact
per-cell map instead: ``reference_affine_states`` applies it to each
replicate in Python floats, in the same order of operations, and the step
loop stays the oracle of their values within a rounding bound.  The new
code must give the same bytes, not merely close floats.
"""

import random
import warnings
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from cfrealize import QSpec, make_grid, parse_model, sample_brownian, simulate_states
from cfrealize.cli import _write_replicates
from cfrealize.errors import DivergenceError
from cfrealize.paths import (
    AFFINE_MAX_DIM,
    DIVERGENCE_GUARD,
    GUARD_BLOCK,
    SamplePath,
    exact_rates,
    zakai_build,
)
from cfrealize.symdiff import MultiPoly, compile_float, linear_embedding, stratonovich_to_ito_drift

from conftest import rand_analytic, rand_bilinear, rand_poly


def reference_table(polys):
    """The sorted monomials of the polynomials and their coefficient matrix (terms, k)."""
    monomials = sorted({e for p in polys for e in p.terms})
    row = {e: t for t, e in enumerate(monomials)}
    coef = np.zeros((len(monomials), len(polys)))
    for k, p in enumerate(polys):
        for e, c in p.terms.items():
            coef[row[e], k] = float(c)
    return monomials, coef


def reference_compile_float(polys):
    """prod(x ** E) @ C, the power table: the reference of degree <= 1."""
    single = isinstance(polys, MultiPoly)
    polys = [polys] if single else list(polys)
    monomials, coef = reference_table(polys)
    expo = np.array(monomials, dtype=float).reshape(len(monomials), polys[0].num_vars)

    def ev(x):
        x = np.asarray(x, dtype=float)
        out = np.multiply.reduce(x[..., None, :] ** expo, axis=-1) @ coef
        return out[..., 0] if single else out

    return ev


def reference_product_float(polys):
    """Each monomial at each point in Python floats, 1.0 times its variables
    taken left to right, repeats included, then the same ``@ C``: the
    reference of degree >= 2."""
    single = isinstance(polys, MultiPoly)
    polys = [polys] if single else list(polys)
    monomials, coef = reference_table(polys)

    def ev(x):
        x = np.asarray(x, dtype=float)
        table = []
        for point in x.reshape(-1, x.shape[-1]).tolist():
            for e in monomials:
                v = 1.0
                for xi, a in zip(point, e):
                    for _ in range(a):
                        v *= xi
                table.append(v)
        out = np.array(table).reshape(x.shape[:-1] + (len(monomials),)) @ coef
        return out[..., 0] if single else out

    return ev


def reference_evaluator(polys):
    """The reference for the kind of polynomial: the power table up to degree 1, products above."""
    listed = [polys] if isinstance(polys, MultiPoly) else polys
    affine = all(p.total_degree() <= 1 for p in listed)
    return (reference_compile_float if affine else reference_product_float)(polys)


def reference_fields(model, path, method):
    """F_0..F_m of each piece of the path's covariance, and the piece of each cell."""
    if method == "heun":
        return [model.fields], np.zeros(path.steps, dtype=int)
    rates, piece = exact_rates(path, model.m)
    return [(stratonovich_to_ito_drift(model, r), *model.fields[1:]) for r in rates], piece


def takes_map(model, path, method):
    """Whether ``simulate_states`` steps this model by the affine map."""
    fields, _ = reference_fields(model, path, method)
    degrees = [c.total_degree() for fs in fields for g in fs for c in g.components]
    return model.n <= AFFINE_MAX_DIM and max(degrees) <= 1


def reference_loop_states(model, path, method, guard=DIVERGENCE_GUARD):
    """Heun or Euler-Ito through a ``step`` closure, one ``@`` per stage."""
    fields, piece = reference_fields(model, path, method)
    evals = [reference_evaluator([c for g in fs for c in g.components]) for fs in fields]
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


def ordered_sum(terms):
    """The terms added left to right from the first (a 0.0 start would turn -0.0 into 0.0)."""
    terms = iter(terms)
    total = next(terms)
    for t in terms:
        total = total + t
    return total


def reference_affine_states(model, path, method, guard=DIVERGENCE_GUARD):
    """Each replicate stepped in Python floats by the map of affine fields
    F_i(x) = A_i x + b_i: B = sum_i dxi_i A_i and c = sum_i dxi_i b_i; Heun
    M = (B + 0.5 * B B) + I and v = c + 0.5 * B c, Euler-Ito M = B + I and
    v = c; then x' = (sum_l M[:, l] x_l) + v.  Every sum runs left to right
    over its index, as ``simulate_states`` adds."""
    fields, piece = reference_fields(model, path, method)
    n, heun = model.n, method == "heun"
    parts = []
    for fs in fields:
        mats = [[[0.0] * n for _ in range(n)] for _ in fs]
        consts = [[0.0] * n for _ in fs]
        for a, b, g in zip(mats, consts, fs):
            for k, p in enumerate(g.components):
                for e, c in p.terms.items():
                    if any(e):
                        a[k][e.index(1)] = float(c)
                    else:
                        b[k] = float(c)
        parts.append((mats, consts))
    incs = path.increments()
    cells = incs.reshape(prod(incs.shape[:-2]), path.steps, model.m + 1)
    states = np.empty((len(cells), path.grid.size, n))
    for r, dxis in enumerate(cells.tolist()):
        x = [float(v) for v in model.x0]
        states[r, 0] = x
        for j, dxi in enumerate(dxis):
            mats, consts = parts[piece[j]]
            b = [[ordered_sum(d * a[k][l] for d, a in zip(dxi, mats)) for l in range(n)] for k in range(n)]
            c = [ordered_sum(d * v[k] for d, v in zip(dxi, consts)) for k in range(n)]
            mx, v = b, c
            if heun:
                mx = [
                    [b[k][l] + 0.5 * ordered_sum(b[k][p] * b[p][l] for p in range(n)) for l in range(n)]
                    for k in range(n)
                ]
                v = [c[k] + 0.5 * ordered_sum(b[k][l] * c[l] for l in range(n)) for k in range(n)]
            for k in range(n):
                mx[k][k] = mx[k][k] + 1.0
            x = [ordered_sum(mx[k][l] * x[l] for l in range(n)) + v[k] for k in range(n)]
            states[r, j + 1] = x
            if any(abs(xk) > guard for xk in x):
                raise DivergenceError(f"step {j + 1}")
    return states.reshape(incs.shape[:-2] + states.shape[1:])


def reference_simulate_states(model, path, method, guard=DIVERGENCE_GUARD):
    """The reference for the stepper ``simulate_states`` picks."""
    affine = takes_map(model, path, method)
    return (reference_affine_states if affine else reference_loop_states)(model, path, method, guard)


def reference_divergence(model, path, method):
    """The message of a guard checked after every step: the first step
    whose state is not finite or past the guard, read off the unguarded
    reference states (None when there is none)."""
    with np.errstate(all="ignore"):
        states = reference_simulate_states(model, path, method, guard=np.inf)
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
                        want = reference_simulate_states(model, path, method)
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
            got, want = compile_float(polys)(x), reference_compile_float(polys)(x)
            assert got.shape == x.shape[:-1] + (3,)
            assert got.tobytes() == want.tobytes()
            single = compile_float(polys[0])(x)
            assert single.tobytes() == reference_compile_float(polys[0])(x).tobytes()


# The bilinear model of the pathwise_mc benchmark workload.
PATHWISE_BILINEAR = (
    "type = bilinear\nn = 2\nm = 1\nx0 = 1, 1/2\nA0 = -1, 1/2, 0, -1/2\nA1 = 1/2, 0, 1/4, -1/4\nC = 1, -1\n"
)


def zakai_embedding():
    """The linear embedding of the filter model demo-zakai simulates."""
    return linear_embedding(zakai_build([[-1, 1], [1, -1]], [0, 1], [0, 1], ["1/2", "1/2"]))


class TestAffineMap:
    """Affine fields step by the exact per-cell map of the scheme, whose
    bits are those of ``reference_affine_states``; the ``@`` loop stays the
    oracle of its values."""

    def test_map_matches_loop_reference_within_bound(self):
        rng = random.Random(2201)
        grid = make_grid(0.25, 1024)
        worst = 0.0
        for k in range(10):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            model = rand_analytic(rng, n, m, field_deg=1)
            for method, q in (
                ("heun", QSpec.identity(m)),
                ("euler_ito", QSpec.identity(m)),
                ("euler_ito", piecewise_q(m)),
            ):
                path = sample_brownian(q, grid, 400 + k, 3)
                assert takes_map(model, path, method)
                got = simulate_states(model, path, method)
                want = reference_loop_states(model, path, method)
                worst = max(worst, (abs(got - want) / np.maximum(1.0, abs(want))).max())
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
                loop = reference_loop_states(model, path, method).tobytes()
                if affine:
                    assert got == reference_affine_states(model, path, method).tobytes()
                    assert got != loop
                else:
                    assert got == loop


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
    """A degree <= 1 polynomial's monomial table is the gather of x's
    columns alone, with no multiply; its bits must be those of the power
    table, since x ** 0 = 1, x ** 1 = x and 1.0 * a = a."""

    @staticmethod
    def assert_reference_bytes(polys, x):
        for arg in (polys, polys[0]):
            got, want = compile_float(arg)(x), reference_compile_float(arg)(x)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (x.shape, arg)

    @pytest.mark.parametrize("constant", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_affine_match_reference_bytes(self, n, constant):
        rng = random.Random(2000 + 2 * n + constant)
        gen = np.random.default_rng(2000 + 2 * n + constant)
        for _ in range(30):
            polys = [rand_affine(rng, n, constant) for _ in range(rng.randint(1, 4))]
            assert all(p.total_degree() <= 1 for p in polys)
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
    # the polynomial loop the Heun state would be (1e308 + 1e308) * 0.5 = inf
    # and, one step on, inf - inf = NaN: see SPIKE_MODELS below.
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

    # The same spikes through either stepper: the polynomial loop (x2 stays
    # 0, so x1 = W) and the affine map of fields that couple the states.
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
            states = reference_simulate_states(model, path, "heun", guard=np.inf)
        assert not np.isfinite(states[..., 1:GUARD_BLOCK, :]).all()  # the block overflows
        for method in ("heun", "euler_ito"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                message = divergence(model, path, method)
            assert message == reference_divergence(model, path, method)


class TestCsvBytes:
    def test_rows_match_reference_join(self, tmp_path):
        grid = np.concatenate([[0.0], np.cumsum([0.1, 1 / 3, 0.7, 1e-05, 2.5, 1 / 7])])
        special = [-0.0, 1e-05, 1e16, 5e-324, -1.5e-300, 0.1 + 0.2, 2.0**0.5]
        gen = np.random.default_rng(1709)
        w = gen.standard_normal((3, grid.size))
        y = np.array([special, special[::-1], gen.standard_normal(grid.size) * 1e8])
        columns = {"W1": w, "Y_sim": y, "pi": -y}
        _write_replicates(str(tmp_path), grid, columns, 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rep000.csv", "rep001.csv"]
        for rep in range(2):
            want = reference_csv(grid, {name: col[rep] for name, col in columns.items()})
            assert (tmp_path / f"rep{rep:03d}.csv").read_text() == want
        text = (tmp_path / "rep000.csv").read_text()
        assert ",-0.0,0.0\n" in text and ",5e-324,-5e-324\n" in text
