"""Byte-identity oracles for the pathwise hot loops.

The state integrator, the float polynomial evaluator and the replicate CSV
writer were rewritten for speed with the same arithmetic.  The references
below are the earlier forms: a step loop through a ``step`` closure, an
evaluator built on ``np.multiply.reduce`` and a row-by-row CSV join.  The
new code must give the same bytes, not merely close floats.
"""

import random

import numpy as np
import pytest

from cfrealize import QSpec, make_grid, sample_brownian, simulate_states
from cfrealize.cli import _write_replicates
from cfrealize.errors import DivergenceError
from cfrealize.paths import DIVERGENCE_GUARD, exact_rates
from cfrealize.symdiff import MultiPoly, compile_float, stratonovich_to_ito_drift

from conftest import rand_analytic, rand_poly


def reference_compile_float(polys):
    single = isinstance(polys, MultiPoly)
    polys = [polys] if single else list(polys)
    num_vars = polys[0].num_vars
    monomials = sorted({e for p in polys for e in p.terms})
    row = {e: t for t, e in enumerate(monomials)}
    coef = np.zeros((len(monomials), len(polys)))
    for k, p in enumerate(polys):
        for e, c in p.terms.items():
            coef[row[e], k] = float(c)
    expo = np.array(monomials, dtype=float).reshape(len(monomials), num_vars)

    def ev(x):
        x = np.asarray(x, dtype=float)
        out = np.multiply.reduce(x[..., None, :] ** expo, axis=-1) @ coef
        return out[..., 0] if single else out

    return ev


def reference_simulate_states(model, path, method):
    if method == "heun":
        fields, piece = [model.fields], np.zeros(path.steps, dtype=int)
    else:
        rates, piece = exact_rates(path, model.m)
        fields = [(stratonovich_to_ito_drift(model, r), *model.fields[1:]) for r in rates]
    evals = [reference_compile_float([c for g in fs for c in g.components]) for fs in fields]
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
        if np.any(np.abs(x) > DIVERGENCE_GUARD):
            raise DivergenceError(f"step {j + 1}")
    return states


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
                    h, h_ref = compile_float(model.readout), reference_compile_float(model.readout)
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
                assert compile_float(arg)(x).tobytes() == reference_compile_float(arg)(x).tobytes()

    def test_evaluator_in_zero_variables(self):
        polys = [MultiPoly.const(0, 3), MultiPoly.const(0, -0.5), MultiPoly.zero(0)]
        for x in (np.empty(0), np.empty((4, 0))):
            got, want = compile_float(polys)(x), reference_compile_float(polys)(x)
            assert got.shape == x.shape[:-1] + (3,)
            assert got.tobytes() == want.tobytes()
            single = compile_float(polys[0])(x)
            assert single.tobytes() == reference_compile_float(polys[0])(x).tobytes()


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
