"""Library pieces that only the tests use: the concatenation product of
series, a polynomial's total degree, the horizontal derivative of a causal
functional, two causal functionals with memory, and a randomized causality
check.  No command reaches them, so they live beside their tests."""

import numpy as np

from cfrealize.dupire import CausalFunctional, _Cell
from cfrealize.fps import Series, _check_pair
from cfrealize.paths import SamplePath
from cfrealize.symdiff import MultiPoly, compile_float


def series_product(r: Series, s: Series) -> Series:
    """Concatenation (Cauchy) product, truncated to the smaller validity degree.

    The coefficient of a word w is the sum of r(u)*s(v) over all splittings
    w = u.v, taken in order of increasing |u|; the product is
    noncommutative.
    """
    _check_pair(r, s)
    n = min(r.max_degree, s.max_degree)
    out = {}
    sc = s.coeffs.items()
    for u, a in r.coeffs.items():
        for v, b in sc:
            if len(u) + len(v) <= n:
                out[u + v] = out.get(u + v, 0) + a * b
    return Series(r.m, n, out, r.mode)


def total_degree(p: MultiPoly) -> int:
    """The largest total degree of p's monomials (0 for the zero polynomial)."""
    return max((sum(e) for e in p.terms), default=0)


def horizontal_derivative(f: CausalFunctional, path: SamplePath, j: int) -> float:
    """Forward difference of f along the path stopped at t_j, over one grid
    cell."""
    if j + 1 >= path.grid.size:
        raise ValueError("horizontal step runs past the horizon")
    return _Cell(f, path, j).stop_step() / (float(path.grid[j + 1]) - float(path.grid[j]))


class RunningIntegralFunctional(CausalFunctional):
    """F(t, w) = integral of w_i over [0, t] (left-endpoint exact for
    piecewise-constant paths)."""

    def __init__(self, channel: int = 1):
        if channel < 1:
            raise ValueError("channel is 1-based")
        self.channel = channel
        self.name = f"running_integral_{channel}"

    def value(self, grid, values, j):
        return values[..., :j, self.channel - 1] @ np.diff(grid[: j + 1])


class LinearFilterFunctional(CausalFunctional):
    """F(t, w) = integral of kernel(t - s) dw_i(s) over [0, t], discretized
    with left-endpoint kernel weights on each increment."""

    def __init__(self, kernel: MultiPoly, channel: int = 1):
        if kernel.num_vars != 1:
            raise ValueError("kernel must be a one-variable polynomial")
        self.kernel = kernel
        self._kv = compile_float(kernel)
        self.channel = channel
        self.name = f"linear_filter_{channel}"

    def value(self, grid, values, j):
        weights = self._kv(float(grid[j]) - grid[:j, None])
        return np.diff(values[..., : j + 1, self.channel - 1], axis=-1) @ weights


def causality_defect(f: CausalFunctional, path: SamplePath, j: int, seed: int = 0) -> float:
    """Max change of f at index j under random perturbation of the strictly
    later grid values (must be exactly zero for a causal functional)."""
    rng = np.random.default_rng(seed)
    base = f.value(path.grid, path.values, j)
    worst = 0.0
    for _ in range(4):
        perturbed = path.values.copy()
        tail = perturbed[..., j + 1 :, :]
        tail += rng.standard_normal(tail.shape)
        worst = max(worst, float(np.max(np.abs(f.value(path.grid, perturbed, j) - base))))
    return worst
