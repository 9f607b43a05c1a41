"""Numeric horizontal/vertical derivatives of causal path functionals and
Monte Carlo residual checks of the functional change-of-variable formula.

Discretized paths are read as piecewise-constant cadlag trajectories: the
value on [t_j, t_{j+1}) is the grid value at t_j.  That makes the vertical
bump (adding h to one channel from a grid time onward) exactly representable
and makes left-endpoint quadrature exact for a running integral
functional.  The horizontal derivative extends the stopped path by one
grid cell, avoiding any interpolation semantics.

Registered functionals evaluate at a grid index using only values up to that
index; causality is therefore structural and is also asserted by randomized
tail-perturbation tests.  So a bump or a stop at index j changes one grid
row: the derivatives write that row of ``path.values`` in place, evaluate,
and assign the saved row back, also if the functional raises; no prefix of
the path is copied (Dupire 2009; Cont & Fournie, arXiv:1002.2446).  A
cell evaluates each distinct bumped path once, so the residual studies read
their first and second vertical derivatives from the same values.

Paths may carry leading replicate axes, values (..., J+1, m); a functional
then returns one value per replicate, and the residual studies evaluate
together all replicates of the batched path their caller passes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DivergenceError
from .paths import SamplePath, exact_rates, simulate_states
from .symdiff import AnalyticModel, MultiPoly, compile_float, ito_correction, lie_derivative


class CausalFunctional:
    """Evaluation contract: value at grid index j from values[..., : j + 1, :].

    ``values`` has shape (..., len, m) with len >= j + 1, leading axes
    indexing replicates; the result has the leading shape.  Subclasses must
    be causal: the value at index j may not depend on any grid value strictly
    after j.
    """

    name = "functional"

    def value(self, grid: np.ndarray, values: np.ndarray, j: int):
        raise NotImplementedError


class MemorylessFunctional(CausalFunctional):
    """F(t, w) = f(t, w(t)) for a polynomial f in (t, x_1..x_m)."""

    def __init__(self, f: MultiPoly, m: int):
        if f.num_vars != m + 1:
            raise ValueError(f"f must have {m + 1} variables (t, x1..x{m})")
        self.m = m
        self.f = f
        self._ev = compile_float(f)
        self.name = "memoryless"

    def value(self, grid, values, j):
        point = np.empty(values.shape[:-2] + (self.m + 1,))
        point[..., 0] = grid[j]
        point[..., 1:] = values[..., j, :]
        return self._ev(point)


def _edited_value(f: CausalFunctional, path: SamplePath, j: int, edit):
    """Value of f at index j after ``edit`` changed row j of ``path.values``
    in place.  The saved row is then assigned back, also when f raises;
    subtracting a bump again could round."""
    values = path.values
    saved = values[..., j, :].copy()
    try:
        edit(values[..., j, :])
        return f.value(path.grid, values, j)
    finally:
        values[..., j, :] = saved


class _Cell:
    """Values of f at index j under bumps of sign * h on channels from t_j on,
    each distinct bumped path evaluated once.  Bumps on distinct channels
    commute exactly, so a set of (channel, sign) pairs keys a value."""

    def __init__(self, f: CausalFunctional, path: SamplePath, j: int, h=None):
        self.f, self.path, self.j, self.h = f, path, j, h
        self._seen = {}

    def value(self, *bumps):
        key = frozenset(bumps)
        if key not in self._seen:
            def bump(row):
                for channel, sign in bumps:
                    row[..., channel - 1] += sign * self.h
            self._seen[key] = _edited_value(self.f, self.path, self.j, bump)
        return self._seen[key]

    def stop_step(self):
        """f one cell past t_j along the path stopped at t_j, minus f at t_j."""
        j, values = self.j, self.path.values
        stopped = _edited_value(self.f, self.path, j + 1, lambda row: np.copyto(row, values[..., j, :]))
        return stopped - self.value()

    def first(self, channel: int, scheme: str = "central"):
        up = self.value((channel, 1))
        if scheme == "forward":
            return (up - self.value()) / self.h
        if scheme == "central":
            return (up - self.value((channel, -1))) / (2.0 * self.h)
        raise ValueError(f"unknown scheme {scheme!r}")

    def second(self, channel_i: int, channel_j: int):
        h = self.h
        if channel_i == channel_j:
            return (self.value((channel_i, 1)) - 2.0 * self.value() + self.value((channel_i, -1))) / (h * h)
        pp, pm, mp, mm = (self.value((channel_i, si), (channel_j, sj)) for si in (1, -1) for sj in (1, -1))
        return (pp - pm - mp + mm) / (4.0 * h * h)


def default_bump(path: SamplePath):
    """Default bump size sqrt(dt) scaled by the path amplitude, one per
    replicate."""
    dt = float(np.min(np.diff(path.grid)))
    amp = np.max(np.abs(path.values), axis=(-2, -1), initial=0.0)
    return np.sqrt(dt) * np.maximum(1.0, amp)


def vertical_derivative(
    f: CausalFunctional,
    path: SamplePath,
    j: int,
    channel: int,
    h: float | None = None,
    scheme: str = "central",
) -> float:
    """Difference quotient under the bump h * 1_[t_j, T] on one channel.

    ``scheme="central"`` (default) uses symmetric bumps; ``"forward"`` is the
    one-sided quotient matching the defining limit.
    """
    return _Cell(f, path, j, default_bump(path) if h is None else h).first(channel, scheme)


def second_vertical_derivative(
    f: CausalFunctional,
    path: SamplePath,
    j: int,
    channel_i: int,
    channel_j: int,
    h: float | None = None,
) -> float:
    """Nested bump estimate of the (i, j) second vertical derivative.

    The inner bump is applied on channel_j and the outer on channel_i,
    matching the operator order of iterated derivatives.  The estimator's
    noise floor scales like eps / h^2; quantitative residual checks should
    stick to functionals with classical second derivatives.
    """
    return _Cell(f, path, j, default_bump(path) if h is None else h).second(channel_i, channel_j)


@dataclass(frozen=True)
class ResidualReport:
    """RMS residual of the change-of-variable identity over replicates.

    ``bump_min`` and ``bump_max`` are the smallest and largest vertical
    bumps used: the default bump scales with each replicate's amplitude,
    and a fixed bump gives equal values.
    """

    functional: str
    form: str
    rms: float
    grid_steps: int
    horizon: float
    bump_min: float
    bump_max: float
    replicates: int
    eval_time: float

    def as_dict(self) -> dict:
        return asdict(self)


def functional_ito_residual(
    f: CausalFunctional,
    path: SamplePath,
    t: float,
    form: str = "ito",
    bump: float | None = None,
) -> ResidualReport:
    """RMS over replicates of F(t,W) - F(0,W) minus its discretized
    decomposition into horizontal, stochastic, and quadratic-variation parts.

    The horizontal term uses left-point quadrature with one-cell forward
    differences; the Ito integral uses left-point increments with central
    vertical bumps; the quadratic-variation term pairs second vertical
    derivatives with the left-endpoint covariance rate ``path.q``.  Any
    continuous semimartingale input will do.  ``form="strat"`` checks the
    Stratonovich version instead: the stochastic term then uses midpoint
    (trapezoidal) integrand values and no second-order term.
    """
    if form not in ("ito", "strat"):
        raise ValueError(f"unknown form {form!r}")
    if path.values.ndim != 3:
        raise ValueError("residual study needs a batched path, values (R, J+1, m)")
    if path.q is None:
        raise ValueError("path records no covariance rate")
    q, grid, m, replicates = path.q, path.grid, path.m, len(path.values)
    jt = path.index_of(t)
    h = np.broadcast_to(bump if bump is not None else default_bump(path), (replicates,))
    vals = path.values
    lhs = f.value(grid, vals, jt) - f.value(grid, vals, 0)
    if not np.all(np.isfinite(lhs)):
        raise DivergenceError("functional value is not finite")
    horiz = stoch = qv = 0.0
    deriv = np.empty((replicates, jt + 1, m)) if form == "strat" else None
    for j in range(jt + 1):
        cell = _Cell(f, path, j, h)
        if form == "strat":
            deriv[:, j] = np.stack([cell.first(i) for i in range(1, m + 1)], axis=-1)
        if j == jt:
            break
        horiz += cell.stop_step()
        if form == "ito":
            dw = vals[:, j + 1] - vals[:, j]
            dt = grid[j + 1] - grid[j]
            qmat = q.at(grid[j])
            for i in range(1, m + 1):
                stoch += cell.first(i) * dw[:, i - 1]
                for k in range(1, m + 1):
                    qv += cell.second(i, k) * qmat[k - 1, i - 1] * dt
    if form == "ito":
        rhs = horiz + stoch + 0.5 * qv
    else:
        dw = np.diff(vals[:, : jt + 1], axis=1)
        rhs = horiz + np.sum(0.5 * (deriv[:, :-1] + deriv[:, 1:]) * dw, axis=(1, 2))
    residuals = lhs - rhs
    bumps = (float(np.min(h)), float(np.max(h))) if replicates else (0.0, 0.0)
    return ResidualReport(
        functional=f.name,
        form=form,
        rms=float(np.sqrt(np.mean(residuals**2))),
        grid_steps=path.steps,
        horizon=path.horizon,
        bump_min=bumps[0],
        bump_max=bumps[1],
        replicates=replicates,
        eval_time=float(t),
    )


@dataclass(frozen=True)
class DecompositionReport:
    """RMS reconstruction errors of the first-order decomposition of a model
    output, in both stochastic calculi."""

    strat_rms: float
    ito_rms: float
    grid_steps: int
    horizon: float
    replicates: int

    def as_dict(self) -> dict:
        return asdict(self)


def hijab_decomposition_check(model: AnalyticModel, path: SamplePath) -> DecompositionReport:
    """Verify both first-order integral decompositions of a model output
    Y = h(X) along the replicates of ``path``, for any number of channels.

    With Z_i = L_{g_i} h (X), i = 0..m, the Stratonovich pair reconstructs Y
    from Y(0) + sum_i int Z_i o dxi_i (trapezoid; xi_0 = t, xi_i = W_i).  The
    Ito pair adds to Z_0 the Ito correction of h under the covariance rate of
    each cell, as the Euler-Ito simulation does for the state, and takes
    left-point sums.  Reports terminal RMS errors of both reconstructions
    over the replicates, all simulated in one batch.
    """
    if path.values.ndim != 3:
        raise ValueError("decomposition check needs a batched path, values (R, J+1, m)")
    rates, piece = exact_rates(path, model.m)
    z_polys = [lie_derivative(g, model.readout) for g in model.fields]
    corrections = [ito_correction(model, q, z_polys[1:]) for q in rates]
    along = compile_float([model.readout, *z_polys, *corrections])

    states = simulate_states(model, path)
    y, *cols = np.moveaxis(along(states), -1, 0)  # each (R, J+1)
    z, corr = cols[: model.m + 1], np.stack(cols[model.m + 1 :])
    left = [zi[:, :-1] for zi in z]  # Ito integrands; Z_0 gains its cell's correction
    left[0] = left[0] + corr[piece, np.arange(len(y))[:, None], np.arange(path.steps)]
    inc = path.increments()
    strat = ito = y[:, 0]
    for i, zi in enumerate(z):  # one sum per letter, added in letter order
        strat = strat + np.sum(0.5 * (zi[:, :-1] + zi[:, 1:]) * inc[..., i], axis=-1)
        ito = ito + np.sum(left[i] * inc[..., i], axis=-1)
    return DecompositionReport(
        strat_rms=float(np.sqrt(np.mean((strat - y[:, -1]) ** 2))),
        ito_rms=float(np.sqrt(np.mean((ito - y[:, -1]) ** 2))),
        grid_steps=path.steps,
        horizon=path.horizon,
        replicates=len(path.values),
    )
