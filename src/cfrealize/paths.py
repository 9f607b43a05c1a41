"""Driving-path simulation, iterated Stratonovich integrals, pathwise series
evaluation, state-space integration, and the finite-state filter demo.

Conventions shared by everything in this module:

* Driving paths are m-dimensional, start at the origin, and live on a strictly
  increasing time grid.  Letter 0 is the time channel (its "increment" is
  dt), letters 1..m are the path channels.
* The iterated integral of a word integrates the tail of the word first: the
  outermost integration variable carries the first letter.  Discretization is
  the trapezoidal rule, which converges to the Stratonovich value.
* Model simulation uses the Heun predictor-corrector scheme on the same
  increment stream as the integral tables, so series-vs-simulation
  comparisons are pathwise, not merely in distribution.
* Monte Carlo replicate k of a study seeded with s uses generator seed
  ``s ^ k``; identical seeds and configuration give bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegreeError, DivergenceError, PositivityError
from .fps import Series, Word
from .symdiff import (
    AnalyticModel,
    BilinearModel,
    PolyVectorField,
    compile_float,
    linear_embedding,
    stratonovich_to_ito_drift,
)

DIVERGENCE_GUARD = 1e12


class QSpec:
    """Covariance rate of the driving noise: a constant SPD matrix or a
    piecewise-constant SPD matrix function of time."""

    def __init__(self, pieces):
        # pieces: list of (start_time, matrix); start times strictly increasing,
        # first one must be 0.
        mats = []
        times = []
        for t0, q in pieces:
            q = np.asarray(q, dtype=float)
            if q.ndim != 2 or q.shape[0] != q.shape[1]:
                raise ValueError("Q pieces must be square matrices")
            if not np.allclose(q, q.T):
                raise ValueError("Q must be symmetric")
            try:
                np.linalg.cholesky(q)
            except np.linalg.LinAlgError:
                raise ValueError("Q must be positive definite at every time") from None
            times.append(float(t0))
            mats.append(q)
        if not mats:
            raise ValueError("QSpec needs at least one piece")
        if times[0] != 0.0 or any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError("piece start times must begin at 0 and increase")
        if any(q.shape != mats[0].shape for q in mats):
            raise ValueError("all Q pieces must have the same dimension")
        self._times = np.asarray(times)
        self._mats = mats

    @classmethod
    def constant(cls, q) -> "QSpec":
        return cls([(0.0, q)])

    @classmethod
    def identity(cls, m: int) -> "QSpec":
        return cls.constant(np.eye(m))

    @property
    def dim(self) -> int:
        return self._mats[0].shape[0]

    @property
    def pieces(self) -> tuple[tuple[float, np.ndarray], ...]:
        """The (start time, matrix) pieces in time order."""
        return tuple(zip(self._times.tolist(), self._mats))

    def piece_index(self, t):
        """Index into ``pieces`` of the piece in force at time t (scalar or
        array)."""
        return np.maximum(np.searchsorted(self._times, t, side="right") - 1, 0)

    def at(self, t: float) -> np.ndarray:
        return self._mats[int(self.piece_index(t))]

    def cholesky_at(self, t: float) -> np.ndarray:
        return np.linalg.cholesky(self.at(t))


@dataclass(frozen=True)
class SamplePath:
    """Discretized continuous driving path: values (J+1, m) over a strictly
    increasing grid with value 0 at time 0.  ``q`` optionally records the
    covariance rate the path was sampled with."""

    grid: np.ndarray
    values: np.ndarray
    q: QSpec | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 1:
            raise ValueError("grid must be a nonempty 1-d array")
        if grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must start at 0 and strictly increase")
        if values.ndim != 2 or values.shape[0] != grid.size:
            raise ValueError("values must have shape (len(grid), m)")
        if values.shape[0] and not np.all(values[0] == 0.0):
            raise ValueError("path must start at the origin")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def steps(self) -> int:
        return self.grid.size - 1

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def increments(self) -> np.ndarray:
        """Increment stream of shape (J, m+1): column 0 is dt, column i the
        increment of channel i."""
        dt = np.diff(self.grid)
        dw = np.diff(self.values, axis=0)
        return np.column_stack([dt, dw])

    def index_of(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.grid - t)))
        if not np.isclose(self.grid[idx], t, rtol=0.0, atol=1e-12):
            raise ValueError(f"time {t} is not a grid point")
        return idx


def make_grid(horizon: float, steps: int) -> np.ndarray:
    """Uniform grid 0 = t_0 < ... < t_J = horizon with J = steps cells."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    return np.linspace(0.0, horizon, steps + 1)


def sample_brownian(q: QSpec, grid, seed: int) -> SamplePath:
    """Driving path with independent Gaussian increments of covariance
    Q(t_j) * dt_j (left-endpoint covariance on each cell).  Deterministic as
    a function of the seed."""
    grid = np.asarray(grid, dtype=float)
    m = q.dim
    rng = np.random.default_rng(seed)
    steps = grid.size - 1
    values = np.zeros((grid.size, m))
    if steps:
        z = rng.standard_normal((steps, m))
        sqdt = np.sqrt(np.diff(grid))[:, None]
        piece = q.piece_index(grid[:-1])
        pieces = q.pieces
        incs = np.empty((steps, m))
        for p in np.unique(piece):
            mask = piece == p
            chol = np.linalg.cholesky(pieces[p][1])
            incs[mask] = z[mask] @ chol.T
        incs *= sqdt
        np.cumsum(incs, axis=0, out=values[1:])
    return SamplePath(grid, values, q)


def sample_diffusion_input(
    drift: PolyVectorField, sigma, grid, seed: int
) -> SamplePath:
    """Euler-Maruyama path of dW' = drift(W') dt + sigma dB, started at the
    origin, returned as a driving path with covariance rate sigma sigma^T."""
    sigma = np.asarray(sigma, dtype=float)
    m = sigma.shape[0]
    if sigma.shape != (m, m):
        raise ValueError("sigma must be square")
    if abs(np.linalg.det(sigma)) < 1e-14:
        raise ValueError("sigma must be invertible")
    if drift.n != m:
        raise ValueError("drift field dimension must match sigma")
    q = QSpec.constant(sigma @ sigma.T)
    grid = np.asarray(grid, dtype=float)
    rng = np.random.default_rng(seed)
    b = [compile_float(c) for c in drift.components]
    values = np.zeros((grid.size, m))
    x = np.zeros(m)
    for j in range(grid.size - 1):
        dt = grid[j + 1] - grid[j]
        db = rng.standard_normal(m) * np.sqrt(dt)
        x = x + np.array([bi(x) for bi in b]) * dt + sigma @ db
        values[j + 1] = x
    return SamplePath(grid, values, q)


@dataclass(frozen=True)
class IteratedIntegralTable:
    """All iterated Stratonovich integrals of one path up to a degree.

    ``values[w]`` holds the trajectory of the integral of the word w along
    the grid; the empty word is identically 1.
    """

    m: int
    degree: int
    grid: np.ndarray
    values: dict = field(default_factory=dict)

    def at(self, w: Word, t: float) -> float:
        idx = int(np.argmin(np.abs(self.grid - t)))
        if not np.isclose(self.grid[idx], t, rtol=0.0, atol=1e-12):
            raise ValueError(f"time {t} is not a grid point")
        return float(self.values[tuple(w)][idx])


def iterated_stratonovich(path: SamplePath, degree: int) -> IteratedIntegralTable:
    """Table of iterated Stratonovich integrals up to the given degree.

    Recursion over words: the empty word is 1; for w = (i1, i2, ..., ik) the
    trajectory is the trapezoidal cumulative integral of the tail
    (i2, ..., ik) against the increments of channel i1:

        I_w(t_{j+1}) = I_w(t_j) + (I_tail(t_j) + I_tail(t_{j+1})) / 2 * dW_{i1,j}

    For a doubled letter (i, i) the step is (W_{i,j+1}^2 - W_{i,j}^2) / 2, so
    the sum telescopes and I_(i,i) = W_i^2 / 2 exactly on any grid.  For
    (i, i, i) each cell adds a local error dW_{i,j}^3 / 12, so
    I_(i,i,i) - W_i^3 / 6 is the running sum of those terms.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    incs = path.increments()  # (J, m+1)
    table: dict[Word, np.ndarray] = {(): np.ones(path.grid.size)}
    prev: dict[Word, np.ndarray] = {(): table[()]}
    for _ in range(degree):
        nxt: dict[Word, np.ndarray] = {}
        for tail, tail_vals in prev.items():
            mid = 0.5 * (tail_vals[:-1] + tail_vals[1:])
            for i in range(path.m + 1):
                w = (i,) + tail
                traj = np.empty(path.grid.size)
                traj[0] = 0.0
                np.cumsum(mid * incs[:, i], out=traj[1:])
                nxt[w] = traj
        table.update(nxt)
        prev = nxt
    return IteratedIntegralTable(path.m, degree, path.grid, table)


def cf_evaluate(s: Series, table: IteratedIntegralTable, t: float) -> float:
    """Evaluate the truncated series against an integral table at time t:
    sum over words of s(w) * I_w(t)."""
    if s.m != table.m:
        raise ValueError(f"alphabet mismatch: series m={s.m}, table m={table.m}")
    if table.degree < s.max_degree:
        raise DegreeError(
            f"table degree {table.degree} below series degree {s.max_degree}"
        )
    total = 0.0
    for w, c in s.coeffs.items():
        total += float(c) * table.at(w, t)
    return total


def cf_trajectory(s: Series, table: IteratedIntegralTable, max_degree: int | None = None) -> np.ndarray:
    """Trajectory of the truncated series along the whole grid.

    ``max_degree`` optionally restricts the sum to words of at most that
    degree (useful for truncation-error studies on one table).
    """
    if s.m != table.m:
        raise ValueError(f"alphabet mismatch: series m={s.m}, table m={table.m}")
    limit = s.max_degree if max_degree is None else min(max_degree, s.max_degree)
    if table.degree < limit:
        raise DegreeError(f"table degree {table.degree} below requested degree {limit}")
    out = np.zeros(table.grid.size)
    for w, c in s.coeffs.items():
        if len(w) <= limit:
            out += float(c) * table.values[w]
    return out


# -- state-space simulation --------------------------------------------------


def _compiled_fields(model: AnalyticModel):
    return [[compile_float(c) for c in g.components] for g in model.fields]


def _field_at(compiled, x) -> np.ndarray:
    return np.array([[f(x) for f in comps] for comps in compiled])  # (m+1, n)


def _integrate_heun(model: AnalyticModel, path: SamplePath, guard: float) -> np.ndarray:
    compiled = _compiled_fields(model)
    incs = path.increments()
    n = model.n
    states = np.empty((path.grid.size, n))
    x = np.array([float(v) for v in model.x0])
    states[0] = x
    for j in range(path.steps):
        dxi = incs[j]
        fx = _field_at(compiled, x)  # (m+1, n)
        drift = dxi @ fx
        xp = x + drift
        fxp = _field_at(compiled, xp)
        x = x + 0.5 * (drift + dxi @ fxp)
        if np.max(np.abs(x)) > guard:
            raise DivergenceError(
                f"state norm exceeded divergence guard {guard:g} at step {j + 1}"
            )
        states[j + 1] = x
    return states


def _integrate_euler_ito(
    model: AnalyticModel, path: SamplePath, guard: float, q=None
) -> np.ndarray:
    """Euler-Maruyama on the Ito-converted drift (cross-validation scheme).

    Each cell converts with the covariance rate at its left endpoint, the
    rate ``sample_brownian`` draws that cell's increment with.
    """
    piece = np.zeros(path.steps, dtype=int)
    if q is not None:
        rates = [q]
    elif path.q is not None:
        rates = [
            [[Fraction(x).limit_denominator(10**12) for x in row] for row in mat]
            for _, mat in path.q.pieces
        ]
        piece = path.q.piece_index(path.grid[:-1])
    else:
        rates = [[[Fraction(int(i == j)) for j in range(model.m)] for i in range(model.m)]]
    drifts = [
        [compile_float(c) for c in stratonovich_to_ito_drift(model, r).components]
        for r in rates
    ]
    compiled_noise = [[compile_float(c) for c in g.components] for g in model.fields[1:]]
    incs = path.increments()
    states = np.empty((path.grid.size, model.n))
    x = np.array([float(v) for v in model.x0])
    states[0] = x
    for j in range(path.steps):
        dt = incs[j, 0]
        dw = incs[j, 1:]
        step = np.array([bi(x) for bi in drifts[piece[j]]]) * dt
        for i, comps in enumerate(compiled_noise):
            step = step + np.array([f(x) for f in comps]) * dw[i]
        x = x + step
        if np.max(np.abs(x)) > guard:
            raise DivergenceError(
                f"state norm exceeded divergence guard {guard:g} at step {j + 1}"
            )
        states[j + 1] = x
    return states


def simulate_analytic(
    model: AnalyticModel,
    path: SamplePath,
    method: str = "heun",
    guard: float = DIVERGENCE_GUARD,
    q=None,
    return_states: bool = False,
):
    """Output trajectory of an analytic model driven by the given path.

    ``method="heun"`` integrates the Stratonovich dynamics with the Heun
    predictor-corrector scheme on the path's own increments;
    ``method="euler_ito"`` integrates the Ito-converted drift with
    Euler-Maruyama for cross-validation (``q`` overrides the covariance rate
    used in the conversion; defaults to the path's, piece by piece, else the
    identity).
    """
    if model.m != path.m:
        raise ValueError(f"model has m={model.m} channels, path has {path.m}")
    if method == "heun":
        states = _integrate_heun(model, path, guard)
    elif method == "euler_ito":
        states = _integrate_euler_ito(model, path, guard, q)
    else:
        raise ValueError(f"unknown method {method!r}")
    readout = compile_float(model.readout)
    y = np.array([readout(x) for x in states])
    if return_states:
        return y, states
    return y


def simulate_bilinear(
    model: BilinearModel,
    path: SamplePath,
    method: str = "heun",
    guard: float = DIVERGENCE_GUARD,
    return_states: bool = False,
):
    """Output trajectory of a bilinear model, via the linear-field embedding
    (identical arithmetic to simulate_analytic on that embedding)."""
    return simulate_analytic(
        linear_embedding(model), path, method=method, guard=guard, return_states=return_states
    )


# -- finite-state filtering demo ---------------------------------------------


def zakai_build(generator, obs, phi, init) -> BilinearModel:
    """Bilinear model of the unnormalized filter of a finite-state chain.

    ``generator`` is the d x d rate matrix of the hidden chain (zero row
    sums, nonnegative off-diagonals), ``obs`` the per-state observation
    values, ``phi`` the per-state test function, ``init`` the initial
    distribution.  The state of the returned model is the unnormalized
    conditional measure p with dynamics

        dp = (Lambda^T - diag(obs)^2 / 2) p dt + diag(obs) p o dW,

    and the output is the unnormalized filter value phi^T p.
    """
    lam = [[Fraction(v) for v in row] for row in generator]
    d = len(lam)
    if any(len(row) != d for row in lam):
        raise ValueError("generator must be square")
    for i, row in enumerate(lam):
        if sum(row) != 0:
            raise ValueError(f"generator row {i} does not sum to zero")
        if any(row[j] < 0 for j in range(d) if j != i):
            raise ValueError(f"generator row {i} has a negative off-diagonal")
    h = [Fraction(v) for v in obs]
    f = [Fraction(v) for v in phi]
    p0 = [Fraction(v) for v in init]
    if len(h) != d or len(f) != d or len(p0) != d:
        raise ValueError("obs, phi, init must all have the generator's dimension")
    if any(p < 0 for p in p0) or sum(p0) != 1:
        raise ValueError("init must be a probability vector")
    a0 = tuple(
        tuple(
            lam[j][i] - (Fraction(1, 2) * h[i] * h[i] if i == j else 0)
            for j in range(d)
        )
        for i in range(d)
    )
    a1 = tuple(tuple(h[i] if i == j else Fraction(0) for j in range(d)) for i in range(d))
    return BilinearModel(d, 1, tuple(p0), (a0, a1), tuple(f))


def normalize_filter(sigma_phi: np.ndarray, sigma_one: np.ndarray) -> np.ndarray:
    """Pointwise ratio sigma(phi) / sigma(1); the normalizer must stay
    positive, otherwise the discretization failed."""
    sigma_phi = np.asarray(sigma_phi, dtype=float)
    sigma_one = np.asarray(sigma_one, dtype=float)
    if sigma_phi.shape != sigma_one.shape:
        raise ValueError("trajectories must have equal shapes")
    if np.any(sigma_one <= 0):
        j = int(np.argmax(sigma_one <= 0))
        raise PositivityError(
            f"unnormalized filter mass is nonpositive at index {j}; refine the grid"
        )
    return sigma_phi / sigma_one


def replicate_seed(seed: int, index: int) -> int:
    """Generator seed of Monte Carlo replicate ``index`` for a study seed."""
    return seed ^ index


def zakai_readout(model: BilinearModel, path: SamplePath):
    """Simulate a filter model once; returns (sigma_phi, sigma_one, states)."""
    _, states = simulate_bilinear(model, path, return_states=True)
    phi = np.array([float(v) for v in model.c])
    sigma_phi = states @ phi
    sigma_one = states @ np.ones(model.n)
    return sigma_phi, sigma_one, states
