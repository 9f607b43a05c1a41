"""Driving-path simulation, iterated Stratonovich integrals, pathwise series
evaluation, state-space integration, and the finite-state filter demo.

Conventions shared by everything in this module:

* Driving paths are m-dimensional, start at the origin, and live on a strictly
  increasing time grid.  Letter 0 is the time channel (its "increment" is
  dt), letters 1..m are the path channels.
* A Monte Carlo study is one array with a leading replicate axis: path values
  (R, J+1, m) and states (R, J+1, n), i.e. stream by time by channel.
  Sampling, simulation and the filter readout index with ``...``, so one
  code path serves one path (J+1, m) and R of them; time recursions loop
  over grid steps, never over replicates.
* The iterated integral of a word integrates the tail of the word first: the
  outermost integration variable carries the first letter.  Discretization is
  the trapezoidal rule, which converges to the Stratonovich value.
* An integral table holds level k as one ((m+1)^k, J+1) array, the word w's
  trajectory in row ``word_index(w, m)`` (the layout of :mod:`cfrealize.fps`).
* One integrator, ``simulate_states``, steps every state: models run the Heun
  predictor-corrector scheme on the same increment stream as the integral
  tables, so series-vs-simulation comparisons are pathwise, not merely in
  distribution, and a diffusion input is the Euler-Ito state of a model.
  A state that is not finite, or past ``DIVERGENCE_GUARD``, stops it with
  ``DivergenceError``.  The states, the ``compile_float`` readouts and
  ``zakai_readout`` are elementwise multiplies and adds, each sum in a fixed
  order and each monomial a left-to-right product (no ``pow``).  No BLAS
  product (which may fuse multiply-adds) enters them, so their bytes follow
  neither the BLAS kernel nor numpy's SIMD dispatch; a study's one product,
  ``sample_brownian``'s Cholesky factor, is exact for the identity Q.
* Replicate k of a study seeded with s is drawn from its own generator,
  seeded ``replicate_seed(s, k) = s ^ k``, and equals the single path
  sampled with that seed; identical seeds and configuration give
  bit-identical output.  Study seeds that differ only in their low bits
  share streams: seeds 2 and 3 with two replicates both use generators 2, 3.
* Studies take their path as an argument; the command line draws every
  study's Brownian noise in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import prod

import numpy as np

from .errors import DegreeError, DivergenceError, ModeMismatchError, PositivityError
from .fps import FLOAT, Series, word_index
from .symdiff import (
    AnalyticModel,
    BilinearModel,
    MultiPoly,
    PolyVectorField,
    compile_float,
    linear_embedding,
    stratonovich_to_ito_drift,
)

DIVERGENCE_GUARD = 1e12
GUARD_BLOCK = 64  # simulate_states checks the guard at least once per this many steps
AFFINE_MAX_DIM = 3  # the largest n stepped by the affine map (measured crossover)


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
            # The matrix the sampler factorizes: cholesky reads the lower triangle.
            mats.append(np.tril(q) + np.tril(q, -1).T)
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


@dataclass(frozen=True)
class SamplePath:
    """Discretized continuous driving path: values (..., J+1, m) over a
    strictly increasing grid with value 0 at time 0.  Leading axes index
    replicates.  ``q`` optionally records the covariance rate the path was
    sampled with.  Every value and every increment must be finite."""

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
        if values.ndim < 2 or values.shape[-2] != grid.size:
            raise ValueError("values must have shape (..., len(grid), m)")
        with np.errstate(all="ignore"):  # what overflows is refused below
            steps = np.diff(values, axis=-2)
        # A value, then an increment (named by its end row), not finite.
        for what, table, first in (("value", values, 0), ("increment", steps, 1)):
            if not np.isfinite(table).all():
                *rep, row, _ = np.argwhere(~np.isfinite(table))[0].tolist()
                where = f"replicate {', '.join(map(str, rep))}, " if rep else ""
                raise ValueError(f"path {what} not finite at {where}row {row + first}")
        if not np.all(values[..., 0, :] == 0.0):
            raise ValueError("path must start at the origin")
        if not values.flags.writeable:
            values = values.copy()  # functional derivatives bump rows in place
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def steps(self) -> int:
        return self.grid.size - 1

    @property
    def m(self) -> int:
        return self.values.shape[-1]

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def replicate(self, k: int) -> "SamplePath":
        """Replicate k of a batched path, as a single path."""
        return SamplePath(self.grid, self.values[k], self.q)

    def increments(self) -> np.ndarray:
        """Increment stream of shape (..., J, m+1): column 0 is dt, column i
        the increment of channel i."""
        dw = np.diff(self.values, axis=-2)
        dt = np.broadcast_to(np.diff(self.grid)[:, None], dw.shape[:-1] + (1,))
        return np.concatenate([dt, dw], axis=-1)

    def index_of(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.grid - t)))
        if not np.isclose(self.grid[idx], t, rtol=0.0, atol=1e-12):
            raise ValueError(f"time {t} is not a grid point")
        return idx


def make_grid(horizon: float, steps: int) -> np.ndarray:
    """Uniform grid 0 = t_0 < ... < t_J = horizon with J = steps cells."""
    if not 0 < horizon < np.inf:  # a NaN fails too
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    return np.linspace(0.0, horizon, steps + 1)


def replicate_seed(seed: int, index: int) -> int:
    """Generator seed of Monte Carlo replicate ``index`` for a study seed.
    Seeds that differ only in bits below the replicate count share streams:
    seeds 2 and 3 with two replicates draw the same two paths, swapped."""
    return seed ^ index


def _normal_draws(seed: int, replicates: int | None, shape) -> np.ndarray:
    """Standard normals (R, *shape), replicate k drawn from
    ``default_rng(replicate_seed(seed, k))``; with ``replicates=None``,
    replicate 0 of one (``seed ^ 0 == seed``) without the replicate axis."""
    out = np.empty((1 if replicates is None else replicates, *shape))
    for k in range(len(out)):
        out[k] = np.random.default_rng(replicate_seed(seed, k)).standard_normal(shape)
    return out[0] if replicates is None else out


def sample_brownian(q: QSpec, grid, seed: int, replicates: int | None = None) -> SamplePath:
    """Driving path with independent Gaussian increments of covariance
    Q(t_j) * dt_j (left-endpoint covariance on each cell).  Deterministic as
    a function of the seed.

    With ``replicates=R`` the values have shape (R, J+1, m), and replicate k
    equals the single path sampled with seed ``replicate_seed(seed, k)``
    (``seed ^ k``; see that function for the streams seeds share).
    """
    grid = np.asarray(grid, dtype=float)
    incs = _normal_draws(seed, replicates, (grid.size - 1, q.dim))
    # Pieces start at increasing times, so each covers one run of cells.
    bounds = np.searchsorted(q.piece_index(grid[:-1]), np.arange(len(q.pieces) + 1))
    for (_, mat), a, b in zip(q.pieces, bounds, bounds[1:]):
        incs[..., a:b, :] = incs[..., a:b, :] @ np.linalg.cholesky(mat).T
    incs *= np.sqrt(np.diff(grid))[:, None]
    values = np.zeros(incs.shape[:-2] + (grid.size, q.dim))
    np.cumsum(incs, axis=-2, out=values[..., 1:, :])
    return SamplePath(grid, values, q)


def sample_diffusion_input(
    drift: PolyVectorField, sigma, grid, seed: int, replicates: int | None = None
) -> SamplePath:
    """Euler-Maruyama path of dW' = drift(W') dt + sigma dB, started at the
    origin, returned as a driving path with covariance rate sigma sigma^T.
    ``replicates`` adds a leading replicate axis as in ``sample_brownian``.
    It is the Euler-Ito state of the model x0 = 0, g0 = drift, g_i = column
    i of sigma; constant noise fields have no Ito correction."""
    sigma = np.asarray(sigma, dtype=float)
    m = sigma.shape[0]
    if sigma.shape != (m, m):
        raise ValueError("sigma must be square")
    if np.linalg.matrix_rank(sigma) < m:  # relative to sigma's largest singular value
        raise ValueError("sigma must be invertible")
    if drift.n != m:
        raise ValueError("drift field dimension must match sigma")
    cols = [PolyVectorField(tuple(MultiPoly.const(m, v) for v in c)) for c in sigma.T.tolist()]
    model = AnalyticModel(m, m, (0,) * m, (drift, *cols), MultiPoly.zero(m))
    noise = sample_brownian(QSpec.identity(m), grid, seed, replicates)
    states = simulate_states(model, noise, method="euler_ito")
    return SamplePath(noise.grid, states, QSpec.constant(sigma @ sigma.T))


@dataclass(frozen=True)
class IteratedIntegralTable:
    """All iterated Stratonovich integrals of one path up to a degree.

    ``table[w]`` is the trajectory of the integral of the word w along the
    grid, row ``word_index(w, m)`` of ``levels[len(w)]``; the empty word is
    identically 1.
    """

    m: int
    degree: int
    grid: np.ndarray
    levels: tuple = ()

    def __getitem__(self, w) -> np.ndarray:
        if len(w) > self.degree:
            raise DegreeError(f"word of degree {len(w)} beyond table degree {self.degree}")
        return self.levels[len(w)][word_index(w, self.m)]


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

    Level k is one block per first letter i: word_index((i,) + tail) = i * R
    + word_index(tail), R = (m+1)^(k-1), so block i is rows [i*R, (i+1)*R) in
    tail order, formed in place (the last block first holds the midpoints).
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if path.values.ndim != 2:
        raise ValueError("iterated_stratonovich takes one path; use path.replicate(k)")
    incs = path.increments()  # (J, m+1)
    # The levels are row blocks of one array: one allocation per table, which
    # keeps the peak RSS of a study that builds many tables where it was.
    bounds = list(accumulate(((path.m + 1) ** k for k in range(degree + 1)), initial=0))
    table = np.zeros((bounds[-1], path.grid.size))
    table[0] = 1.0
    levels = tuple(table[a:b] for a, b in zip(bounds, bounds[1:]))
    for prev, level in zip(levels, levels[1:]):
        rows = len(prev)
        mid = level[-rows:, 1:]
        np.add(prev[:, :-1], prev[:, 1:], out=mid)
        mid *= 0.5
        for i in range(path.m + 1):
            block = level[i * rows : (i + 1) * rows, 1:]
            np.multiply(mid, incs[:, i], out=block)
            np.cumsum(block, axis=1, out=block)
    return IteratedIntegralTable(path.m, degree, path.grid, levels)


def cf_trajectory(s: Series, table: IteratedIntegralTable) -> np.ndarray:
    """Running sums of the truncated series along the whole grid, one row
    per level: row d, of shape (s.max_degree + 1, J+1), sums the words of
    degree at most d, so row -1 is the whole series.  Terms are added in
    graded-lex order, skipping zero coefficients, in one walk.  The series
    must be in float mode (see ``to_float``).
    """
    if s.mode != FLOAT:
        raise ModeMismatchError("cf_trajectory needs a float-mode series; use to_float")
    if s.m != table.m:
        raise ValueError(f"alphabet mismatch: series m={s.m}, table m={table.m}")
    if table.degree < s.max_degree:
        raise DegreeError(f"table degree {table.degree} below requested degree {s.max_degree}")
    out = np.empty((s.max_degree + 1, table.grid.size))
    total = np.zeros(table.grid.size)
    for level, rows, row_out in zip(s.levels, table.levels, out):
        for c, row in zip(level, rows):
            if c:
                total += c * row
        row_out[:] = total
    return out


# -- state-space simulation --------------------------------------------------


def exact_rates(path: SamplePath, m: int):
    """The exact rational covariance rate of each piece of ``path.q`` (of the
    m x m identity when the path records none), and the piece of each cell.

    Each cell takes the rate at its left endpoint, the rate
    ``sample_brownian`` draws that cell's increment with.
    """
    q = QSpec.identity(m) if path.q is None else path.q
    exact = [
        [[Fraction(x).limit_denominator(10**12) for x in row] for row in mat] for _, mat in q.pieces
    ]
    return exact, q.piece_index(path.grid[:-1])


def _monomial_table(fields, n: int):
    """The fields' monomials 1, x_1..x_n, then the others in sorted order,
    each as its variables left to right; and their coefficients (P, m+1, T,
    n), entry [p, i, t, k] that of monomial t in component k of F_i in
    piece p."""
    base = [tuple(int(i == l) for i in range(n)) for l in range(-1, n)]  # 1, x_1..x_n
    others = {e for fs in fields for g in fs for c in g.components for e in c.terms} - set(base)
    monomials = base + sorted(others)
    coef = np.array(
        [[[[float(c.terms.get(e, 0)) for c in g.components] for e in monomials] for g in fs] for fs in fields]
    )
    return [[i for i, a in enumerate(e) for _ in range(a)] for e in monomials], coef


def _guard(block, first: int):
    """Raise ``DivergenceError`` naming the first step of ``block`` (steps
    on axis 0, the first of them step ``first``) with a state not finite or
    past ``DIVERGENCE_GUARD``."""
    ok = abs(block) <= DIVERGENCE_GUARD  # a NaN fails too
    if not ok.all():
        bad = first + int(np.argmin(ok.reshape(len(ok), -1).all(axis=1)))
        raise DivergenceError(
            f"state not finite or past divergence guard {DIVERGENCE_GUARD:g} at step {bad}"
        )


def _map_cells(coefs, x, heun: bool) -> None:
    """Step x[0] (n, R) through cells (cells, n+1, n, R) of the coefficients
    of 1, x_1..x_n by the exact map of affine fields (see
    ``simulate_states``), writing x[1], x[2], ...: row 0 of a cell is c, row
    1 + l holds B[:, l]."""
    t, c = coefs[:, 1:], coefs[:, 0]
    n = c.shape[1]
    if heun:  # M = (B + B^2 / 2) + I, v = c + (B c) / 2; sums over p, l in order
        sq = t[:, :, 0, None] * t[:, None, 0]
        bc = t[:, 0] * c[:, 0, None]
        for p in range(1, n):
            sq += t[:, :, p, None] * t[:, None, p]
            bc += t[:, p] * c[:, p, None]
        sq *= 0.5
        t += sq
        bc *= 0.5
        c += bc
    t[:, range(n), range(n)] += 1.0
    for mt, v, before, after in zip(t, c, x, x[1:]):
        np.multiply(mt[0], before[0], out=after)  # (sum_l M[:, l] x_l) + v, l in order
        for l in range(1, n):
            after += mt[l] * before[l]
        after += v


def _kernel_cells(coefs, x, heun: bool, factors) -> None:
    """Step x[0] (n, R) through cells (cells, T, n, R) of the coefficients
    of the monomials ``factors`` by the polynomial kernel (see
    ``simulate_states``), writing x[1], x[2], ..."""
    n = x.shape[1]
    mono, terms = np.ones((len(factors), x.shape[-1])), np.empty(coefs.shape[1:])
    higher = list(zip(mono[n + 1 :], factors[n + 1 :]))  # the monomials of degree >= 2
    later = list(terms[2:])

    def drift(y, ct):
        mono[1 : n + 1] = y
        for row, (a, b, *more) in higher:
            np.multiply(y[a], y[b], out=row)
            for c in more:
                row *= y[c]
        np.multiply(mono[:, None], ct, out=terms)
        total = terms[0] + terms[1]
        for term in later:
            total += term
        return total

    for ct, before, after in zip(coefs, x, x[1:]):
        d = drift(before, ct)
        if heun:
            d = (d + drift(before + d, ct)) * 0.5
        np.add(before, d, out=after)


def simulate_states(model: AnalyticModel, path: SamplePath, method: str = "heun") -> np.ndarray:
    """States (..., J+1, n) of an analytic model driven by the given path
    (values (..., J+1, m), one state trajectory per replicate): the solution
    of dx = sum_i F_i(x) dxi_i over the increments dxi = (dt, dW_1..dW_m).

    ``method="heun"`` integrates the Stratonovich dynamics with the Heun
    predictor-corrector scheme on the path's own increments;
    ``method="euler_ito"`` integrates the Ito-converted drift with
    Euler-Maruyama for cross-validation, converting with the path's
    covariance rate piece by piece, else with the identity.  A state that is
    not finite, or past ``DIVERGENCE_GUARD`` in absolute value, raises
    ``DivergenceError`` naming its step.  The guard reads the states once per
    block of steps, so a diverging block runs on to its end (under
    ``np.errstate(all="ignore")``) before the first bad step is named.

    One driver steps time-major with the replicates last, a state (n, R).
    Per block it takes the increments from the path values (no copy of the
    whole increment stream is held) and contracts them into the fields'
    monomial coefficients C_j[t] = sum_i dxi_{i,j} coef_i[t] (monomials 1,
    x_1..x_n, then the others sorted; fewer cells than ``GUARD_BLOCK`` when
    there are more than n + 1, so C is never larger than an affine block's).
    Affine fields (every field of every piece of degree <= 1) in
    n <= ``AFFINE_MAX_DIM`` dimensions then take the scheme's exact map
    x_{j+1} = M_j x_j + v_j: with c and B the constant and linear parts of
    C_j, Heun gives M = (B + B^2 / 2) + I and v = c + (B c) / 2, Euler-Ito
    M = B + I and v = c.  Other fields take the kernel
    x_{j+1} = x_j + (D(x_j) + D(x_j + D(x_j))) * 0.5 (Heun) or x_j + D(x_j)
    (Euler-Ito), with D(y) = sum_t mono_t(y) C_j[t] and each monomial a
    left-to-right product of its variables.  Every sum runs over its index
    in increasing order from its first term (i; t; p in
    (B^2)_kl = sum_p B_kp B_pl; l in (B c)_k and (M x)_k, v_k added last) in
    separate elementwise multiplies and adds, so the states follow no BLAS
    kernel and no SIMD dispatch.
    """
    if model.m != path.m:
        raise ValueError(f"model has m={model.m} channels, path has {path.m}")
    if method == "heun":
        fields, piece = [model.fields], np.zeros(path.steps, dtype=int)
    elif method == "euler_ito":
        rates, piece = exact_rates(path, model.m)
        fields = [(stratonovich_to_ito_drift(model, r), *model.fields[1:]) for r in rates]
    else:
        raise ValueError(f"unknown method {method!r}")
    # fields[p] lists F_0..F_m in the cells of piece p; piece[j] names cell j's.
    factors, coef = _monomial_table(fields, model.n)
    affine = model.n <= AFFINE_MAX_DIM and len(factors) == model.n + 1
    cells_step = _map_cells if affine else partial(_kernel_cells, factors=factors)
    lead = path.values.shape[:-2]
    # (J+1, m, R): each block's increments are taken from it when it is stepped
    values = path.values.reshape(prod(lead), path.grid.size, model.m).transpose(1, 2, 0)
    dt = np.diff(path.grid)[:, None, None, None]
    reps = values.shape[-1]
    states = np.empty((reps, path.grid.size, model.n))
    x = np.empty((GUARD_BLOCK + 1, model.n, reps))  # x[0] the state before a block
    x[0] = np.array([float(v) for v in model.x0])[:, None]
    states[:, 0] = x[0].T
    block = max(1, GUARD_BLOCK * (model.n + 1) // len(factors))  # C no larger than an affine block
    dw = np.empty((block, model.m, 1, 1, reps))  # a block's dW_1..dW_m per cell
    with np.errstate(all="ignore"):  # the guard reports what overflows
        for a in range(0, path.steps, block):
            cells = min(block, path.steps - a)
            d, pc = dw[:cells], coef[piece[a : a + cells], ..., None]
            np.subtract(values[a + 1 : a + cells + 1], values[a : a + cells], out=d[:, :, 0, 0])
            # (cells, T, n, R), summed in place so that two blocks of C at most are live;
            # i = 1 then i = 0 is the sum over i = 0, 1, since addition commutes
            c = d[:, 0] * pc[:, 1]
            c += dt[a : a + cells] * pc[:, 0]
            for i in range(2, model.m + 1):
                c += d[:, i - 1] * pc[:, i]
            cells_step(c, x, method == "heun")
            _guard(x[1 : cells + 1], a + 1)
            states[:, a + 1 : a + cells + 1] = x[1 : cells + 1].transpose(2, 0, 1)
            x[0] = x[cells]
    return states.reshape(lead + states.shape[1:])


def simulate_analytic(model: AnalyticModel, path: SamplePath, method: str = "heun") -> np.ndarray:
    """Output trajectory (..., J+1): the readout of ``simulate_states``."""
    return compile_float(model.readout)(simulate_states(model, path, method))


def simulate_bilinear(model: BilinearModel, path: SamplePath) -> np.ndarray:
    """Output trajectory of a bilinear model, via the linear-field embedding
    (identical arithmetic to Heun ``simulate_analytic`` on that embedding)."""
    return simulate_analytic(linear_embedding(model), path)


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
    """Pointwise ratio sigma(phi) / sigma(1) of trajectories (..., J+1); the
    normalizer must stay positive, otherwise the discretization failed."""
    sigma_phi = np.asarray(sigma_phi, dtype=float)
    sigma_one = np.asarray(sigma_one, dtype=float)
    if sigma_phi.shape != sigma_one.shape:
        raise ValueError("trajectories must have equal shapes")
    if np.any(sigma_one <= 0):
        *rep, j = np.unravel_index(np.argmax(sigma_one <= 0), sigma_one.shape)
        where = f" of replicate {tuple(map(int, rep))}" if rep else ""
        raise PositivityError(
            f"unnormalized filter mass is nonpositive at index {j}{where}; refine the grid"
        )
    return sigma_phi / sigma_one


def zakai_readout(model: BilinearModel, path: SamplePath):
    """Simulate a filter model along every replicate of the path; returns
    (sigma_phi, sigma_one), each (..., J+1): the states of its linear
    embedding against phi and against the all-ones vector, through
    ``compile_float``."""
    embedding = linear_embedding(model)
    ones = MultiPoly(model.n, {tuple(int(i == k) for i in range(model.n)): 1 for k in range(model.n)})
    readouts = compile_float([embedding.readout, ones])(simulate_states(embedding, path))
    return tuple(np.moveaxis(readouts, -1, 0))
