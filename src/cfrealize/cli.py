"""Command-line front end.

Every command is a pure function of its input files, flags, and seed:
repeated invocations produce byte-identical outputs.  Stochastic commands
require an explicit --seed; there is no wall-clock default.  They sample all
their noise in ``_study_path``.  Reports always carry the truncation
parameters and tolerances they were computed with.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import cache

import numpy as np

from . import dupire, hankel, paths, realize
from .errors import CFError
from .fps import (
    MAX_CELLS,
    RATIONAL,
    check_word_count,
    format_series,
    read_series,
    to_float,
    word_count,
)
from .symdiff import (
    AnalyticModel,
    BilinearModel,
    bilinear_coefficients,
    cf_coefficients,
    format_model,
    read_model,
)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(name: str, payload) -> str:
    """Report ``name`` as strict JSON text; CFError for a NaN or infinite value."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise CFError(f"report {name} would hold a NaN or infinite value; not written") from None


def _write_json(path: str, payload) -> None:
    _atomic_write(path, _json_text(os.path.basename(path), payload))


def _emit(args, name: str, payload) -> None:
    """Print a JSON report, and write it to ``name`` under --out if given."""
    text = _json_text(name, payload)
    sys.stdout.write(text)
    if args.out:
        _atomic_write(os.path.join(args.out, name), text)


def _check_word_count(m: int, flag: str, degree: int | None) -> None:
    if degree is not None:
        check_word_count(m, degree, flag)


def _check_cells(cells: int, flags: str) -> None:
    if cells > MAX_CELLS:
        raise CFError(f"{flags} ask for {cells} float cells, above the limit of {MAX_CELLS}")


def _check_study(args, width: int, scale: int = 1) -> None:
    """Reject a study before anything is built or sampled: a replicate count
    or a grid step count below 1, or paths and states of --reps x
    (--grid * scale + 1) x width cells past MAX_CELLS."""
    if args.reps < 1:
        raise CFError(f"--reps must be at least 1, got {args.reps}")
    if args.grid < 1:
        raise CFError(f"--grid must be at least 1, got {args.grid}")
    cells = args.reps * (args.grid * scale + 1) * width
    _check_cells(cells, f"--reps {args.reps} and --grid {args.grid}")


def _series_coefficients(model, deg: int):
    if isinstance(model, BilinearModel):
        return bilinear_coefficients(model, deg)
    return cf_coefficients(model, deg)


def _write_replicates(out: str, grid, columns: dict[str, np.ndarray], count: int) -> None:
    """One CSV per replicate k < count, rep<k>.csv, from (R, J+1) columns.
    The header and time column are formatted once, into a template that
    %-formats a replicate's values row by row (%r of a float is its repr)."""
    row = ",%r" * len(columns) + "\n"
    template = ",".join(["t", *columns]) + "\n" + "".join([repr(t) + row for t in grid.tolist()])
    for rep in range(count):
        values = np.stack([col[rep] for col in columns.values()], axis=-1).ravel().tolist()
        _atomic_write(os.path.join(out, f"rep{rep:03d}.csv"), template % tuple(values))


def cmd_coeffs(args) -> int:
    model = read_model(args.model)
    _check_word_count(model.m, "--deg", args.deg)
    s = _series_coefficients(model, args.deg)
    if args.mode == "float":
        s = to_float(s)
    _atomic_write(os.path.join(args.out, "series.txt"), format_series(s))
    per_degree = [sum(map(bool, level)) for level in s.levels]
    summary = {
        "m": s.m,
        "degree": s.max_degree,
        "mode": s.mode,
        "nonzero_per_degree": {str(d): count for d, count in enumerate(per_degree)},
        "nonzero_total": sum(per_degree),
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    print(f"wrote {os.path.join(args.out, 'series.txt')} ({sum(per_degree)} nonzero records)")
    return 0


def cmd_rank(args) -> int:
    if (args.bracket is None) != (args.obs is None):
        missing = "--obs" if args.obs is None else "--bracket"
        raise CFError(f"the Lie rank needs both --bracket and --obs; {missing} is missing")
    s = read_series(args.series)
    for flag in ("rows", "cols", "bracket", "obs"):
        _check_word_count(s.m, f"--{flag}", getattr(args, flag))
    block = hankel.hankel_build(s, args.rows, args.cols)
    if s.mode == RATIONAL:
        report = hankel.rank_exact(block)
    else:
        report = hankel.rank_numeric(block, tol=args.tol)
    payload = {"hankel": report.as_dict()}
    if args.bracket is not None:
        lie = hankel.lie_rank(s, args.bracket, args.obs, tol=args.tol)
        payload["lie"] = lie.as_dict()
    _emit(args, "rank.json", payload)
    return 0


def cmd_lierank(args) -> int:
    s = read_series(args.series)
    for flag in ("bracket", "obs"):
        _check_word_count(s.m, f"--{flag}", getattr(args, flag))
    report = hankel.lie_rank(s, args.bracket, args.obs, tol=args.tol)
    _emit(args, "rank.json", {"lie": report.as_dict()})
    return 0


def cmd_realize(args) -> int:
    s = read_series(args.series)
    _check_word_count(s.m, "--deg", args.deg)
    result = realize.bilinear_realize(s, args.deg)
    _atomic_write(os.path.join(args.out, "model.txt"), format_model(result.model))
    payload = {
        "dimension": result.model.n,
        "basis_words": [list(w) for w in result.basis_words],
        "verified_degree": result.verified_degree,
        "max_discrepancy": str(result.max_discrepancy),
    }
    _write_json(os.path.join(args.out, "verify.json"), payload)
    print(f"realized dimension {result.model.n}, exact to degree {result.verified_degree}")
    return 0


def _study_path(args, m: int, scale: int = 1):
    """The --reps replicates (R, J+1, m) of unit-covariance Brownian noise of
    a study, on --grid * scale cells up to --horizon, seeded with --seed."""
    grid = paths.make_grid(args.horizon, args.grid * scale)
    return paths.sample_brownian(paths.QSpec.identity(m), grid, args.seed, args.reps)


def _simulate_study(model, args):
    """The study path of a model and its simulated outputs (R, J+1)."""
    path = _study_path(args, model.m)
    if isinstance(model, BilinearModel):
        return path, paths.simulate_bilinear(model, path)
    return path, paths.simulate_analytic(model, path)


def _path_columns(path) -> dict[str, np.ndarray]:
    return {f"W{i + 1}": path.values[..., i] for i in range(path.m)}


def _study_header(args) -> dict:
    """The study flags that every Monte Carlo summary records."""
    return {"horizon": args.horizon, "grid_steps": args.grid, "replicates": args.reps, "seed": args.seed}


def cmd_simulate(args) -> int:
    model = read_model(args.model)
    _check_study(args, max(model.m, model.n))
    path, y = _simulate_study(model, args)
    _write_replicates(args.out, path.grid, {**_path_columns(path), "Y_sim": y}, args.reps)
    terminal = y[:, -1].tolist()
    summary = {
        **_study_header(args),
        "terminal_median": float(np.median(terminal)),
        "terminal_mean": float(np.mean(terminal)),
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    print(f"simulated {args.reps} replicates to t={args.horizon}")
    return 0


def cmd_compare(args) -> int:
    model = read_model(args.model)
    _check_word_count(model.m, "--deg", args.deg)
    _check_study(args, max(model.m, model.n))
    table_cells = word_count(model.m, args.deg) * (args.grid + 1)
    _check_cells(table_cells, f"--deg {args.deg} and --grid {args.grid}")
    s = to_float(_series_coefficients(model, args.deg))
    path, y = _simulate_study(model, args)
    errors = {d: [] for d in range(1, args.deg + 1)}
    ycf = np.empty_like(y)
    for rep in range(args.reps):
        # One table per replicate, dropped before the next is built: a stacked
        # degree-6 table would hold 127 trajectories of every replicate at once.
        sums = paths.cf_trajectory(s, paths.iterated_stratonovich(path.replicate(rep), args.deg))
        ycf[rep] = sums[-1]
        for d in errors:
            errors[d].append(abs(float(sums[d, -1]) - float(y[rep, -1])))
    columns = {**_path_columns(path), "Y_sim": y, "Y_cf": ycf}
    _write_replicates(args.out, path.grid, columns, args.reps)
    summary = {
        **_study_header(args),
        "series_degree": args.deg,
        "median_terminal_error_per_degree": {
            str(d): float(np.median(v)) for d, v in errors.items()
        },
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    print("median terminal truncation errors: " + json.dumps(summary["median_terminal_error_per_degree"]))
    return 0


DECAY_FACTOR = 1.2


def _decay_factors(rms: dict[int, float]) -> list[float]:
    """Each RMS over the next finer one, from {grid steps: RMS} in refinement
    order; CFError for an RMS that is 0 or not finite."""
    for steps, value in rms.items():
        if not 0 < value < np.inf:
            raise CFError(f"residual RMS on {steps} grid steps is {value!r}; no decay factor exists")
    values = list(rms.values())
    return [a / b for a, b in zip(values, values[1:])]


def cmd_ito_check(args) -> int:
    from .symdiff import MultiPoly

    _check_study(args, 1, scale=4)
    linear = dupire.MemorylessFunctional(MultiPoly.var(2, 2), 1)
    quad = dupire.MemorylessFunctional(MultiPoly.var(2, 2) * MultiPoly.var(2, 2), 1)
    # The bumps restore every row exactly, so both checks share one path.
    path = _study_path(args, 1)
    linear_report = dupire.functional_ito_residual(linear, path, args.horizon)
    reports = [linear_report.as_dict()]
    quad_rms = {}
    for scale in (1, 2, 4):
        scaled = path if scale == 1 else _study_path(args, 1, scale)
        rep = dupire.functional_ito_residual(quad, scaled, args.horizon)
        reports.append(rep.as_dict())
        quad_rms[args.grid * scale] = rep.rms
    factors = _decay_factors(quad_rms)
    ok = linear_report.rms <= 1e-10 and all(f >= DECAY_FACTOR for f in factors)
    payload = {
        "reports": reports,
        "quadratic_decay_factors": factors,
        "linear_rms": linear_report.rms,
        "pass": bool(ok),
    }
    _emit(args, "residuals.json", payload)
    return 0 if ok else 1


def cmd_hijab_check(args) -> int:
    model = read_model(args.model)
    if not isinstance(model, AnalyticModel):
        raise CFError("decomposition check needs an analytic model")
    _check_study(args, max(model.m, model.n), scale=2)
    rms = {}
    reports = []
    for scale in (1, 2):
        rep = dupire.hijab_decomposition_check(model, _study_path(args, model.m, scale))
        reports.append(rep.as_dict())
        rms[args.grid * scale] = rep.ito_rms
    [factor] = _decay_factors(rms)
    ok = factor >= DECAY_FACTOR
    payload = {"reports": reports, "ito_decay_factor": factor, "pass": bool(ok)}
    _emit(args, "hijab.json", payload)
    return 0 if ok else 1


def cmd_demo_zakai(args) -> int:
    generator = [[-1, 1], [1, -1]]
    obs = [0, 1]
    init = ["1/2", "1/2"]
    phi_indicator = [0, 1]
    model = paths.zakai_build(generator, obs, phi_indicator, init)
    _check_study(args, max(model.m, model.n))
    _check_word_count(model.m, "--deg", args.deg)

    s = bilinear_coefficients(model, args.deg)
    block = hankel.hankel_build(s, args.deg // 2, args.deg - args.deg // 2)
    rank_report = hankel.rank_exact(block)

    path = _study_path(args, model.m)
    sigma_phi, sigma_one = paths.zakai_readout(model, path)
    positivity_violations = int(np.count_nonzero(sigma_one <= 0))
    pi = paths.normalize_filter(sigma_phi, sigma_one)
    pi_min = float(np.min(pi, initial=np.inf))
    pi_max = float(np.max(pi, initial=-np.inf))
    one_dev = float(np.max(np.abs(paths.normalize_filter(sigma_one, sigma_one) - 1.0), initial=0.0))
    columns = {**_path_columns(path), "sigma_phi": sigma_phi, "sigma_one": sigma_one, "pi": pi}
    _atomic_write(os.path.join(args.out, "model.txt"), format_model(model))
    _write_replicates(args.out, path.grid, columns, min(args.reps, 4))
    summary = {
        "generator": generator,
        "obs": obs,
        "phi": phi_indicator,
        **_study_header(args),
        "positivity_violations": positivity_violations,
        "pi_range": [pi_min, pi_max],
        "unit_phi_max_deviation": one_dev,
        "hankel_rank": rank_report.as_dict(),
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    print(
        f"positivity violations: {positivity_violations}; pi range "
        f"[{pi_min:.6f}, {pi_max:.6f}]; Hankel rank {rank_report.rank}"
    )
    return 0


SEED_HELP = (
    "study seed; replicate k draws from generator seed ^ k, so seeds that "
    "differ only in bits below --reps share replicate streams (seeds 2 and 3 "
    "with --reps 2 draw the same two paths)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfrealize",
        description=(
            "Generate coefficient series from state-space models, compute "
            "Hankel and Lie ranks, synthesize bilinear realizations, and run "
            "pathwise verification studies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **help_kw):
        p = sub.add_parser(name, **help_kw)
        p.set_defaults(fn=fn)
        return p

    def study(p, grid: int, reps: int):
        """The flags of a Monte Carlo study, with its default grid and reps."""
        p.add_argument("--horizon", type=float, default=0.25)
        p.add_argument("--grid", type=int, default=grid)
        p.add_argument("--reps", type=int, default=reps)
        p.add_argument("--seed", type=int, required=True, help=SEED_HELP)

    p = add("coeffs", cmd_coeffs, help="generate the coefficient series of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--mode", choices=["rational", "float"], default="rational")
    p.add_argument("--out", required=True)

    p = add("rank", cmd_rank, help="Hankel rank of a series (exact or numeric)")
    p.add_argument("--series", required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--bracket", type=int)
    p.add_argument("--obs", type=int)
    p.add_argument("--tol", type=float, default=hankel.DEFAULT_TOLERANCE)
    p.add_argument("--out")

    p = add("lierank", cmd_lierank, help="truncated Lie-rank estimate of a series")
    p.add_argument("--series", required=True)
    p.add_argument("--bracket", type=int, required=True)
    p.add_argument("--obs", type=int, required=True)
    p.add_argument("--tol", type=float, default=hankel.DEFAULT_TOLERANCE)
    p.add_argument("--out")

    p = add("realize", cmd_realize, help="synthesize a bilinear realization from a series")
    p.add_argument("--series", required=True)
    p.add_argument("--deg", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("simulate", cmd_simulate, help="simulate a model along sampled driving paths")
    p.add_argument("--model", required=True)
    study(p, grid=4096, reps=1)
    p.add_argument("--out", required=True)

    p = add("compare", cmd_compare, help="compare simulation against the truncated series")
    p.add_argument("--model", required=True)
    p.add_argument("--deg", type=int, required=True)
    study(p, grid=4096, reps=1)
    p.add_argument("--out", required=True)

    p = add("ito-check", cmd_ito_check, help="functional change-of-variable residual study")
    study(p, grid=512, reps=200)
    p.add_argument("--out")

    p = add("hijab-check", cmd_hijab_check, help="first-order decomposition check of a model")
    p.add_argument("--model", required=True)
    study(p, grid=512, reps=100)
    p.add_argument("--out")

    p = add("demo-zakai", cmd_demo_zakai, help="two-state filter demo: positivity and rank")
    study(p, grid=4096, reps=200)
    p.add_argument("--deg", type=int, default=6)
    p.add_argument("--out", required=True)

    return parser


# One parser per process, built on first use; each parse fills a fresh namespace.
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # A non-finite study result is refused as one CFError (divergence
        # guard, decay rule, strict JSON), so numpy's warnings are noise.
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (CFError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
