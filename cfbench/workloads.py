"""The three workloads: their input files, their command calls, and the
checks each call's output must pass.

A workload is built from the benchmark seed.  The exact workloads draw a
fixed pool of models (the same for every seed) and write each one in
coordinates z = T x drawn from the seed; T is a signed, scaled permutation,
so the model files differ from seed to seed while every generating series,
and so every rank decision downstream, stays the same.  The pathwise
workload passes seeds drawn from the benchmark seed to the stochastic
commands.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import models
import oracles


@dataclass
class Op:
    """One command call of a pass and the check of its output.

    ``check`` gets the call's standard output and returns the reasons it
    failed (empty when the output is correct).
    """

    name: str
    argv: list
    check: Callable[[str], list]


@dataclass
class Plan:
    ops: list
    warmups: list  # argv lists, one per command kind, small sizes
    exact_artifacts: list = field(default_factory=list)  # series.txt / model.txt paths


def _write(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


class _Memo:
    """Caches oracle results shared by the checks of one model."""

    def __init__(self):
        self._values = {}

    def get(self, key, compute):
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]


# -- exact_bilinear ----------------------------------------------------------

BILINEAR_POOL_SEED = 20240216
BILINEAR_DEG = 8
BILINEAR_SAMPLE = 60


def bilinear_pool():
    """Two dense models (n = 1..3) and two linear filters (d = 1..3), m = 2."""
    rng = random.Random(BILINEAR_POOL_SEED)
    pool = [models.dense_bilinear(rng, rng.randint(1, 3), 2) for _ in range(2)]
    pool += [models.filter_bilinear(rng, rng.randint(1, 3), 2) for _ in range(2)]
    return pool


def exact_bilinear(seed: int, inputs: str, out: str) -> Plan:
    rng = random.Random(seed)
    plan = Plan([], [])
    all_words = oracles.words_up_to(2, BILINEAR_DEG)
    for k, base in enumerate(bilinear_pool()):
        model = models.transform_bilinear(base, *models.draw_coordinates(rng, base.n))
        model_path = _write(f"{inputs}/bil{k}.txt", models.model_text(model))
        sample = [()] + rng.sample(all_words[1:], BILINEAR_SAMPLE)
        d = f"{out}/bil{k}"
        series = f"{d}/series.txt"
        plan.ops += _bilinear_ops(f"bil{k}", base.n, model_path, d, series, sample)
        plan.exact_artifacts += [series, f"{d}/real/model.txt"]
    warm = _write(f"{inputs}/warm.txt", models.model_text(models.dense_bilinear(rng, 1, 2)))
    wd = f"{out}/warm"
    plan.warmups = [
        ["coeffs", "--model", warm, "--deg", "4", "--out", wd],
        ["rank", "--series", f"{wd}/series.txt", "--rows", "2", "--cols", "2",
         "--bracket", "2", "--obs", "2"],
        ["realize", "--series", f"{wd}/series.txt", "--out", f"{wd}/real"],
    ]
    return plan


def _bilinear_ops(name, n, model_path, d, series, sample):
    memo = _Memo()
    half = BILINEAR_DEG // 2

    def model_in():
        return memo.get("model", lambda: oracles.parse_bilinear(_read(model_path)))

    def expected(w):
        return memo.get(("coef", w), lambda: oracles.bilinear_coefficient(model_in(), w))

    def coeffs():
        return memo.get("series", lambda: oracles.parse_series(_read(series)))

    def oracle_rank():
        return memo.get(
            "rank", lambda: oracles.frac_rank(oracles.hankel_rows(coeffs()[3], 2, half, half))
        )

    def check_coeffs(stdout):
        m, deg, mode, got = coeffs()
        errs = [] if (m, deg, mode) == (2, BILINEAR_DEG, "rational") else [f"header {m} {deg} {mode}"]
        bad = [w for w in sample if got.get(w) != expected(w)]
        return errs + ([f"{len(bad)} sampled coefficients differ, e.g. {bad[0]}"] if bad else [])

    def check_rank(stdout):
        rep = json.loads(stdout)
        han, lie, want = rep["hankel"]["rank"], rep["lie"]["rank"], oracle_rank()
        errs = [] if han == want else [f"Hankel rank {han}, oracle {want}"]
        return errs + ([] if lie <= han <= n else [f"Lie {lie} <= Hankel {han} <= n={n} broken"])

    def check_realize(stdout):
        dim = json.loads(_read(f"{d}/real/verify.json"))["dimension"]
        real = oracles.parse_bilinear(_read(f"{d}/real/model.txt"))
        want = oracle_rank()
        errs = [] if dim == want == real.n and dim <= n else [
            f"dimension {dim} (file {real.n}), oracle rank {want}, n={n}"]
        bad = [w for w in sample if oracles.bilinear_coefficient(real, w) != expected(w)]
        return errs + ([f"realized model misses {len(bad)} sampled words, e.g. {bad[0]}"] if bad else [])

    return [
        Op(f"{name}.coeffs", ["coeffs", "--model", model_path, "--deg", str(BILINEAR_DEG),
                              "--out", d], check_coeffs),
        Op(f"{name}.rank", ["rank", "--series", series, "--rows", str(half), "--cols", str(half),
                            "--bracket", "3", "--obs", "3"], check_rank),
        Op(f"{name}.realize", ["realize", "--series", series, "--out", f"{d}/real"], check_realize),
    ]


# -- exact_analytic ----------------------------------------------------------

ANALYTIC_POOL_SEED = 1
ANALYTIC_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1))  # (n, m)
ANALYTIC_DEG = 6
ANALYTIC_SAMPLE = 6


def analytic_pool():
    """Quadratic fields and readout, one model per (n, m) shape."""
    rng = random.Random(ANALYTIC_POOL_SEED)
    return [models.rand_analytic(rng, n, m) for n, m in ANALYTIC_SHAPES]


def exact_analytic(seed: int, inputs: str, out: str) -> Plan:
    rng = random.Random(seed)
    plan = Plan([], [])
    for k, base in enumerate(analytic_pool()):
        model = models.transform_analytic(base, *models.draw_coordinates(rng, base.n))
        model_path = _write(f"{inputs}/ana{k}.txt", models.model_text(model))
        words = oracles.words_up_to(base.m, ANALYTIC_DEG)
        sample = [()] + rng.sample(words[1:], ANALYTIC_SAMPLE)
        d = f"{out}/ana{k}"
        plan.ops += _analytic_ops(f"ana{k}", base, model_path, d, sample)
        plan.exact_artifacts += [f"{d}/exact/series.txt", f"{d}/float/series.txt"]
    warm = _write(f"{inputs}/warm.txt", models.model_text(models.rand_analytic(rng, 1, 1)))
    wd = f"{out}/warm"
    plan.warmups = [
        ["coeffs", "--model", warm, "--deg", "3", "--out", wd],
        ["coeffs", "--model", warm, "--deg", "3", "--mode", "float", "--out", f"{wd}/f"],
        ["rank", "--series", f"{wd}/series.txt", "--rows", "1", "--cols", "1",
         "--bracket", "1", "--obs", "1"],
        ["rank", "--series", f"{wd}/f/series.txt", "--rows", "1", "--cols", "1",
         "--bracket", "1", "--obs", "1"],
    ]
    return plan


def _analytic_ops(name, base, model_path, d, sample):
    memo = _Memo()
    n, m = base.n, base.m
    exact, flt = f"{d}/exact/series.txt", f"{d}/float/series.txt"
    half = ANALYTIC_DEG // 2

    def series(path):
        return memo.get(path, lambda: oracles.parse_series(_read(path)))

    def oracle_rank():
        return memo.get(
            "rank", lambda: oracles.frac_rank(oracles.hankel_rows(series(exact)[3], m, half, half))
        )

    def check_exact(stdout):
        mm, deg, mode, got = series(exact)
        errs = [] if (mm, deg, mode) == (m, ANALYTIC_DEG, "rational") else [f"header {mm} {deg} {mode}"]
        lie = oracles.LieOracle(_read(model_path))
        bad = [w for w in sample if got.get(w) != lie.coefficient(w)]
        return errs + ([f"{len(bad)} sampled coefficients differ from sympy, e.g. {bad[0]}"] if bad else [])

    def check_float(stdout):
        got, want = series(flt)[3], series(exact)[3]
        bad = [w for w in want if got.get(w) != float(want[w])]
        return [f"{len(bad)} float coefficients differ from the rational ones"] if bad or len(got) != len(want) else []

    def check_rank_exact(stdout):
        rep = json.loads(stdout)
        han, lie, want = rep["hankel"]["rank"], rep["lie"]["rank"], oracle_rank()
        errs = [] if han == want else [f"Hankel rank {han}, oracle {want}"]
        return errs + ([] if lie <= n and lie <= want else [f"Lie rank {lie} > min(n={n}, Hankel {want})"])

    def check_rank_numeric(stdout):
        han, want = json.loads(stdout)["hankel"]["rank"], oracle_rank()
        return [] if han <= want else [f"numeric rank {han} > exact rank {want}"]

    def rank_argv(path):
        return ["rank", "--series", path, "--rows", str(half), "--cols", str(half),
                "--bracket", "3", "--obs", "3"]

    deg = str(ANALYTIC_DEG)
    return [
        Op(f"{name}.coeffs", ["coeffs", "--model", model_path, "--deg", deg,
                              "--out", f"{d}/exact"], check_exact),
        Op(f"{name}.coeffs_float", ["coeffs", "--model", model_path, "--deg", deg,
                                    "--mode", "float", "--out", f"{d}/float"], check_float),
        Op(f"{name}.rank", rank_argv(exact), check_rank_exact),
        Op(f"{name}.rank_float", rank_argv(flt), check_rank_numeric),
    ]


# -- pathwise_mc -------------------------------------------------------------

QUADRATIC_MODEL = "n = 1\nm = 1\nx0 = 1/2\ng0 = x1\ng1 = 1\nh = x1^2\n"
SMALL_BILINEAR_MODEL = (
    "n = 2\nm = 1\nx0 = 1, 1/2\nA0 = -1, 1/2, 0, -1/2\nA1 = 1/2, 0, 1/4, -1/4\nC = 1, -1\n"
)
COMPARE_REPS = 6
ZAKAI_REPS = 8
# The decay checks of ito-check and hijab-check are statistical: each decay
# factor is a ratio of two RMS estimates over the replicates.  Their
# expected value is about sqrt(2) at any grid, and the spread of the ratio
# shrinks like 1/sqrt(replicates), so these counts make the checks pass on
# nearly every replicate stream (measured rates in README.md).  Coarse grids
# keep that affordable.
ITO_GRID = 8
ITO_REPS = 400
HIJAB_GRID = 32
HIJAB_REPS = 200


def pathwise_mc(seed: int, inputs: str, out: str) -> Plan:
    rng = random.Random(seed)
    quad = _write(f"{inputs}/quadratic.txt", QUADRATIC_MODEL)
    bil = _write(f"{inputs}/bilinear.txt", SMALL_BILINEAR_MODEL)
    ops = []
    for name, model in (("quadratic", quad), ("bilinear", bil)):
        d = f"{out}/compare_{name}"
        ops.append(Op(
            f"compare_{name}",
            ["compare", "--model", model, "--deg", "6", "--reps", str(COMPARE_REPS),
             "--seed", str(rng.randrange(1, 2**31)), "--out", d],
            _check_compare(d),
        ))
    zd = f"{out}/zakai"
    ops.append(Op("demo_zakai", ["demo-zakai", "--reps", str(ZAKAI_REPS),
                                 "--seed", str(rng.randrange(1, 2**31)), "--out", zd],
                  _check_zakai(zd)))
    ops.append(Op("ito_check", ["ito-check", "--grid", str(ITO_GRID), "--reps", str(ITO_REPS),
                                "--seed", str(rng.randrange(1, 2**31))], _check_ito))
    ops.append(Op("hijab_check", ["hijab-check", "--model", quad, "--grid", str(HIJAB_GRID),
                                  "--reps", str(HIJAB_REPS), "--seed", str(rng.randrange(1, 2**31))],
                  _check_hijab))
    wd = f"{out}/warm"
    warmups = [
        ["compare", "--model", quad, "--deg", "2", "--grid", "64", "--seed", "1", "--out", wd],
        ["demo-zakai", "--grid", "64", "--reps", "1", "--seed", "1", "--out", wd],
        ["ito-check", "--grid", "16", "--reps", "1", "--seed", "1"],
        ["hijab-check", "--model", quad, "--grid", "16", "--reps", "1", "--seed", "1"],
    ]
    return Plan(ops, warmups, [f"{zd}/model.txt"])


def _check_compare(d):
    def check(stdout):
        errs = json.loads(_read(f"{d}/summary.json"))["median_terminal_error_per_degree"]
        if errs["6"] < errs["1"]:
            return []
        return [f"median terminal error {errs['6']} at degree 6 >= {errs['1']} at degree 1"]

    return check


def _check_zakai(d):
    def check(stdout):
        s = json.loads(_read(f"{d}/summary.json"))
        lo, hi = s["pi_range"]
        out = []
        if s["positivity_violations"] != 0:
            out.append(f"{s['positivity_violations']} positivity violations")
        if not 0.0 <= lo <= hi <= 1.0:
            out.append(f"pi range [{lo}, {hi}] outside [0, 1]")
        if s["hankel_rank"]["rank"] != 2:
            out.append(f"Hankel rank {s['hankel_rank']['rank']} != 2")
        return out

    return check


def _check_ito(stdout):
    rep = json.loads(stdout)
    out = [] if rep["linear_rms"] <= 1e-10 else [f"linear RMS {rep['linear_rms']}"]
    low = [f for f in rep["quadratic_decay_factors"] if f < 1.2]
    return out + ([f"quadratic decay factors {low} < 1.2"] if low else [])


def _check_hijab(stdout):
    rep = json.loads(stdout)
    out = [] if rep["ito_decay_factor"] >= 1.2 else [f"Ito decay {rep['ito_decay_factor']} < 1.2"]
    if any(r["strat_rms"] >= r["ito_rms"] for r in rep["reports"]):
        out.append("Stratonovich RMS not below Ito RMS")
    return out


WORKLOADS = {
    "exact_bilinear": exact_bilinear,
    "exact_analytic": exact_analytic,
    "pathwise_mc": pathwise_mc,
}
