"""Golden digests of the CLI artifacts.

Exact outputs are contractually byte-identical across refactors and
performance changes.  These SHA-256 digests pin ``series.txt`` (rational
and float), ``rank.json``, ``model.txt`` and ``verify.json`` for one fixed
bilinear and one fixed analytic model, the exact files of one dense
two-channel bilinear model at degree 8, and every file the Monte Carlo
commands write at small grids and fixed seeds; a change that moves any byte
of them has to say why and update the digest on purpose.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfrealize
from cfrealize.cli import main

BILINEAR = (
    "type = bilinear\nn = 2\nm = 1\nx0 = 1, 1/2\n"
    "A0 = -1, 1/3, 0, -1/2\nA1 = 1/2, 0, 1, -1\nC = 1, -2\n"
)
# Affine fields and a quadratic readout: the span of 1, x1, x1^2 is closed
# under both fields, so the series is rational with Hankel rank <= 3.
ANALYTIC = "n = 1\nm = 1\nx0 = 1/2\ng0 = 1 - x1\ng1 = x1\nh = x1^2 + x1\n"

GOLDEN = {
    "bilinear": {
        "series.txt": (
            "f0e4250f98b7ca45960fb06aa28b46ccccc887736451da07b71320eb707ba374"
        ),
        "series_float.txt": (
            "ada9faa6da6dd87fe3c2fd6cf72f65694f11f52a6976682a36a80d14202e9252"
        ),
        "rank.json": (
            "76210e81812f12051dd99728b6fad56d64a11fad1f9c6f9a49b3b4f755021816"
        ),
        "model.txt": (
            "dac96fbb497b613f23894af47969092343bd7012033eaf96d0f3b7ab85b48f1b"
        ),
        "verify.json": (
            "7945c0e10c5fbaa6d1627bab4fe7b550339f470be5508c638048f4868ae4714c"
        ),
    },
    "analytic": {
        "series.txt": (
            "418d1ad2e3c160cfabbeef0cfd93ceb49c60ad18c04d3b33b34d1c09b5bee8c7"
        ),
        "series_float.txt": (
            "08510019de444f5e6f096e285c2f1c809c8507b5a043e76886db7fb6174826b0"
        ),
        "rank.json": (
            "78424b5c2564c5be8cec734d741f3ea3240605d46744f464bb09a76538736838"
        ),
        "model.txt": (
            "f9d2987a1dcfc79342727822498853ce7366e4cb95af016b9fe931fbf51d3e0a"
        ),
        "verify.json": (
            "3ecbc7d851aa71bc63cf692c4cf4b162802c10934eb27359684c52d37e389e42"
        ),
    },
}


def _artifacts(tmp_path, text):
    model = tmp_path / "model_in.txt"
    model.write_text(text)
    out = tmp_path / "out"
    assert main(["coeffs", "--model", str(model), "--deg", "6", "--out", str(out)]) == 0
    assert main(
        ["coeffs", "--model", str(model), "--deg", "6", "--mode", "float", "--out", str(out / "f")]
    ) == 0
    series = str(out / "series.txt")
    rank = ["rank", "--series", series, "--rows", "3", "--cols", "3"]
    assert main(rank + ["--bracket", "2", "--obs", "2", "--out", str(out)]) == 0
    assert main(["realize", "--series", series, "--deg", "6", "--out", str(out)]) == 0
    files = {name: out / name for name in ("series.txt", "rank.json", "model.txt", "verify.json")}
    files["series_float.txt"] = out / "f" / "series.txt"
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in files.items()}


@pytest.mark.parametrize("name,text", [("bilinear", BILINEAR), ("analytic", ANALYTIC)])
def test_exact_artifacts_match_golden_digests(tmp_path, capsys, name, text):
    assert _artifacts(tmp_path, text) == GOLDEN[name]


# A dense three-state model on two noise channels at degree 8: 9 841 words,
# every level with its own denominator, the benchmark's scale of exact data.
DENSE = (
    "type = bilinear\nn = 3\nm = 2\nx0 = 1, -1/2, 2/3\n"
    "A0 = -1/2, 1/3, 0, 1, -3/4, 1/5, 2, 0, -1\n"
    "A1 = 1/3, -1, 1/2, 0, 2/3, -1/4, 1, 1/6, 0\n"
    "A2 = 0, 1/2, -2/5, 3/2, 0, 1, -1/3, 1/4, 1/2\n"
    "C = 1, 1/2, -3\n"
)

GOLDEN_DENSE = {
    "series.txt": "f7ddbfb3a59ec685b30c5ca9a45927435735120621627f267b2f5d3c46c0b69f",
    "rank.json": "8981a77ce76a689bc5247ca497bf47919a10349085fb6ff2b7891d7c05affd00",
    "model.txt": "d2d633e38037d0b0ddbb36d09c21f6fcced82edbec03431bbd5a3e5d08a7b16d",
    "verify.json": "6d0abacf1b28930cbceffc82f1627cb99aac066608ec83531632f3e47afb70f2",
}


def test_dense_two_channel_artifacts_match_golden_digests(tmp_path, capsys):
    model = tmp_path / "model_in.txt"
    model.write_text(DENSE)
    out = tmp_path / "out"
    assert main(["coeffs", "--model", str(model), "--deg", "8", "--out", str(out)]) == 0
    series = str(out / "series.txt")
    rank = ["rank", "--series", series, "--rows", "4", "--cols", "4"]
    assert main(rank + ["--bracket", "3", "--obs", "4", "--out", str(out)]) == 0
    assert main(["realize", "--series", series, "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_DENSE}
    assert digests == GOLDEN_DENSE


# The Monte Carlo commands at small grids and fixed seeds.  Their float
# outputs are pinned too: a refactor of the study plumbing or of the
# functional bumps must not move a byte of any CSV or report.
TWO_CHANNEL = (
    "n = 2\nm = 2\nx0 = 1/2, -1/4\ng0 = -x1 + 1/4*x2^2, -x2\ng1 = 1/2, 1/3*x1\n"
    "g2 = 1/2*x2, 1/4 - 1/5*x1*x2\nh = x1^2 + x1*x2 - x2\n"
)
STUDIES = {
    "simulate_analytic": (["simulate", "--model", ANALYTIC, "--grid", "64", "--reps", "3"], 1001),
    "simulate_two_channel": (["simulate", "--model", TWO_CHANNEL, "--grid", "32", "--reps", "2"], 1),
    "compare_bilinear": (
        ["compare", "--model", BILINEAR, "--deg", "4", "--grid", "64", "--reps", "2"],
        424242,
    ),
    "demo_zakai": (["demo-zakai", "--deg", "4", "--grid", "64", "--reps", "5"], 3),
    "ito_check": (["ito-check", "--grid", "8", "--reps", "20"], 1),
    "hijab_check": (["hijab-check", "--model", ANALYTIC, "--grid", "16", "--reps", "10"], 2),
}

GOLDEN_STUDIES = {
    "compare_bilinear": (0, {
        "rep000.csv": "4d41f0161554060b45ea39dc485feb2aa4189ad8f01f2c06d6a8500ea5951bda",
        "rep001.csv": "18be424be80180be82912b8b69755760ae0f66d74209483caf36d831280344e5",
        "summary.json": "1fa9dc95d8b0152dbc178c2ef711107d82b710663bec236d8268f23ff4553762",
    }),
    "demo_zakai": (0, {
        "model.txt": "e24001076e807426a2b01076e2ddab0ef49a317e77e68d2b5d204385078275a9",
        "rep000.csv": "4cc8f593ddfa7dbb21e920ce4f1198755f772ce59b321736785ed45e401fcb5e",
        "rep001.csv": "4f3e4f6903f79bed8e2739241576a54293538245a6bc200ab31133bd3571eaa1",
        "rep002.csv": "543b26c7347b44c71459bdfb3a93a546fcd78504d04457d41c62511d72e44d61",
        "rep003.csv": "1ca0dc46f1bd5a849b7bdc152ee166b6cb90e559e74bf936522a92c302a39a38",
        "summary.json": "c7d5e73514646a65e0fe715b609bad5318079795fd77edee32c5efd08d452451",
    }),
    "hijab_check": (0, {
        "hijab.json": "652a26ba880c5e6f2e4d762b7708bd7396bc18289a3559a82dbc5c9eaf6d099c",
    }),
    "ito_check": (0, {
        "residuals.json": "b8bae2980a18f7c643b1bfd2064a31eedcef141257c8dad30a1151bf72615f10",
    }),
    "simulate_analytic": (0, {
        "rep000.csv": "532c3cd3976ef2500e6527fb84d84f1c44ea5013a5c86da64fd6fb4bea3be7db",
        "rep001.csv": "f840ffcaa1da4b18836d4df89db14d711b52abb87ce4643671d9bd97339f0871",
        "rep002.csv": "5a4d4deb6912852b8b9c0334f839d1c272b71f61804908e4401ede6e0ca6fae8",
        "summary.json": "7707e74dbc30118275857f8adb2ab7e1e0b40387be33203b79d951b7db616e99",
    }),
    "simulate_two_channel": (0, {
        "rep000.csv": "3a34772cea081446b2a88ea0e0c9f4422a398462fe4e97c4619b41c505288173",
        "rep001.csv": "7cacd3fb53592b0a1c8742f63da31e9b36b6e7ee5839b6ef20d4586aa750f811",
        "summary.json": "0c83a5eff17c7d276cff4e9e84c621d691cca4f473ddb9176c1005e1da606de7",
    }),
}


def study_digests(tmp_path, name):
    """The exit code of study ``name`` run in tmp_path, and the digest of each file it wrote."""
    argv, seed = STUDIES[name]
    argv = list(argv)
    if "--model" in argv:
        at = argv.index("--model") + 1
        model = tmp_path / "model_in.txt"
        model.write_text(argv[at])
        argv[at] = str(model)
    out = tmp_path / "out"
    rc = main(argv + ["--seed", str(seed), "--out", str(out)])
    return rc, {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_artifacts_match_golden_digests(tmp_path, capsys, name):
    assert study_digests(tmp_path, name) == GOLDEN_STUDIES[name]


# Runs every study in a fresh directory under argv[1] and writes their
# digests, with those of simulate_states on the golden ANALYTIC model, the
# demo-zakai filter embedding and the TWO_CHANNEL model, each with both
# schemes, to argv[1]/digests.json.
CHILD = """
import contextlib, hashlib, io, json, sys, tempfile
from pathlib import Path
from cfrealize import QSpec, make_grid, parse_model, sample_brownian, simulate_states
from cfrealize.paths import zakai_build
from cfrealize.symdiff import linear_embedding
from test_golden import ANALYTIC, STUDIES, TWO_CHANNEL, study_digests
with contextlib.redirect_stdout(io.StringIO()):
    digests = {name: study_digests(Path(tempfile.mkdtemp(dir=sys.argv[1])), name) for name in STUDIES}
zakai = linear_embedding(zakai_build([[-1, 1], [1, -1]], [0, 1], [0, 1], ["1/2", "1/2"]))
models = {"analytic": parse_model(ANALYTIC), "zakai": zakai, "two_channel": parse_model(TWO_CHANNEL)}
for name, model in models.items():
    path = sample_brownian(QSpec.identity(model.m), make_grid(1.0, 256), 3, 5)
    for method in ("heun", "euler_ito"):
        states = simulate_states(model, path, method)
        digests[f"states {name} {method}"] = hashlib.sha256(states.tobytes()).hexdigest()
Path(sys.argv[1], "digests.json").write_text(json.dumps(digests))
"""


@pytest.fixture(scope="module")
def digests_per_setting(tmp_path_factory):
    """The child's digests under the default setting, two other OpenBLAS
    kernels and without numpy's AVX-512 loops, one process each.  (A setting
    that names a kernel or feature the CPU lacks changes nothing, so the runs
    then agree trivially.)"""
    package_root = str(Path(cfrealize.__file__).resolve().parent.parent)
    path = [package_root, str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for name in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"):
        env.pop(name, None)
    runs = []
    for setting in (
        {},
        {"OPENBLAS_CORETYPE": "Haswell"},
        {"OPENBLAS_CORETYPE": "Prescott"},
        {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    ):
        work = tmp_path_factory.mktemp("digests")
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(work)],
            capture_output=True, text=True, env={**env, **setting}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads((work / "digests.json").read_text()))
    return runs


def test_study_bytes_do_not_follow_simd_dispatch(digests_per_setting):
    """The studies write the same bytes under every setting: each float is
    formed by elementwise multiplies and adds in a fixed order.  The
    processes are compared with each other, so this holds whatever digests
    are pinned."""
    runs = [{name: run[name] for name in STUDIES} for run in digests_per_setting]
    assert all(run == runs[0] for run in runs[1:])


def test_affine_states_do_not_follow_blas_kernel_or_simd_dispatch(digests_per_setting):
    """simulate_states keeps its bytes under every setting, for the affine
    ANALYTIC and Zakai fields and for the TWO_CHANNEL fields, with both
    schemes.  (The ``@`` loop's states moved under both kernels on an
    AVX-512 host.)"""
    runs = [{k: v for k, v in run.items() if k.startswith("states ")} for run in digests_per_setting]
    assert len(runs[0]) == 6
    assert all(run == runs[0] for run in runs[1:])
