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
        "rep000.csv": "d1501b1022ebf6468936187b76f4367f51ec3bd8e139a59ce6cd861362542898",
        "rep001.csv": "0698a761a4182da28949297aec4da25f1983ec55532e027ae41a034b01fb4f40",
        "summary.json": "e8c8a8e7889e95ad96f74a89a954aed34bdc870fc1e6a46264b3dee7cbebea91",
    }),
    "demo_zakai": (0, {
        "model.txt": "e24001076e807426a2b01076e2ddab0ef49a317e77e68d2b5d204385078275a9",
        "rep000.csv": "d549f43dbce90345ab97b7e5cdcf143ba4f2f94b01cf2b759c0830d52856b861",
        "rep001.csv": "0c9952b0f280b93447fc80b88db2f14877dbf746e905e15f491679faa79e24e1",
        "rep002.csv": "f2363e1e12815c90a5ff810d9f37ad47071e1f04ccf72380f58821d83b16f250",
        "rep003.csv": "a6e11dcbc456ef4c4cbb600bbf2ac05e2243d6db566bb28b35cbe0ee459a1dd7",
        "summary.json": "1327430047e0b7ca5ad9cad5eedf85edb40d368381b10833ff97fbe301ecf93e",
    }),
    "hijab_check": (0, {
        "hijab.json": "3425d9303daf1a4c24bf27699fbf1662556de60cccfedb61610424c3795d0d03",
    }),
    "ito_check": (0, {
        "residuals.json": "b8bae2980a18f7c643b1bfd2064a31eedcef141257c8dad30a1151bf72615f10",
    }),
    "simulate_analytic": (0, {
        "rep000.csv": "8751a474dbc3f071dd1c6b0490cfd19d675fa78a05e46da1606ce24723036bba",
        "rep001.csv": "4c3c85886c4b9eebc65ba6567ae673035a740608f8dd82763b1a91fd4018d710",
        "rep002.csv": "c2e015faaba08c49b267264255e62b0da4a26226b2229efd56512f68643a68e4",
        "summary.json": "8f2744eefd8c85d62b8bbc93dfc3be26145940c488baa2b8b0373d774a1a668d",
    }),
    "simulate_two_channel": (0, {
        "rep000.csv": "484c5633332e943fd390b6225b9aa63d681d2737179c1d58d5dec47d76cddaef",
        "rep001.csv": "45cdf18c741303f609962d5cbb806c5d0bf4af91fc033622d29c565a6a587200",
        "summary.json": "bf189f5c8d285a6c15ac545ed47952e7194948a45905111e4e9339481b300377",
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


# Runs every study in a fresh directory under argv[1] and writes their digests
# to argv[1]/digests.json.
CHILD = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
from test_golden import STUDIES, study_digests
with contextlib.redirect_stdout(io.StringIO()):
    digests = {name: study_digests(Path(tempfile.mkdtemp(dir=sys.argv[1])), name) for name in STUDIES}
Path(sys.argv[1], "digests.json").write_text(json.dumps(digests))
"""


def test_study_bytes_do_not_follow_simd_dispatch(tmp_path):
    """The studies write the same bytes with numpy's AVX-512 loops dispatched
    and with them switched off (a setting that names a feature the CPU lacks
    changes nothing, so the two runs then agree trivially).  The processes
    are compared with each other, so this holds whatever digests are pinned."""
    package_root = str(Path(cfrealize.__file__).resolve().parent.parent)
    path = [package_root, str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    runs = []
    for setting in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}):
        work = tmp_path / f"run{len(runs)}"
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(work)],
            capture_output=True, text=True, env={**env, **setting}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads((work / "digests.json").read_text()))
    assert sorted(runs[0]) == sorted(STUDIES)
    assert runs[0] == runs[1]
