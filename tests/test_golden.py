"""Golden digests of the exact CLI artifacts.

Exact outputs are contractually byte-identical across refactors and
performance changes.  These SHA-256 digests pin ``series.txt`` (rational
and float), ``rank.json``, ``model.txt`` and ``verify.json`` for one fixed
bilinear and one fixed analytic model; a change that moves any byte of them
has to say why and update the digest on purpose.
"""

import hashlib

import pytest

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
