"""End-to-end command line checks: outputs, determinism, exit codes."""

import hashlib
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from conftest import CONFIG_DIR
from landmark_coverage import cli as cli_module
from landmark_coverage import coverage as coverage_module
from landmark_coverage import deployment as deployment_module
from landmark_coverage import ega as ega_module
from landmark_coverage import observer as observer_module
from landmark_coverage.cli import main
from landmark_coverage.geometry import Landmark

DESK = str(CONFIG_DIR / "desk_room.json")


def read_all(out_dir):
    names = sorted(os.listdir(out_dir))
    return {name: (out_dir / name).read_bytes() for name in names}


def assert_clean(out_dir):
    leftovers = [n for n in os.listdir(out_dir) if n.startswith(".tmp.")]
    assert leftovers == []


def run_ok(argv, capsys):
    code = main(argv)
    capsys.readouterr()
    assert code == 0


def test_interrupted_commit_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    plates, out = tmp_path / "plates", tmp_path / "report"
    run_ok(["generate", "--scene", DESK, "--count", "6", "--out-dir", str(plates)], capsys)
    analyze = ["analyze", "--scene", DESK, "--deployment", str(plates / "deployment.json"),
               "--out-dir", str(out)]
    run_ok(analyze + ["--n", "2"], capsys)
    assert (out / "manifest.json").exists()

    real_replace = os.replace
    renamed = []

    def replace_failing_second(src, dst):
        renamed.append(dst)
        if len(renamed) == 2:
            raise OSError("simulated crash mid-commit")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_failing_second)
    with pytest.raises(OSError, match="mid-commit"):
        main(analyze + ["--n", "1"])
    capsys.readouterr()
    assert not (out / "manifest.json").exists()
    assert_clean(out)


def test_commit_never_renames_onto_an_existing_file(tmp_path, capsys, monkeypatch):
    plates, out = tmp_path / "plates", tmp_path / "report"
    run_ok(["generate", "--scene", DESK, "--count", "6", "--out-dir", str(plates)], capsys)
    analyze = ["analyze", "--scene", DESK, "--deployment", str(plates / "deployment.json"),
               "--out-dir", str(out)]
    real_replace = os.replace
    targets = []

    def recording_replace(src, dst):
        targets.append((os.path.basename(dst), os.path.exists(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    run_ok(analyze, capsys)
    first = read_all(out)
    run_ok(analyze, capsys)
    assert targets == 2 * [("coverage.csv", False), ("metrics.json", False), ("manifest.json", False)]
    assert read_all(out) == first
    assert_clean(out)


def test_crash_removing_an_old_output_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    plates, out = tmp_path / "plates", tmp_path / "report"
    run_ok(["generate", "--scene", DESK, "--count", "6", "--out-dir", str(plates)], capsys)
    analyze = ["analyze", "--scene", DESK, "--deployment", str(plates / "deployment.json"),
               "--out-dir", str(out)]
    run_ok(analyze + ["--n", "2"], capsys)
    real_remove = os.remove

    def remove_failing_on_outputs(path):
        if os.path.basename(path) == "coverage.csv":
            raise OSError("simulated crash removing an old output")
        real_remove(path)

    monkeypatch.setattr(os, "remove", remove_failing_on_outputs)
    with pytest.raises(OSError, match="old output"):
        main(analyze + ["--n", "1"])
    capsys.readouterr()
    assert not (out / "manifest.json").exists()
    assert_clean(out)


def test_generate_uniform_rerun_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_ok(["generate", "--scene", DESK, "--count", "9", "--out-dir", str(a)], capsys)
    run_ok(["generate", "--scene", DESK, "--count", "9", "--out-dir", str(b)], capsys)
    files_a, files_b = read_all(a), read_all(b)
    assert sorted(files_a) == ["deployment.json", "manifest.json"]
    assert files_a == files_b
    assert_clean(a)
    doc = json.loads(files_a["deployment.json"])
    assert len(doc["landmarks"]) == 9
    manifest = json.loads(files_a["manifest.json"])
    assert manifest["schema"] == 1
    assert manifest["tool"]["name"] == "landmark-coverage"
    assert manifest["command"] == "generate"
    assert manifest["parameters"]["kind"] == "uniform"
    assert manifest["outputs"] == ["deployment.json", "manifest.json"]


def test_generate_random_is_seed_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["generate", "--scene", DESK, "--count", "5", "--kind", "random", "--seed", "5"]
    run_ok(args + ["--out-dir", str(a)], capsys)
    run_ok(args + ["--out-dir", str(b)], capsys)
    assert read_all(a) == read_all(b)
    c = tmp_path / "c"
    run_ok(args[:-1] + ["7", "--out-dir", str(c)], capsys)
    assert read_all(c)["deployment.json"] != read_all(a)["deployment.json"]


def test_analyze_outputs_and_thread_invariance(tmp_path, capsys):
    dep_dir = tmp_path / "dep"
    run_ok(["generate", "--scene", DESK, "--count", "8", "--out-dir", str(dep_dir)], capsys)
    deployment = str(dep_dir / "deployment.json")

    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    base = ["analyze", "--scene", DESK, "--deployment", deployment]
    run_ok(base + ["--threads", "1", "--out-dir", str(a)], capsys)
    run_ok(base + ["--threads", "3", "--out-dir", str(b)], capsys)
    run_ok(base + ["--threads", "2", "--out-dir", str(c)], capsys)

    files = read_all(a)
    assert sorted(files) == ["coverage.csv", "manifest.json", "metrics.json"]
    assert files == read_all(b) == read_all(c)
    assert_clean(a)

    lines = files["coverage.csv"].decode().splitlines()
    assert lines[0] == "x,y,z,p_n,qualified"
    assert len(lines) == 1 + 48
    first = lines[1].split(",")
    assert len(first) == 5 and first[4] in ("0", "1")

    met = json.loads(files["metrics.json"])
    assert set(met) == {"average_cp", "cost", "maximum_cp", "n", "qualified_ratio", "thold_p"}
    assert 0.0 <= met["average_cp"] <= met["maximum_cp"] <= 1.0
    assert met["n"] == 2
    assert met["thold_p"] == 0.15


def test_analyze_overrides_and_pdf_input(tmp_path, capsys):
    dep_dir = tmp_path / "dep"
    run_ok(["generate", "--scene", DESK, "--count", "6", "--out-dir", str(dep_dir)], capsys)
    deployment = str(dep_dir / "deployment.json")

    over = tmp_path / "over"
    run_ok(
        ["analyze", "--scene", DESK, "--deployment", deployment,
         "--n", "1", "--thold-p", "0.5", "--out-dir", str(over)],
        capsys,
    )
    met = json.loads((over / "metrics.json").read_bytes())
    assert met["n"] == 1
    assert met["thold_p"] == 0.5

    # A uniform density file matching the scene grid reproduces the default run.
    pdf_path = tmp_path / "pdf.json"
    pdf_path.write_text(json.dumps({
        "schema": 1, "n_yaw": 12, "n_pitch": 6, "weights": [1.0 / 72.0] * 72,
    }))
    plain, withpdf = tmp_path / "plain", tmp_path / "withpdf"
    run_ok(["analyze", "--scene", DESK, "--deployment", deployment,
            "--out-dir", str(plain)], capsys)
    run_ok(["analyze", "--scene", DESK, "--deployment", deployment,
            "--pdf", str(pdf_path), "--out-dir", str(withpdf)], capsys)
    assert read_all(plain)["coverage.csv"] == read_all(withpdf)["coverage.csv"]
    assert read_all(plain)["metrics.json"] == read_all(withpdf)["metrics.json"]
    assert json.loads(read_all(withpdf)["manifest.json"])["inputs"]["pdf"] == str(pdf_path)


def test_optimize_threads_and_rerun_identical(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    base = ["optimize", "--scene", DESK, "--count", "4", "--m", "8", "--q", "2",
            "--iterations", "3", "--seed", "1"]
    run_ok(base + ["--threads", "1", "--out-dir", str(a)], capsys)
    run_ok(base + ["--threads", "3", "--out-dir", str(b)], capsys)
    run_ok(base + ["--threads", "1", "--out-dir", str(c)], capsys)

    files = read_all(a)
    assert sorted(files) == ["deployment.json", "history.csv", "manifest.json"]
    assert files == read_all(b) == read_all(c)
    assert_clean(a)

    history = files["history.csv"].decode().splitlines()
    assert history[0] == "generation,best,mean,worst"
    assert len(history) == 1 + 4  # generations 0 through 3
    best = [float(line.split(",")[1]) for line in history[1:]]
    assert best == sorted(best)

    manifest = json.loads(files["manifest.json"])
    assert "threads" not in manifest["parameters"]
    assert manifest["parameters"]["q"] == 2
    assert manifest["parameters"]["upsilon_min"] == 4
    assert manifest["parameters"]["upsilon_max"] == 13
    assert len(json.loads(files["deployment.json"])["landmarks"]) == 4


def test_optimize_seeds_from_initial_deployment(tmp_path, capsys):
    dep_dir = tmp_path / "dep"
    run_ok(["generate", "--scene", DESK, "--count", "4", "--out-dir", str(dep_dir)], capsys)
    out = tmp_path / "out"
    run_ok(
        ["optimize", "--scene", DESK, "--initial", str(dep_dir / "deployment.json"),
         "--m", "6", "--q", "1", "--iterations", "1", "--out-dir", str(out)],
        capsys,
    )
    manifest = json.loads((out / "manifest.json").read_bytes())
    assert manifest["parameters"]["count"] == 4
    assert manifest["inputs"]["initial"] == str(dep_dir / "deployment.json")
    assert len(json.loads((out / "deployment.json").read_bytes())["landmarks"]) == 4


def test_optimize_outputs_match_pinned_digests(tmp_path, capsys):
    # sha256 of outputs from the row-by-row population code these searches
    # were first written with; two runs of today's code cannot show a drift.
    initial = tmp_path / "initial"
    run_ok(["generate", "--scene", DESK, "--count", "12", "--out-dir", str(initial)], capsys)
    runs = {
        "wall-ega": (["--count", "12", "--m", "8", "--q", "2", "--seed", "0"], {
            "deployment.json": "6ac500031439bd8eeb03bc7486e9b2ded92eaa0b225ce60dc848ec541e9c26e9",
            "history.csv": "b0156d029f89450a68ce3c52dbfc98cf747eee8de8464140febc5dfb44372072",
        }),
        "free-sga": (["--initial", str(initial / "deployment.json"), "--encoding", "free",
                      "--mode", "sga", "--m", "6", "--psi", "0.3", "--seed", "2"], {
            "deployment.json": "268e11e13765b12ccb90777ac92f7c1244fad39c517846def9c90f602f1f3ba6",
            "history.csv": "a82e52b630177c1f101da2026c9ddb3e61bf2945aee19678835b6c5456ea902f",
        }),
    }
    for label, (args, digests) in runs.items():
        out = tmp_path / label
        run_ok(["optimize", "--scene", DESK, *args, "--iterations", "5", "--out-dir", str(out)], capsys)
        files = read_all(out)
        assert {name: hashlib.sha256(files[name]).hexdigest() for name in digests} == digests, label


def test_table3_analyze_outputs_match_pinned_digests(tmp_path, capsys):
    # sha256 of Table 3 outputs from the per-map reduction code they were
    # first computed with; two runs of today's code cannot show a drift. The
    # solid-angle pdf takes each row's fsum, the uniform pdf one count per row.
    table3 = CONFIG_DIR / "table3_room.json"
    plates = tmp_path / "plates"
    run_ok(["generate", "--scene", str(table3), "--kind", "random", "--count", "90", "--seed", "0",
            "--out-dir", str(plates)], capsys)
    solid = tmp_path / "solid.json"
    solid.write_text(json.dumps(dict(json.loads(table3.read_text(encoding="utf-8")), pdf="solid-angle")))
    runs = {
        "solid-angle": (solid, {
            "coverage.csv": "902cd6d06a091516ae0f9670027a562f9d15347f68b82a1521d0f6fe23a4b7f5",
            "metrics.json": "2567f9d71e1291a1abebbcc49feeaf18157082d39b17562241524c143f203cce",
        }),
        "uniform": (table3, {
            "coverage.csv": "077734d5e813b5e1ed4161e96d831c34a8ddfc0933c2015d556323614141c3eb",
            "metrics.json": "a2428d113e0f7ee0615765c848c975f84987000a9c01d4f2ce9f777ad3f5d327",
        }),
    }
    for label, (scene, digests) in runs.items():
        out = tmp_path / label
        run_ok(["analyze", "--scene", str(scene), "--deployment", str(plates / "deployment.json"),
                "--out-dir", str(out)], capsys)
        files = read_all(out)
        assert {name: hashlib.sha256(files[name]).hexdigest() for name in digests} == digests, label


def test_desk_and_experiment_room_analyze_outputs_match_pinned_digests(tmp_path, capsys):
    # sha256 of outputs from the float64 depth-window product and the
    # per-row fsum reduction, before the window was classified in float32
    # and P_n summed from integer limbs.
    runs = {
        "desk": (DESK, ["--count", "12"], [], {
            "coverage.csv": "937a2c8b35c9819be95e4df895d882b079d0fb242533509f7cc6f06c245c39b7",
            "metrics.json": "7e16756e0414dc31a2ed1c74e8a9f4037fea977e8bd5dff2d7b0f0566d2389e9",
        }),
        "experiment": (str(CONFIG_DIR / "experiment_room.json"), ["--count", "24", "--kind", "random"],
                       ["--n", "1", "--thold-p", "0.01"], {
            "coverage.csv": "2085927becfc82c5b5dd345e8501adfbe0debb8130bf7e30ff0b826e25b0e60e",
            "metrics.json": "68b86118b18470aad4c658dfd319e6d7bcb6665f82600c8f8df00c6a5c69e6ee",
        }),
    }
    for label, (scene, generate, analyze, digests) in runs.items():
        plates, out = tmp_path / f"{label}-plates", tmp_path / label
        run_ok(["generate", "--scene", scene, *generate, "--seed", "0", "--out-dir", str(plates)], capsys)
        run_ok(["analyze", "--scene", scene, "--deployment", str(plates / "deployment.json"), *analyze,
                "--out-dir", str(out)], capsys)
        files = read_all(out)
        assert {name: hashlib.sha256(files[name]).hexdigest() for name in digests} == digests, label


def digests_of(out_dir):
    return {name: hashlib.sha256(data).hexdigest() for name, data in read_all(out_dir).items()}


def test_generate_outputs_match_pinned_digests(tmp_path, capsys, monkeypatch):
    # sha256 of every output, manifest included, from the staged writer
    # these files were first published with; run on relative paths so the
    # manifest's recorded inputs do not depend on where the tests run.
    monkeypatch.chdir(tmp_path)
    for config in ("desk_room.json", "table3_room.json"):
        (tmp_path / config).write_bytes((CONFIG_DIR / config).read_bytes())
    runs = {
        "desk-uniform-24": (["--scene", "desk_room.json", "--count", "24"], {
            "deployment.json": "14a356d886ac3b75d23938156376a1e0663da010f53290bbf6c11b67730409cb",
            "manifest.json": "3ca4d8ed4fc694c357cc632022afde6daa7f1095bd4f1665f6a5de74f66923c8",
        }),
        "desk-random-12": (["--scene", "desk_room.json", "--count", "12", "--kind", "random",
                            "--seed", "3"], {
            "deployment.json": "5c33a0488978fc6567b5636cb86f1d428266746d5ff06f639750cbe107ac57c5",
            "manifest.json": "e2f465143b146caf21874fa05e671df12afd129f32647e85863e1d1ca800a024",
        }),
        "table3-random-90": (["--scene", "table3_room.json", "--count", "90", "--kind", "random"], {
            "deployment.json": "ecdd48b850b6ae1aac76b705770f0eb256e58459856593aacb87c9b31e1e6f5b",
            "manifest.json": "04041af5add13a45552a91071a567e42b1d73af79ac9eaf9bd69599fbab820bf",
        }),
    }
    for label, (args, digests) in runs.items():
        run_ok(["generate", *args, "--out-dir", label], capsys)
        assert digests_of(tmp_path / label) == digests, label


def test_simulate_outputs_match_pinned_digests(tmp_path, capsys, monkeypatch):
    # sha256 of every output, manifest included, from the staged writer and
    # the float SE(3) integrator these traces were first computed with: a
    # 2 s camera-model walk on the desk, with and without estimate visibility.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "desk_room.json").write_bytes((CONFIG_DIR / "desk_room.json").read_bytes())
    run_ok(["generate", "--scene", "desk_room.json", "--count", "12", "--out-dir", "plates"], capsys)
    (tmp_path / "walk.json").write_text(json.dumps({
        "schema": 1,
        "random_walk": {"duration_s": 2.0, "seed": 2, "margin_cm": 10.0,
                        "lin_speed_cm_s": 40.0, "ang_speed_rad_s": 2.0,
                        "initial": {"position": [375.0, 250.0, 300.0], "yaw": 0.5}},
        "initial_estimate": {"position": [372.0, 251.0, 298.0], "yaw": 0.55},
    }))
    runs = {
        "true-pose": ([], {
            "manifest.json": "69b1ee9c4eac232eed6cdce52a5a0eb7cf891ea0e334b4ae229624fc45481552",
            "summary.json": "ab3f71a51f53a9567a11fd74636537d073efc5830f6a0f0e29ac26fa3693bee0",
            "trace.csv": "5aa0e81892072c1dc302a8cc0e221740532f3b594f96e37a2f430d928e5507e3",
        }),
        "estimate": (["--use-estimate-visibility"], {
            "manifest.json": "28127ca85019562d21254b60efe61ab45f5169226908d98f16192bfa60198190",
            "summary.json": "6ae3d86f43a72ee38ca6987eb594aed8eb29bdd898ece42a8598959ada03e896",
            "trace.csv": "97a5eed539fc171be4ddadddc6fc7e6317f1b3ad94b3560fcc9779271d052a3a",
        }),
    }
    for label, (args, digests) in runs.items():
        run_ok(["simulate", "--scene", "desk_room.json", "--deployment", "plates/deployment.json",
                "--trajectory", "walk.json", "--k-i", "2e-5", *args, "--out-dir", label], capsys)
        assert digests_of(tmp_path / label) == digests, label


def test_estimate_pdf_outputs_match_pinned_digests(tmp_path, capsys, monkeypatch):
    # sha256 of every output, manifest included, from the staged writer
    # these files were first published with, for a fixed seeded sample file.
    pytest.importorskip("scipy")
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(5)
    alpha = rng.uniform(-math.pi, math.pi, 3000)
    beta = rng.normal(0.2, 0.4, 3000).clip(-1.5, 1.5)
    (tmp_path / "angles.csv").write_text("t,alpha,beta\n" + "".join(
        f"{i * 0.01:.17g},{a:.17g},{b:.17g}\n" for i, (a, b) in enumerate(zip(alpha, beta))
    ))
    run_ok(["estimate-pdf", "--samples", "angles.csv", "--n-yaw", "12", "--n-pitch", "6",
            "--seed", "1", "--mean-gap", "0.05", "--out-dir", "pdf"], capsys)
    assert digests_of(tmp_path / "pdf") == {
        "manifest.json": "b0941396b30c589048a38494c560d5442cbfba8141e239d0ed17dccf9c5a3b68",
        "pdf.json": "922d87c84e829db3ff1fd207b05014d3187df021a06eb7a5fb803399d9d9fdca",
        "report.json": "2376b7a2136b843193421c1c807d813d4acda33fd8652ca59e2a44ced7e3c03f",
    }


def test_csv_lines_are_the_per_column_join_byte_for_byte():
    """``_rows`` formats each line in one call; the bytes are those of formatting each cell and joining them."""
    floats = [-0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0, 2.0**1023]
    ints = [0, 1, -7, True, False, 2**63, -(2**63) - 1, 10**30, 255, 256]
    got = "".join(cli_module._rows("value,count", "{:.17g},{:d}", floats, ints))
    want = "value,count\n" + "".join(
        ",".join(["{:.17g}".format(f), "{:d}".format(n)]) + "\n" for f, n in zip(floats, ints)
    )
    assert got == want
    assert got.splitlines()[1:8] == [
        "-0,0", "4.9406564584124654e-324,1", "10000000000000000,-7", "1.0000000000000001e-05,1",
        "nan,0", "inf,9223372036854775808", "-inf,-9223372036854775809",
    ]
    assert "".join(cli_module._rows("a,b", "{:.17g},{:d}", [], [])) == "a,b\n"


def test_a_search_that_scores_nothing_says_so_on_stderr(tmp_path, capsys):
    search = ["optimize", "--m", "8", "--q", "2", "--iterations", "2"]
    blind = ["--scene", str(CONFIG_DIR / "experiment_room.json"), "--count", "4"]
    assert main(search + blind + ["--out-dir", str(tmp_path / "blind")]) == 0
    out, err = capsys.readouterr()
    assert out == "generations=2 best=0.000000 mean=0.000000\n"
    assert err == (
        "warning: no deployment reached a positive fitness; the highest P_n the search "
        "scored was 0.00347222, at thold_p 0.7\n"
    )
    assert main(search + ["--scene", DESK, "--count", "12", "--out-dir", str(tmp_path / "desk")]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("generations=2 best=15.000000") and err == ""


def test_analyze_says_on_stderr_when_n_exceeds_the_plates(tmp_path, capsys):
    run_ok(["generate", "--scene", DESK, "--count", "12", "--out-dir", str(tmp_path / "dep")], capsys)
    base = ["analyze", "--scene", DESK, "--deployment", str(tmp_path / "dep" / "deployment.json")]
    for run in ("over", "again"):
        assert main(base + ["--n", "13", "--out-dir", str(tmp_path / run)]) == 0
        out, err = capsys.readouterr()
        assert out == "qualified_ratio=0.000000 average_cp=0.000000 maximum_cp=0.000000\n"
        assert err == "warning: n 13 exceeds the deployment's 12 plates, so P_n is 0 at every position\n"
    assert read_all(tmp_path / "over") == read_all(tmp_path / "again")
    for n in ([], ["--n", "12"]):
        assert main(base + n + ["--out-dir", str(tmp_path / "desk")]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("qualified_ratio=") and err == ""


def test_optimize_sga_defaults_to_no_elites(tmp_path, capsys):
    out = tmp_path / "out"
    run_ok(
        ["optimize", "--scene", DESK, "--count", "3", "--mode", "sga", "--m", "5",
         "--iterations", "2", "--out-dir", str(out)],
        capsys,
    )
    manifest = json.loads((out / "manifest.json").read_bytes())
    assert manifest["parameters"]["mode"] == "sga"
    assert manifest["parameters"]["q"] == 0

    # sga has no replacement step, so a nonzero --q could only be ignored
    rejected = tmp_path / "rejected"
    code = main(["optimize", "--scene", DESK, "--count", "3", "--mode", "sga", "--m", "8",
                 "--q", "5", "--iterations", "1", "--out-dir", str(rejected)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "--mode sga" in err and "--q 5" in err
    assert not rejected.exists()


def test_cli_commands_build_no_landmark(tmp_path, capsys, monkeypatch):
    built = []
    check = Landmark.__post_init__

    def spy(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Landmark, "__post_init__", spy)
    uniform, random = tmp_path / "uniform", tmp_path / "random"
    run_ok(["generate", "--scene", DESK, "--count", "8", "--out-dir", str(uniform)], capsys)
    run_ok(["generate", "--scene", DESK, "--count", "8", "--kind", "random",
            "--out-dir", str(random)], capsys)
    deployment = ["--deployment", str(uniform / "deployment.json")]
    run_ok(["analyze", "--scene", DESK, *deployment, "--out-dir", str(tmp_path / "a")], capsys)
    search = ["optimize", "--scene", DESK, "--m", "4", "--q", "1", "--iterations", "2"]
    for i, extra in enumerate((["--count", "4"], ["--count", "4", "--encoding", "free"],
                               ["--initial", str(uniform / "deployment.json")])):
        run_ok(search + extra + ["--out-dir", str(tmp_path / f"o{i}")], capsys)
    trajectory = tmp_path / "trajectory.json"
    trajectory.write_text(json.dumps({
        "schema": 1, "initial": {"position": [375.0, 250.0, 300.0]},
        "segments": [{"duration_s": 0.05}],
    }))
    simulate = ["simulate", "--scene", DESK, *deployment, "--trajectory", str(trajectory)]
    run_ok(simulate + ["--out-dir", str(tmp_path / "s0")], capsys)
    run_ok(simulate + ["--use-estimate-visibility", "--out-dir", str(tmp_path / "s1")], capsys)
    assert built == []


def test_occluder_tables_are_built_per_evaluation_and_pose_stack_only(tmp_path, capsys, monkeypatch):
    """One occluder table per ``evaluate_coverages`` call and per stacked
    ``pose_strengths`` call; none for the one-pose calls that
    ``--use-estimate-visibility`` makes at every step."""
    builds, evaluations, poses = [], [], []
    build = coverage_module._occluder_table
    monkeypatch.setattr(coverage_module, "_occluder_table", lambda *args: builds.append(1) or build(*args))
    evaluate = deployment_module.evaluate_coverages

    def counted(*args):
        evaluations.append(1)
        return evaluate(*args)

    for module in (deployment_module, ega_module):
        monkeypatch.setattr(module, "evaluate_coverages", counted)
    visible = observer_module.pose_strengths
    monkeypatch.setattr(observer_module, "pose_strengths",
                        lambda x, *args: poses.append(np.ndim(x)) or visible(x, *args))

    uniform = tmp_path / "uniform"
    run_ok(["generate", "--scene", DESK, "--count", "8", "--out-dir", str(uniform)], capsys)
    deployment = ["--deployment", str(uniform / "deployment.json")]
    run_ok(["analyze", "--scene", DESK, *deployment, "--out-dir", str(tmp_path / "a")], capsys)
    assert len(builds) == len(evaluations) == 1
    run_ok(["optimize", "--scene", DESK, "--count", "4", "--m", "4", "--q", "1", "--iterations", "3",
            "--out-dir", str(tmp_path / "o")], capsys)
    assert len(builds) == len(evaluations) >= 4

    trajectory = tmp_path / "trajectory.json"
    trajectory.write_text(json.dumps({
        "schema": 1, "initial": {"position": [375.0, 250.0, 300.0], "yaw": 0.5},
        "segments": [{"duration_s": 0.05}],
    }))
    simulate = ["simulate", "--scene", DESK, *deployment, "--trajectory", str(trajectory),
                "--k-i", "2e-5", "--visibility", "camera-model"]
    builds.clear()
    run_ok(simulate + ["--out-dir", str(tmp_path / "s0")], capsys)
    assert builds == [1] and poses == [3]
    builds.clear(), poses.clear()
    run_ok(simulate + ["--use-estimate-visibility", "--out-dir", str(tmp_path / "s1")], capsys)
    assert builds == [] and poses == [2] * 6


def test_simulate_static_trajectory_and_rerun(tmp_path, capsys):
    dep_dir = tmp_path / "dep"
    run_ok(["generate", "--scene", DESK, "--count", "8", "--out-dir", str(dep_dir)], capsys)
    trajectory = tmp_path / "trajectory.json"
    trajectory.write_text(json.dumps({
        "schema": 1,
        "initial": {"position": [375.0, 250.0, 300.0], "yaw": 0.5},
        "initial_estimate": {"position": [372.0, 251.0, 300.0], "yaw": 0.55},
        "segments": [{"duration_s": 0.5}],
    }))

    a, b = tmp_path / "a", tmp_path / "b"
    base = ["simulate", "--scene", DESK, "--deployment", str(dep_dir / "deployment.json"),
            "--trajectory", str(trajectory), "--k-i", "2e-5"]
    run_ok(base + ["--out-dir", str(a)], capsys)
    run_ok(base + ["--out-dir", str(b)], capsys)

    files = read_all(a)
    assert sorted(files) == ["manifest.json", "summary.json", "trace.csv"]
    assert files == read_all(b)
    assert_clean(a)

    lines = files["trace.csv"].decode().splitlines()
    assert lines[0] == "t,er,visible_count,qualified"
    assert len(lines) == 1 + 51  # 50 steps plus the initial sample
    summary = json.loads(files["summary.json"])
    assert summary["steps"] == 50
    assert summary["initial_error"] > 0
    assert summary["final_error"] <= summary["initial_error"]
    assert 0.0 <= summary["qualified_time_ratio"] <= 1.0
    manifest = json.loads(files["manifest.json"])
    assert manifest["parameters"]["visibility"] == "camera-model"
    assert manifest["parameters"]["k_i"] == 2e-5


def test_simulate_out_of_region_exits_3(tmp_path, capsys):
    dep_dir = tmp_path / "dep"
    run_ok(["generate", "--scene", DESK, "--count", "4", "--out-dir", str(dep_dir)], capsys)
    trajectory = tmp_path / "runaway.json"
    trajectory.write_text(json.dumps({
        "schema": 1,
        "initial": {"position": [375.0, 250.0, 300.0]},
        "segments": [{"duration_s": 1.0, "velocity_cm_s": [1000.0, 0.0, 0.0]}],
    }))
    out = tmp_path / "out"
    code = main(["simulate", "--scene", DESK, "--deployment",
                 str(dep_dir / "deployment.json"), "--trajectory", str(trajectory),
                 "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "left the reachable region" in err
    assert not out.exists()


@pytest.mark.parametrize("position, gain, step", [
    # an estimate whose error squares past the float range at t = 0
    pytest.param([1e200, 0.0, 0.0], "1.0", 0, id="estimate-1e200"),
    # a correction twist too large to integrate: sin(inf) on the first step
    pytest.param([380.0, 250.0, 300.0], "1e308", 1, id="k_i-1e308"),
])
def test_diverging_estimate_exits_3_naming_the_step(tmp_path, capsys, position, gain, step):
    dep_dir = tmp_path / "dep"
    run_ok(["generate", "--scene", DESK, "--count", "12", "--out-dir", str(dep_dir)], capsys)
    trajectory = tmp_path / "offset.json"
    trajectory.write_text(json.dumps({
        "schema": 1,
        "initial": {"position": [375.0, 250.0, 300.0]},
        "initial_estimate": {"position": position},
        "segments": [{"duration_s": 0.1}],
    }))
    out = tmp_path / "out"
    code = main(["simulate", "--scene", DESK, "--deployment", str(dep_dir / "deployment.json"),
                 "--trajectory", str(trajectory), "--visibility", "ideal", "--k-i", gain,
                 "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error:") and f"at step {step} (t=" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_random_walk_is_checked_at_the_simulation_step(tmp_path, capsys):
    dep_dir = tmp_path / "dep"
    run_ok(["generate", "--scene", DESK, "--count", "4", "--out-dir", str(dep_dir)], capsys)
    walk = {"duration_s": 19.8, "segment_duration_s": 0.6, "seed": 3, "lin_speed_cm_s": 80,
            "ang_speed_rad_s": 1.0}
    argv = ["simulate", "--scene", DESK, "--deployment", str(dep_dir / "deployment.json"),
            "--dt", "0.3", "--visibility", "ideal"]
    trajectory = tmp_path / "walk.json"
    trajectory.write_text(json.dumps({"schema": 1, "random_walk": walk}))
    # generated at --dt, the walk stays inside when simulated at that step
    run_ok(argv + ["--trajectory", str(trajectory), "--out-dir", str(tmp_path / "ok")], capsys)

    trajectory.write_text(json.dumps({"schema": 1, "random_walk": dict(walk, dt_s=0.01)}))
    out = tmp_path / "out"
    code = main(argv + ["--trajectory", str(trajectory), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "random_walk.dt_s" in err
    assert not out.exists()


def test_bad_inputs_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{ not json")
    out = tmp_path / "out"
    code = main(["analyze", "--scene", str(broken), "--deployment", str(broken),
                 "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()

    code = main(["optimize", "--scene", DESK, "--count", "3", "--m", "4", "--q", "7",
                 "--iterations", "1", "--out-dir", str(out)])
    assert code == 2
    assert "Q + 1 <= M" in capsys.readouterr().err
    assert not out.exists()


def test_out_dir_that_is_not_a_directory_exits_2(tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    generate = ["generate", "--scene", DESK, "--count", "6"]
    # an --out-dir that is a file is refused before the scene is even read
    real_load = cli_module.load_scene
    monkeypatch.setattr(cli_module, "load_scene", lambda path: pytest.fail("read the scene"))
    assert main(generate + ["--out-dir", str(taken)]) == 2
    assert capsys.readouterr().err == f"error: --out-dir {taken} exists and is not a directory\n"
    monkeypatch.setattr(cli_module, "load_scene", real_load)
    # a directory that cannot be made is found when the outputs are published
    under = taken / "report"
    assert main(generate + ["--out-dir", str(under)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out-dir {under}: cannot create it") and "\n" not in err[:-1]
    assert taken.read_text() == "not a directory\n" and sorted(os.listdir(tmp_path)) == ["taken"]


def _edit(doc, path, value):
    """A deep copy of ``doc`` with the dotted ``path`` set to ``value``.

    Numeric parts of the path index arrays; a tuple of paths sets each to
    the matching entry of a tuple of values.
    """
    doc = json.loads(json.dumps(doc))
    edits = zip(path, value) if isinstance(path, tuple) else [(path, value)]
    for dotted, new_value in edits:
        *parents, last = [int(key) if key.isdigit() else key for key in dotted.split(".")]
        node = doc
        for key in parents:
            node = node[key]
        node[last] = new_value
    return doc


DESK_POINTS = 48
DESK_CELLS = 72


MALFORMED_INPUTS = [
    ("scene", "orientation.yaw_step_rad", 0, "yaw_step_rad"),
    ("scene", "orientation", 3, "orientation"),
    ("scene", "rel", 3, "rel"),
    ("scene", "walls", "x_min", "walls"),
    ("scene", "grid.nx", 2.7, "grid.nx"),
    ("scene", "coverage.n", 1.5, "coverage.n"),
    ("scene", "intrinsics.width_px", 1600.5, "width_px"),
    ("scene", "intrinsics.height_px", 1200.5, "height_px"),
    ("pdf", "n_yaw", None, "n_yaw"),
    ("pdf", "n_yaw", 12.7, "n_yaw"),
    ("trajectory", "random_walk.dt_s", 0, "dt_s"),
    ("trajectory", "random_walk.seed", 1.5, "seed"),
    ("trajectory", "random_walk.seed", True, "seed"),
    ("scene", "rel", {"values": [{}] + [1.0] * (DESK_POINTS - 1)}, "rel.values[0]"),
    ("scene", "rel", {"values": [None] + [1.0] * (DESK_POINTS - 1)}, "rel.values[0]"),
    ("scene", "rel", {"values": ["2"] + [1.0] * (DESK_POINTS - 1)}, "rel.values[0]"),
    ("scene", "rel", {"values": [True] + [1.0] * (DESK_POINTS - 1)}, "rel.values[0]"),
    ("scene", "pdf", {"weights": {}}, "pdf.weights"),
    ("scene", "pdf", {"weights": [None] + [1.0 / DESK_CELLS] * (DESK_CELLS - 1)}, "pdf.weights[0]"),
    pytest.param("scene", "room.length_cm", 10**400, "room.length_cm",
                 id="scene-room.length_cm-401_digits-room.length_cm"),
    # Both negative, so the grid product still matches the 72 weights.
    ("pdf", ("n_yaw", "n_pitch"), (-12, -6), "n_yaw"),
    ("pdf", "weights", [None] * DESK_CELLS, "weights[0]"),
    ("pdf", "weights", [str(1.0 / DESK_CELLS)] * DESK_CELLS, "weights[0]"),
    ("trajectory", "random_walk.duration_s", "1", "duration_s"),
    ("trajectory", "random_walk.lin_speed_cm_s", True, "lin_speed_cm_s"),
    ("trajectory", "random_walk.margin_cm", math.nan, "margin_cm"),
    ("trajectory", "schema", True, "schema"),
    ("segments", "initial.yaw", "0.5", "initial.yaw"),
    ("segments", "initial.position", ["375", 250.0, 300.0], "initial.position[0]"),
    ("segments", "segments.0.duration_s", "0.1", "segments[0].duration_s"),
    ("segments", "segments.0.omega_rad_s", ["0", 0, "0.1"], "segments[0].omega_rad_s[0]"),
    # the walk is generated at --dt (0.01 here), so a second step size is an error
    ("trajectory", "random_walk.dt_s", 0.02, "dt_s"),
    # sizes above the caps exit before any array is built
    ("scene", "grid.nx", 10**9, "grid.nx"),
    ("scene", "orientation.yaw_step_rad", 1e-9, "yaw_step_rad"),
    ("scene", "orientation.pitch_step_rad", 5e-324, "pitch_step_rad"),
    # "@0.3" simulates at --dt 0.3: durations must be whole steps of it
    ("segments@0.3", "segments.0.duration_s", 2.0, "segments[0].duration_s"),
    ("trajectory@0.3", ("random_walk.dt_s", "random_walk.duration_s", "random_walk.segment_duration_s"),
     (0.3, 2.1, 0.7), "segment_duration_s"),
    ("trajectory@0.3", ("random_walk.dt_s", "random_walk.duration_s", "random_walk.segment_duration_s"),
     (0.3, 2.0, 0.6), "random_walk.duration_s"),
    # 10^10 steps of 0.01 s, and 10^9 plates: above the step and plate caps
    ("segments", "segments.0.duration_s", 1e8, "segments[0].duration_s"),
    ("trajectory", "random_walk.duration_s", 1e8, "random_walk.duration_s"),
    ("generate", "--count", 10**9, "count"),
    # 6000 desk plates stay under the gate-evaluation cap but not the plate cap
    ("optimize", "--count", 6000, "count"),
    ("optimize", "--count", 0, "count"),
    # a field-of-view tangent past the float range
    ("scene", "intrinsics.f_mm", 1e-300, "intrinsics"),
    pytest.param("scene", "intrinsics.width_px", 10**400, "intrinsics",
                 id="scene-intrinsics.width_px-401_digits-intrinsics"),
    # a plate field out of range names the plate and the field
    ("deployment", "landmarks.0.rho", math.pi, "landmarks[0]: rho"),
    ("deployment", "landmarks.0.eta", 2.0, "landmarks[0]: eta"),
    ("deployment", "landmarks.0.mu", -3.5, "landmarks[0]: mu"),
    ("deployment", "landmarks.0.nu", 0.0, "landmarks[0]: nu"),
    # an override goes through the scene's one thold_p check
    ("analyze", "--thold-p", "nan", "thold_p"),
    ("analyze", "--thold-p", "-1", "thold_p"),
    ("analyze", "--thold-p", "1.5", "thold_p"),
    ("analyze", "--thold-p", "inf", "thold_p"),
    # a negative seed is named where it reaches the generator
    ("trajectory", "random_walk.seed", -1, "seed must be a non-negative integer, got -1"),
    # and for a uniform layout too, which draws nothing but records the seed
    ("generate", "--seed", -1, "seed must be a non-negative integer, got -1"),
    # relevance whose total, and so some cost, overflows
    ("scene", "rel", {"values": [1e308] * DESK_POINTS}, "rel weights"),
    # a rotation rate whose |omega * dt|^2 overflows, which the integrator meets as sin(inf)
    ("segments", "segments.0.omega_rad_s", [1e308, 0.0, 0.0], "segments[0].omega_rad_s"),
    ("trajectory", "random_walk.ang_speed_rad_s", 1e308, "random_walk.ang_speed_rad_s"),
    # a step so coarse that its axis rounds to no cell
    ("scene", "orientation.yaw_step_rad", 100, "yaw_step_rad"),
    ("scene", "orientation.pitch_step_rad", 100, "pitch_step_rad"),
]


@pytest.mark.parametrize("target, path, value, field", MALFORMED_INPUTS)
def test_malformed_field_exits_2_naming_it(tmp_path, capsys, target, path, value, field):
    target, _, dt = target.partition("@")
    docs = {
        "scene": json.loads((CONFIG_DIR / "desk_room.json").read_text(encoding="utf-8")),
        # 12.7 truncated to 12 would match these 72 weights and the 12 x 6 desk grid.
        "pdf": {"schema": 1, "n_yaw": 12, "n_pitch": 6, "weights": [1.0 / 72.0] * 72},
        "trajectory": {
            "schema": 1,
            "random_walk": {"duration_s": 0.1, "seed": 0, "dt_s": 0.01},
        },
        "segments": {
            "schema": 1,
            "initial": {"position": [375.0, 250.0, 300.0]},
            "segments": [{"duration_s": 0.1}],
        },
        "deployment": {
            "schema": 1,
            "landmarks": [{"x": 300.0, "y": 0.0, "z": 300.0, "rho": 0.0, "eta": 0.0, "nu": 10.0}],
        },
    }
    if target in docs:
        docs[target] = _edit(docs[target], path, value)
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    out = tmp_path / "out"
    common = ["--scene", str(paths["scene"]), "--out-dir", str(out)]
    argv = {
        "scene": ["generate", "--count", "3"],
        "pdf": ["analyze", "--deployment", str(paths["deployment"]), "--pdf", str(paths["pdf"])],
        "trajectory": ["simulate", "--deployment", str(paths["deployment"]),
                       "--trajectory", str(paths["trajectory"])],
        "segments": ["simulate", "--deployment", str(paths["deployment"]),
                     "--trajectory", str(paths["segments"])],
        # a --count in path and value overrides the 3
        "generate": ["generate", "--count", "3", path, str(value)],
        "analyze": ["analyze", "--deployment", str(paths["deployment"]), path, str(value)],
        "deployment": ["analyze", "--deployment", str(paths["deployment"])],
        "optimize": ["optimize", path, str(value), "--m", "1", "--q", "0", "--iterations", "0"],
    }[target]
    if dt:
        argv += ["--dt", dt]
    code = main(argv + common)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and field in err.splitlines()[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "optimize", "estimate-pdf"])
def test_negative_seed_exits_2_naming_it(tmp_path, capsys, command):
    samples = tmp_path / "samples.csv"
    samples.write_text("t,alpha,beta\n" + "".join(f"{i * 0.01},0.1,0.2\n" for i in range(200)))
    argv = {
        "generate": ["generate", "--scene", DESK, "--count", "3", "--kind", "random"],
        "optimize": ["optimize", "--scene", DESK, "--count", "2", "--m", "2", "--q", "0",
                     "--iterations", "0"],
        "estimate-pdf": ["estimate-pdf", "--samples", str(samples)],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--seed", "-1", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "error: seed must be a non-negative integer, got -1"
    assert not out.exists()


def test_inline_scene_density_matches_uniform(tmp_path, capsys):
    dep_dir = tmp_path / "dep"
    run_ok(["generate", "--scene", DESK, "--count", "6", "--out-dir", str(dep_dir)], capsys)
    doc = json.loads((CONFIG_DIR / "desk_room.json").read_text(encoding="utf-8"))
    doc["pdf"] = {"weights": [1.0 / DESK_CELLS] * DESK_CELLS}
    inline = tmp_path / "inline.json"
    inline.write_text(json.dumps(doc))
    plain, weighted = tmp_path / "plain", tmp_path / "weighted"
    base = ["analyze", "--deployment", str(dep_dir / "deployment.json")]
    run_ok(base + ["--scene", DESK, "--out-dir", str(plain)], capsys)
    run_ok(base + ["--scene", str(inline), "--out-dir", str(weighted)], capsys)
    for name in ("coverage.csv", "metrics.json"):
        assert read_all(plain)[name] == read_all(weighted)[name]


def test_oversized_evaluation_exits_2_before_building(tmp_path, capsys, monkeypatch):
    dep_dir = tmp_path / "dep"
    run_ok(["generate", "--scene", DESK, "--count", "6", "--out-dir", str(dep_dir)], capsys)
    analyze = ["analyze", "--scene", DESK, "--deployment", str(dep_dir / "deployment.json")]
    gates = DESK_POINTS * DESK_CELLS * 6
    monkeypatch.setattr(deployment_module, "MAX_GATE_EVALUATIONS", gates)
    run_ok(analyze + ["--out-dir", str(tmp_path / "at-cap")], capsys)
    monkeypatch.setattr(deployment_module, "MAX_GATE_EVALUATIONS", gates - 1)
    out = tmp_path / "out"
    assert main(analyze + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "grid.nx" in err and "plates (6)" in err
    assert not out.exists()

    monkeypatch.undo()
    code = main(["optimize", "--scene", DESK, "--count", str(10**8), "--iterations", "1",
                 "--out-dir", str(out)])
    assert code == 2
    assert "grid.nx" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, threads", [("analyze", "0"), ("optimize", "-1"), ("analyze", "257")])
def test_out_of_range_thread_counts_exit_2_before_any_thread_starts(tmp_path, capsys, command, threads):
    plates = tmp_path / "plates"
    run_ok(["generate", "--scene", DESK, "--count", "6", "--out-dir", str(plates)], capsys)
    argv = {
        "analyze": ["analyze", "--deployment", str(plates / "deployment.json")],
        "optimize": ["optimize", "--count", "3", "--m", "8", "--iterations", "1"],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--scene", DESK, "--threads", threads, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "thread count" in err and f"got {threads}" in err
    assert not out.exists()


def test_step_and_plate_caps_hold_at_the_boundary(tmp_path, capsys, monkeypatch):
    plates = tmp_path / "plates"
    generate = ["generate", "--scene", DESK, "--count", "6"]
    monkeypatch.setattr(deployment_module, "MAX_PLATES", 6)
    run_ok(generate + ["--out-dir", str(plates)], capsys)
    monkeypatch.setattr(deployment_module, "MAX_PLATES", 5)
    out = tmp_path / "out"
    assert main(generate + ["--kind", "random", "--out-dir", str(out)]) == 2
    assert "count" in capsys.readouterr().err
    assert not out.exists()

    trajectory = tmp_path / "trajectory.json"
    trajectory.write_text(json.dumps({"schema": 1, "random_walk": {"duration_s": 0.1, "seed": 0}}))
    deployment = ["--scene", DESK, "--deployment", str(plates / "deployment.json")]
    simulate = ["simulate", *deployment, "--trajectory", str(trajectory)]
    for argv in (["analyze", *deployment], simulate):
        monkeypatch.setattr(deployment_module, "MAX_PLATES", 6)
        run_ok(argv + ["--out-dir", str(tmp_path / "at-cap")], capsys)
        monkeypatch.setattr(deployment_module, "MAX_PLATES", 5)
        assert main(argv + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and ".landmarks: 6 plates" in err
        assert not out.exists()

    monkeypatch.setattr(deployment_module, "MAX_PLATES", 6)
    # two segments of 5 steps of 0.01 s, then a walk of 10 steps
    for doc, field in (
        ({"schema": 1, "initial": {"position": [375.0, 250.0, 300.0]},
          "segments": [{"duration_s": 0.05}, {"duration_s": 0.05}]}, "segments[1].duration_s"),
        ({"schema": 1, "random_walk": {"duration_s": 0.1, "seed": 0}}, "random_walk.duration_s"),
    ):
        trajectory.write_text(json.dumps(doc))
        monkeypatch.setattr(observer_module, "MAX_STEPS", 10)
        run_ok(simulate + ["--out-dir", str(tmp_path / "at-cap")], capsys)
        monkeypatch.setattr(observer_module, "MAX_STEPS", 9)
        assert main(simulate + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "10 steps" in err
        assert not out.exists()


def test_population_caps_hold_at_the_boundary(tmp_path, capsys, monkeypatch):
    # 8 chromosomes of 3 plates on the desk's 48 positions: 384 rows, 24 plates
    optimize = ["optimize", "--scene", DESK, "--count", "3", "--m", "8", "--iterations", "0"]
    out = tmp_path / "out"
    for name, at_cap in (
        ("MAX_POSITIONS", 8 * DESK_POINTS), ("MAX_GENERATION_PLATES", 8 * 3), ("MAX_GENERATION_PAIRS", 8 * 3 * 3),
    ):
        monkeypatch.setattr(ega_module, name, at_cap)
        run_ok(optimize + ["--out-dir", str(tmp_path / "at-cap")], capsys)
        monkeypatch.setattr(ega_module, name, at_cap - 1)
        assert main(optimize + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--m 8" in err and f"cap of {at_cap - 1}" in err
        assert not out.exists()
        monkeypatch.undo()

    # refused before the population is drawn, not by a failed allocation
    huge = ["optimize", "--scene", DESK, "--count", "12", "--m", str(10**15), "--out-dir", str(out)]
    assert main(huge) == 2
    assert "--m" in capsys.readouterr().err
    assert not out.exists()


def _run_python(argv, timeout=120):
    """Run a fresh interpreter with the package importable."""
    env = dict(os.environ)
    src = str(CONFIG_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout,
    )


def _python(argv, timeout=120):
    """Run a fresh interpreter with the package importable; its stdout."""
    done = _run_python(argv, timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_package_loads_no_scipy():
    # A fresh interpreter, since this one may have imported scipy already.
    loaded = _python(["-c", (
        "import sys, landmark_coverage, landmark_coverage.cli\n"
        "print(*[m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )])
    assert loaded.split() == []


def test_simulate_loads_no_scipy(tmp_path):
    # The observer's exponential is se3_exp's closed form, so a whole
    # simulate run, camera model included, leaves scipy unloaded.
    trajectory = tmp_path / "trajectory.json"
    trajectory.write_text(json.dumps({"schema": 1, "random_walk": {"duration_s": 0.5, "seed": 0}}))
    plates, out = tmp_path / "plates", tmp_path / "out"
    loaded = _python(["-c", (
        "import sys\n"
        "from landmark_coverage.cli import main\n"
        f"assert main(['generate', '--scene', {DESK!r}, '--count', '12', '--out-dir', {str(plates)!r}]) == 0\n"
        f"assert main(['simulate', '--scene', {DESK!r}, '--deployment', {str(plates / 'deployment.json')!r},"
        f" '--trajectory', {str(trajectory)!r}, '--visibility', 'camera-model',"
        f" '--out-dir', {str(out)!r}]) == 0\n"
        "print('scipy modules:', *[m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )])
    assert loaded.splitlines()[-1] == "scipy modules:"
    assert (out / "trace.csv").exists()


def test_estimate_pdf_without_scipy_exits_1_naming_the_extra(tmp_path):
    samples = tmp_path / "samples.csv"
    samples.write_text("t,alpha,beta\n" + "".join(f"{i * 0.01},0.1,0.2\n" for i in range(200)))
    out = tmp_path / "out"
    done = _run_python(["-c", (
        "import sys\n"
        "sys.modules['scipy'] = None  # what an install without the pdf extra sees\n"
        "from landmark_coverage.cli import main\n"
        f"sys.exit(main(['estimate-pdf', '--samples', {str(samples)!r}, '--out-dir', {str(out)!r}]))"
    )])
    assert done.returncode == 1
    assert done.stderr == "error: estimate-pdf needs scipy: pip install 'landmark-coverage[pdf]'\n"
    assert not out.exists()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sized to glibc's malloc thresholds")
@pytest.mark.parametrize("config, plates", [("table3_room", 90), ("desk_room", 200)])
def test_repeated_coverage_evaluation_reuses_heap_pages(config, plates):
    # The kernel's float blocks must come back from the heap, not be handed
    # to the OS and faulted in again: a second evaluation in a fresh
    # interpreter takes almost no minor page faults. The desk with 200
    # plates has more plates than cells, so its occlusion pass sets the
    # block size.
    assert second_call_faults(
        config, f"plates = lc.generate_random(scene, {plates}, seed=0)", "lc.evaluate_coverage(scene, plates)"
    ) <= 500


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sized to glibc's malloc thresholds")
def test_repeated_generation_scoring_reuses_heap_pages():
    # A search generation on the desk: 29 stacked 12-plate chromosomes in
    # 303-row passes, so its blocks are six times one deployment's.
    assert second_call_faults(
        "desk_room",
        "space = lc.GeneSpace(scene, 12, 'wall')\n"
        "rng = np.random.default_rng(0)\n"
        "plates = space.decode(np.stack([space.random(rng) for _ in range(29)]))",
        "lc.deployment.evaluate_coverages(scene, plates, 29)",
    ) <= 500


def second_call_faults(config, setup, call):
    """Minor page faults of the second of two ``call``s in a fresh interpreter."""
    return int(_python(["-c", (
        "import resource, numpy as np, landmark_coverage as lc\n"
        f"scene = lc.load_scene({str(CONFIG_DIR / f'{config}.json')!r})\n"
        f"{setup}\n"
        f"{call}\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"{call}\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )]))


@pytest.mark.parametrize(
    "demo", ["observer_walkthrough.py", "visibility_anatomy.py", "estimate_density.py"]
)
def test_demo_runs(demo):
    assert _python([str(CONFIG_DIR.parent / "demos" / demo)])


def test_sweep_and_search_demos_run(tmp_path):
    demos = CONFIG_DIR.parent / "demos"
    assert _python([str(demos / "coverage_sweep.py")])
    champion = tmp_path / "champion.json"
    assert _python([str(demos / "optimize_desk.py"), "--seeds", "0", "--iterations", "3",
                    "--out", str(champion)])
    assert champion.exists()


def test_cli_walkthrough_demo_runs(capsys):
    spec = importlib.util.spec_from_file_location(
        "cli_walkthrough", CONFIG_DIR.parent / "demos" / "cli_walkthrough.py"
    )
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert "rerun byte-identical: True" in capsys.readouterr().out


def test_analyze_rejects_mismatched_pdf_grid(tmp_path, capsys):
    dep_dir = tmp_path / "dep"
    run_ok(["generate", "--scene", DESK, "--count", "4", "--out-dir", str(dep_dir)], capsys)
    pdf_path = tmp_path / "pdf.json"
    pdf_path.write_text(json.dumps({
        "schema": 1, "n_yaw": 6, "n_pitch": 3, "weights": [1.0 / 18.0] * 18,
    }))
    out = tmp_path / "out"
    code = main(["analyze", "--scene", DESK, "--deployment",
                 str(dep_dir / "deployment.json"), "--pdf", str(pdf_path),
                 "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "does not match the scene grid" in err


def test_estimate_pdf_outputs_and_rerun(tmp_path, capsys):
    rng = np.random.default_rng(3)
    n = 20000
    rows = ["t,alpha,beta"]
    alpha = rng.uniform(-math.pi, math.pi, n)
    beta = rng.uniform(-math.pi / 2, math.pi / 2, n)
    for i in range(n):
        rows.append(f"{i * 0.01:.17g},{alpha[i]:.17g},{beta[i]:.17g}")
    samples = tmp_path / "samples.csv"
    samples.write_text("\n".join(rows) + "\n")

    a, b = tmp_path / "a", tmp_path / "b"
    base = ["estimate-pdf", "--samples", str(samples), "--seed", "4", "--mean-gap", "0.2"]
    run_ok(base + ["--out-dir", str(a)], capsys)
    run_ok(base + ["--out-dir", str(b)], capsys)

    files = read_all(a)
    assert sorted(files) == ["manifest.json", "pdf.json", "report.json"]
    assert files == read_all(b)
    assert_clean(a)

    pdf = json.loads(files["pdf.json"])
    assert pdf["n_yaw"] == 24 and pdf["n_pitch"] == 12
    assert len(pdf["weights"]) == 288
    assert math.isclose(math.fsum(pdf["weights"]), 1.0, abs_tol=1e-9)
    report = json.loads(files["report.json"])
    assert report["n_raw"] == n
    assert 0 < report["n_kept"] < n
    assert report["mean_gap"] == 0.2


def test_estimate_pdf_too_few_samples_exits_2(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    rows = ["t,alpha,beta"] + [f"{i * 0.01},0.1,0.2" for i in range(10)]
    samples.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    code = main(["estimate-pdf", "--samples", str(samples), "--mean-gap", "0.001",
                 "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "too few samples" in err
    assert not out.exists()


@pytest.mark.parametrize("n_yaw, n_pitch", [(2000, 1000), (10**5, 10**5)])
def test_estimate_pdf_above_the_cell_cap_exits_2_before_any_histogram(
    tmp_path, capsys, monkeypatch, n_yaw, n_pitch
):
    def refuse(*args, **kwargs):
        raise AssertionError("a histogram was built")

    monkeypatch.setattr(np, "histogram", refuse)
    monkeypatch.setattr(np, "histogram2d", refuse)
    samples = tmp_path / "samples.csv"
    rows = ["t,alpha,beta"] + [f"{i * 0.01},0.1,0.2" for i in range(200)]
    samples.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    code = main(["estimate-pdf", "--samples", str(samples), "--n-yaw", str(n_yaw),
                 "--n-pitch", str(n_pitch), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and f"{n_yaw} x {n_pitch}" in err and "1000000" in err
    assert not out.exists()


def test_version_and_bad_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "landmark-coverage" in capsys.readouterr().out

    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
