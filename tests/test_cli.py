"""End-to-end command line checks: outputs, determinism, exit codes."""

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
from landmark_coverage import deployment as deployment_module
from landmark_coverage import observer as observer_module
from landmark_coverage.cli import main

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
        "generate": ["generate", path, str(value)],
        "optimize": ["optimize", path, str(value), "--m", "1", "--q", "0", "--iterations", "0"],
    }[target]
    if dt:
        argv += ["--dt", dt]
    code = main(argv + common)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and field in err.splitlines()[0]
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


def _python(argv, timeout=120):
    """Run a fresh interpreter with the package importable; its stdout."""
    env = dict(os.environ)
    src = str(CONFIG_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_package_loads_no_scipy():
    # A fresh interpreter, since this one may have imported scipy already.
    loaded = _python(["-c", (
        "import sys, landmark_coverage, landmark_coverage.cli\n"
        "print(*[m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )])
    assert loaded.split() == []


def test_se3_path_loads_scipy_linalg_only():
    loaded = _python(["-c", (
        "import sys, numpy as np\n"
        "from landmark_coverage import geometry\n"
        "geometry.se3_path(np.eye(4), np.zeros((4, 4)), 0.01, 2)\n"
        "print('scipy.linalg' in sys.modules, 'scipy.stats' in sys.modules)"
    )])
    assert loaded.split() == ["True", "False"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sized to glibc's malloc thresholds")
@pytest.mark.parametrize("config, plates", [("table3_room", 90), ("desk_room", 200)])
def test_repeated_coverage_evaluation_reuses_heap_pages(config, plates):
    # The kernel's float blocks must come back from the heap, not be handed
    # to the OS and faulted in again: a second evaluation in a fresh
    # interpreter takes almost no minor page faults. The desk with 200
    # plates has more plates than cells, so its occlusion pass sets the
    # block size.
    faults = _python(["-c", (
        "import resource, landmark_coverage as lc\n"
        f"scene = lc.load_scene({str(CONFIG_DIR / f'{config}.json')!r})\n"
        f"plates = lc.generate_random(scene, {plates}, seed=0)\n"
        "lc.evaluate_coverage(scene, plates)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "lc.evaluate_coverage(scene, plates)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )])
    assert int(faults) <= 500


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
