"""The package surface that bench/ calls, called the same way.

The benchmark's worker, workloads and tracer live under bench/ and are not
edited together with the package, so a change that renames or reshapes
any of these calls must fail here first.
"""

import dataclasses
import inspect

import numpy as np

import landmark_coverage as lc
import landmark_coverage.cli
from conftest import CONFIG_DIR

DESK = CONFIG_DIR / "desk_room.json"


def scalar_p_n(scene, landmarks, point):
    """P_n at one position from the scalar criteria, as bench/workloads.py does."""
    grid = scene.grid
    thold = scene.params.thold
    masks = np.zeros((len(landmarks), grid.n_cells), dtype=bool)
    for g in range(grid.n_cells):
        yaw, pitch = grid.cell_angles(g)
        pose = lc.Pose6(point, yaw=yaw, pitch=pitch)
        for k in range(len(landmarks)):
            strength = lc.coverage_strength(k, landmarks, pose, scene.intrinsics, scene.params.delta)
            masks[k, g] = strength >= thold if thold > 0 else strength > 0
    counts = masks.sum(axis=0)
    caps = lc.CapSet(masks=masks, n=scene.params.n, nple=counts >= scene.params.n)
    return lc.nple_probability(caps, scene.pdf)


def test_occlusion_probe_call(tmp_path):
    scene = lc.load_scene(DESK)
    lc.save_deployment(tmp_path / "deployment.json", lc.generate_random(scene, 12, seed=0))
    landmarks = lc.load_deployment(tmp_path / "deployment.json").landmarks
    rotations = scene.grid.rotations()[:1]
    out = lc.strengths_grid(scene.points, rotations, landmarks, scene.intrinsics, scene.params.delta)
    assert out.shape == (scene.n_points, 1, 12)


def test_tracer_names_and_argument_names():
    layers = ("coverage", "deployment", "ega", "geometry", "observer", "cli")
    assert all(inspect.ismodule(getattr(lc, name)) for name in layers)
    params = list(inspect.signature(lc.coverage.strengths_grid).parameters)
    assert params[:5] == ["points", "rotations", "landmarks", "intrinsics", "delta"]
    assert inspect.isfunction(lc.observer.pose_strengths)
    assert inspect.isfunction(lc.observer.random_walk_trajectory)
    assert inspect.isfunction(lc.ega.GeneSpace.decode)
    assert isinstance(lc.__version__, str)


def test_traced_simulate_names_are_functions():
    """The desk-simulate per-layer figures read spans of these names."""
    for module, name in [
        ("observer", "observer_step"),
        ("observer", "simulate"),
        ("observer", "pose_strengths"),
        ("observer", "random_walk_trajectory"),
        ("geometry", "se3_step"),
        ("geometry", "se3_path"),
    ]:
        assert inspect.isfunction(getattr(getattr(lc, module), name, None)), f"{module}.{name}"


def test_traced_gate_core_names_are_functions():
    """The per-layer figures read the gate core's spans by these names."""
    for name in ("cell_counts", "axis_strengths"):
        assert inspect.isfunction(getattr(lc.coverage, name, None)), f"coverage.{name}"


def test_scalar_spot_check_matches_batched_p_n():
    scene = lc.load_scene(DESK)
    deployment = lc.generate_random(scene, 12, seed=1)
    coverage = lc.evaluate_coverage(scene, deployment)
    assert coverage.rel.shape == coverage.qualified.shape == coverage.p_n.shape
    for b in (0, int(np.argmax(coverage.p_n))):
        assert scalar_p_n(scene, deployment.landmarks, scene.points[b]) == coverage.p_n[b]


def test_pdf_override_as_the_analyze_workload_reads_it():
    scene = lc.load_scene(DESK)
    doc = {
        "schema": 1,
        "n_yaw": scene.grid.n_yaw,
        "n_pitch": scene.grid.n_pitch,
        "weights": [1.0 / scene.grid.n_cells] * scene.grid.n_cells,
    }
    pdf, n_yaw, n_pitch = lc.pdf_estimation.pdf_from_json(doc)
    assert (n_yaw, n_pitch) == (scene.grid.n_yaw, scene.grid.n_pitch)
    replaced = dataclasses.replace(scene, pdf=pdf)
    assert replaced.pdf is pdf and replaced.thold_p == scene.thold_p


def test_gene_space_decode_and_cli_entry(tmp_path, capsys):
    scene = lc.load_scene(DESK)
    space = lc.GeneSpace(scene, 3, "wall")
    decoded = space.decode(space.random(np.random.default_rng(0)))
    assert isinstance(decoded, lc.Deployment) and len(decoded) == 3
    assert scene.center.shape == (3,)  # the simulate workload starts its walk from it
    code = landmark_coverage.cli.main(
        ["generate", "--scene", str(DESK), "--count", "3", "--out-dir", str(tmp_path / "gen")]
    )
    capsys.readouterr()
    assert code == 0
