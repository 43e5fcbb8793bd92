"""Scenes, walls, deployment generators, evaluation, and the JSON formats."""

import json
import math

import numpy as np
import pytest

import landmark_coverage.deployment as dep
from landmark_coverage.coverage import CoverageParams, coverage_probabilities
from landmark_coverage.errors import SchemaError
from landmark_coverage.geometry import CameraIntrinsics, Landmark

INTRINSICS = CameraIntrinsics(
    f=5.0, s_u=0.0058, s_v=0.0058, o_u=800, o_v=600,
    width=1600, height=1200, d_a=10.0, d_s=1778.0,
)


def small_scene(**overrides):
    kwargs = dict(
        room_cm=(300.0, 200.0, 250.0),
        reachable_cm=(200.0, 100.0, 150.0),
        grid_shape=(3, 2, 2),
        intrinsics=INTRINSICS,
        params=CoverageParams(thold=0.2, delta=4.0, n=1),
        thold_p=0.3,
        n_yaw=12,
        n_pitch=6,
    )
    kwargs.update(overrides)
    return dep.make_scene(**kwargs)


# ---------------------------------------------------------------------------
# Walls


def test_standard_walls_geometry():
    walls = dep.standard_walls(750.0, 500.0, 600.0)
    assert [w.name for w in walls] == list(dep.WALL_NAMES)
    by_name = {w.name: w for w in walls}
    assert by_name["x_min"].area == 500.0 * 600.0
    assert by_name["y_max"].area == 750.0 * 600.0
    assert by_name["z_min"].area == 750.0 * 500.0
    # Inward normals point into the room.
    assert np.array_equal(by_name["x_min"].normal, [1.0, 0.0, 0.0])
    assert np.array_equal(by_name["x_max"].normal, [-1.0, 0.0, 0.0])
    assert np.array_equal(by_name["z_max"].normal, [0.0, 0.0, -1.0])
    # Corners via the parametrization.
    assert np.array_equal(by_name["x_max"].point(0.0, 0.0), [750.0, 0.0, 0.0])
    assert np.array_equal(by_name["x_max"].point(1.0, 1.0), [750.0, 500.0, 600.0])


def test_wall_locate():
    wall = dep.standard_walls(300.0, 200.0, 250.0)[0]  # x_min
    u, v = wall.locate([0.0, 50.0, 125.0])
    assert math.isclose(u, 0.25, rel_tol=1e-12)
    assert math.isclose(v, 0.5, rel_tol=1e-12)
    assert wall.locate([1.0, 50.0, 125.0]) is None  # off the plane
    assert wall.locate([0.0, 250.0, 125.0]) is None  # outside the patch
    # Round-trip through point().
    u2, v2 = wall.locate(wall.point(0.7, 0.1))
    assert math.isclose(u2, 0.7, rel_tol=1e-12)
    assert math.isclose(v2, 0.1, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Scene construction


def test_make_scene_grid_points():
    scene = small_scene()
    assert scene.n_points == 3 * 2 * 2
    lo, hi = scene.reachable_bounds()
    assert np.allclose(lo, [50.0, 50.0, 50.0])
    assert np.allclose(hi, [250.0, 150.0, 200.0])
    spacing = scene.reachable / np.array([3, 2, 2])
    assert np.allclose(scene.points[0], lo + spacing / 2)
    assert np.allclose(scene.points[-1], hi - spacing / 2)
    assert np.allclose(scene.center, [150.0, 100.0, 125.0])
    assert scene.contains_reachable(scene.center)
    assert scene.contains_reachable(lo)
    assert not scene.contains_reachable(lo - [0.1, 0.0, 0.0])
    assert np.all(scene.rel == 1.0)
    assert scene.grid.n_cells == 72


def test_contains_reachable_takes_position_arrays():
    scene = small_scene()
    lo, hi = scene.reachable_bounds()
    positions = np.array([scene.center, lo, hi, lo - [0.1, 0.0, 0.0], hi + [0.0, 0.0, 0.1],
                          [np.nan, 100.0, 100.0]])
    inside = scene.contains_reachable(positions)
    assert inside.dtype == bool and inside.tolist() == [True, True, True, False, False, False]
    assert scene.contains_reachable(positions.reshape(2, 3, 3)).shape == (2, 3)
    assert scene.contains_reachable(np.empty((0, 3))).shape == (0,)


def test_make_scene_validation():
    with pytest.raises(ValueError):
        small_scene(reachable_cm=(400.0, 100.0, 100.0))  # larger than the room
    with pytest.raises(ValueError):
        small_scene(thold_p=1.5)
    with pytest.raises(ValueError):
        small_scene(grid_shape=(0, 2, 2))
    with pytest.raises(ValueError):
        small_scene(wall_names=["ceiling"])
    with pytest.raises(ValueError):
        small_scene(rel=np.ones(5))
    with pytest.raises(ValueError):
        small_scene(pdf=np.full(10, 0.1))
    with pytest.raises(ValueError):
        small_scene(nu_default=0.0)


def test_make_scene_rejects_nan_rel():
    rel = np.ones(12)
    rel[3] = np.nan
    with pytest.raises(ValueError, match="non-negative"):
        small_scene(rel=rel)


def test_make_scene_accepts_cell_weights():
    scene = small_scene(pdf=np.full(72, 1.0 / 72.0))
    assert np.array_equal(scene.pdf.weights, small_scene().pdf.weights)
    with pytest.raises(ValueError, match="pdf must be"):
        small_scene(pdf="cosine")


def test_make_scene_wall_subset():
    scene = small_scene(wall_names=["x_min", "y_max"])
    assert [w.name for w in scene.walls] == ["x_min", "y_max"]


def test_with_coverage_shares_arrays():
    scene = small_scene()
    other = scene.with_coverage(n=3, thold_p=0.9)
    assert other.params.n == 3 and other.thold_p == 0.9
    assert other.params.thold == scene.params.thold
    assert other.points is scene.points
    assert other.pdf is scene.pdf
    assert scene.params.n == 1  # original untouched


# ---------------------------------------------------------------------------
# Generators


def test_generate_uniform_area_quotas():
    scene = dep.make_scene(
        (750.0, 500.0, 600.0),
        (600.0, 350.0, 450.0),
        (2, 2, 2),
        intrinsics=INTRINSICS,
        params=CoverageParams(thold=0.2, delta=4.0, n=2),
        thold_p=0.65,
        n_yaw=12,
        n_pitch=6,
    )
    deployment = dep.generate_uniform(scene, 90)
    assert len(deployment) == 90
    per_wall = {w.name: 0 for w in scene.walls}
    for lm in deployment.landmarks:
        for wall in scene.walls:
            if wall.locate(lm.position) is not None:
                per_wall[wall.name] += 1
                break
        else:
            pytest.fail("landmark off every wall")
    # Areas 30:30:45:45:37.5:37.5 m^2 split 90 plates as 12/12/18/18/15/15.
    assert per_wall == {
        "x_min": 12, "x_max": 12, "y_min": 18, "y_max": 18, "z_min": 15, "z_max": 15,
    }


def test_generate_uniform_faces_inward():
    scene = small_scene()
    deployment = dep.generate_uniform(scene, 6)
    from landmark_coverage.geometry import landmark_normal

    for lm in deployment.landmarks:
        for wall in scene.walls:
            if wall.locate(lm.position) is not None:
                assert np.allclose(landmark_normal(lm), wall.normal, atol=1e-12)
                break


def test_generate_uniform_cube_centers():
    scene = dep.make_scene(
        (200.0, 200.0, 200.0),
        (100.0, 100.0, 100.0),
        (2, 2, 2),
        intrinsics=INTRINSICS,
        params=CoverageParams(thold=0.2, delta=4.0, n=1),
        thold_p=0.3,
        n_yaw=12,
        n_pitch=6,
    )
    deployment = dep.generate_uniform(scene, 6)
    positions = sorted(tuple(lm.position) for lm in deployment.landmarks)
    assert positions == sorted(
        [
            (0.0, 100.0, 100.0),
            (200.0, 100.0, 100.0),
            (100.0, 0.0, 100.0),
            (100.0, 200.0, 100.0),
            (100.0, 100.0, 0.0),
            (100.0, 100.0, 200.0),
        ]
    )


def test_generate_random_determinism_and_ranges():
    scene = small_scene()
    a = dep.generate_random(scene, 20, seed=5)
    b = dep.generate_random(scene, 20, seed=5)
    c = dep.generate_random(scene, 20, seed=6)
    for la, lb in zip(a.landmarks, b.landmarks):
        assert np.array_equal(la.position, lb.position)
        assert la.rho == lb.rho and la.eta == lb.eta
    assert any(
        not np.array_equal(la.position, lc.position)
        for la, lc in zip(a.landmarks, c.landmarks)
    )
    for lm in a.landmarks:
        assert any(w.locate(lm.position) is not None for w in scene.walls)
        assert -math.pi <= lm.rho < math.pi
        assert -math.pi / 2 <= lm.eta <= math.pi / 2
        assert lm.nu == scene.nu_default


def test_generate_count_validation():
    scene = small_scene()
    with pytest.raises(ValueError):
        dep.generate_uniform(scene, 0)
    with pytest.raises(ValueError):
        dep.generate_random(scene, 0, seed=1)


# ---------------------------------------------------------------------------
# Evaluation


def test_evaluate_coverage_matches_direct_probabilities():
    scene = small_scene()
    deployment = dep.generate_uniform(scene, 8)
    cov = dep.evaluate_coverage(scene, deployment)
    direct = coverage_probabilities(
        scene.points, deployment.landmarks, scene.grid, scene.pdf,
        scene.intrinsics, scene.params,
    )
    assert np.array_equal(cov.p_n, direct)
    assert np.array_equal(cov.qualified, cov.p_n >= scene.thold_p)


def test_evaluate_coverage_chunking_is_invisible(monkeypatch):
    scene = small_scene()
    deployment = dep.generate_uniform(scene, 8)
    whole = dep.evaluate_coverage(scene, deployment).p_n
    monkeypatch.setattr(dep, "_CHUNK_ELEMENTS", 1)  # one point per chunk
    chunked = dep.evaluate_coverage(scene, deployment).p_n
    threaded = dep.evaluate_coverage(scene, deployment, threads=3).p_n
    assert np.array_equal(whole, chunked)
    assert whole.tobytes() == threaded.tobytes()


def test_evaluate_coverage_without_plates():
    scene = small_scene()
    empty = dep.Deployment([])
    assert np.all(dep.evaluate_coverage(scene.with_coverage(n=2), empty).p_n == 0.0)
    everywhere = dep.evaluate_coverage(scene.with_coverage(n=0), empty).p_n
    assert np.all(everywhere == math.fsum(scene.pdf.weights.tolist()))
    assert everywhere == pytest.approx(1.0)


def test_cost_and_metrics():
    scene = small_scene()
    deployment = dep.generate_uniform(scene, 8)
    cov = dep.evaluate_coverage(scene, deployment)
    assert dep.cost(scene, deployment) == math.fsum(cov.rel[cov.qualified].tolist())
    assert cov.cost == dep.cost(scene, deployment)
    met = dep.metrics(cov)
    assert 0.0 <= met.qualified_ratio <= 1.0
    assert met.average_cp <= met.maximum_cp + 1e-12
    assert met.maximum_cp == float(np.max(cov.p_n))

    stricter = cov.with_threshold(0.99)
    assert stricter.qualified.sum() <= cov.qualified.sum()
    assert np.array_equal(stricter.p_n, cov.p_n)


def test_metrics_validation():
    with pytest.raises(ValueError):
        dep.DeploymentMetrics(qualified_ratio=0.5, average_cp=0.9, maximum_cp=0.5)


def test_coverage_map_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        dep.CoverageMap(
            points=np.zeros((2, 3)),
            p_n=np.array([0.5, 1.5]),
            qualified=np.zeros(2, dtype=bool),
            rel=np.ones(2),
            n=1,
            thold_p=0.5,
        )


# ---------------------------------------------------------------------------
# JSON formats


def test_scene_config_round_trip(tmp_path):
    doc = {
        "schema": 1,
        "room": {"length_cm": 300, "width_cm": 200, "height_cm": 250},
        "reachable": {"length_cm": 200, "width_cm": 100, "height_cm": 150},
        "grid": {"nx": 3, "ny": 2, "nz": 2},
        "orientation": {"yaw_step_rad": math.pi / 6, "pitch_step_rad": math.pi / 6},
        "intrinsics": {
            "f_mm": 5.0, "s_u_mm": 0.0058, "s_v_mm": 0.0058,
            "o_u_px": 800, "o_v_px": 600, "width_px": 1600, "height_px": 1200,
            "d_a_mm": 10.0, "d_s_mm": 1778.0,
        },
        "coverage": {"thold": 0.2, "delta_px": 4.0, "n": 1, "thold_p": 0.3},
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    scene = dep.load_scene(path)
    assert scene.grid.n_yaw == 12 and scene.grid.n_pitch == 6
    assert scene.params.n == 1 and scene.thold_p == 0.3
    assert scene.nu_default == 10.0  # default
    assert scene.n_points == 12


def test_scene_config_errors(tmp_path):
    base = {
        "schema": 1,
        "room": {"length_cm": 300, "width_cm": 200, "height_cm": 250},
        "reachable": {"length_cm": 200, "width_cm": 100, "height_cm": 150},
        "grid": {"nx": 3, "ny": 2, "nz": 2},
        "intrinsics": {
            "f_mm": 5.0, "s_u_mm": 0.0058, "s_v_mm": 0.0058,
            "o_u_px": 800, "o_v_px": 600, "width_px": 1600, "height_px": 1200,
            "d_a_mm": 10.0, "d_s_mm": 1778.0,
        },
        "coverage": {"thold": 0.2, "delta_px": 4.0, "n": 1, "thold_p": 0.3},
    }

    bad = {k: v for k, v in base.items()}
    bad["schema"] = 99
    with pytest.raises(SchemaError, match="schema version"):
        dep.scene_from_config(bad)

    bad = json.loads(json.dumps(base))
    del bad["coverage"]["thold_p"]
    with pytest.raises(SchemaError, match="coverage"):
        dep.scene_from_config(bad)

    bad = json.loads(json.dumps(base))
    bad["intrinsics"]["f_mm"] = "five"
    with pytest.raises(SchemaError, match="intrinsics.f_mm"):
        dep.scene_from_config(bad)

    bad = json.loads(json.dumps(base))
    bad["reachable"]["length_cm"] = 400
    with pytest.raises(SchemaError, match="fit inside the room"):
        dep.scene_from_config(bad)

    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(SchemaError, match="line 1"):
        dep.load_scene(path)

    with pytest.raises(SchemaError, match="cannot read"):
        dep.load_scene(tmp_path / "missing.json")

    path.write_text('{"schema": ' + "1" * 5000 + "}")
    with pytest.raises(SchemaError, match="cannot parse"):
        dep.load_scene(path)


def test_infinite_focus_config_null_d_s():
    doc = {
        "schema": 1,
        "room": {"length_cm": 300, "width_cm": 200, "height_cm": 250},
        "reachable": {"length_cm": 200, "width_cm": 100, "height_cm": 150},
        "grid": {"nx": 2, "ny": 2, "nz": 2},
        "intrinsics": {
            "f_mm": 24.0, "s_u_mm": 0.0033, "s_v_mm": 0.0033,
            "o_u_px": 960, "o_v_px": 540, "width_px": 1920, "height_px": 1080,
            "d_a_mm": 8.57, "d_s_mm": None,
        },
        "coverage": {"thold": 0.2, "delta_px": 40.0, "n": 2, "thold_p": 0.7},
    }
    scene = dep.scene_from_config(doc)
    assert scene.intrinsics.infinite_focus


def test_deployment_json_round_trip(tmp_path):
    scene = small_scene()
    deployment = dep.generate_random(scene, 7, seed=9)
    path = tmp_path / "deployment.json"
    dep.save_deployment(path, deployment)
    loaded = dep.load_deployment(path)
    assert len(loaded) == 7
    for a, b in zip(deployment.landmarks, loaded.landmarks):
        assert np.array_equal(a.position, b.position)
        assert a.rho == b.rho and a.eta == b.eta and a.mu == b.mu and a.nu == b.nu


def test_deployment_json_errors():
    with pytest.raises(SchemaError, match="missing required key 'landmarks'"):
        dep.deployment_from_json({"schema": 1})
    with pytest.raises(SchemaError, match="must be an array"):
        dep.deployment_from_json({"schema": 1, "landmarks": 3})
    with pytest.raises(SchemaError, match=r"landmarks\[0\]"):
        dep.deployment_from_json({"schema": 1, "landmarks": [{"x": 0.0}]})
    entry = {"x": 0.0, "y": 0.0, "z": 0.0, "rho": 9.0, "eta": 0.0, "nu": 10.0}
    with pytest.raises(SchemaError, match="rho"):
        dep.deployment_from_json({"schema": 1, "landmarks": [entry]})


def test_deployment_json_mu_defaults_to_zero():
    entry = {"x": 1.0, "y": 2.0, "z": 3.0, "rho": 0.5, "eta": -0.25, "nu": 8.0}
    loaded = dep.deployment_from_json({"schema": 1, "landmarks": [entry]})
    assert loaded.landmarks[0].mu == 0.0
    assert loaded.landmarks[0].nu == 8.0
