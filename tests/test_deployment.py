"""Scenes, walls, deployment generators, evaluation, and the JSON formats."""

import json
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import landmark_coverage.coverage as coverage_module
import landmark_coverage.deployment as dep
from landmark_coverage.coverage import CoverageParams, coverage_probabilities
from landmark_coverage.errors import SchemaError
from landmark_coverage.geometry import CameraIntrinsics, Landmark

from conftest import CONFIG_DIR, mutated, run_quietly

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


def test_make_scene_caps_positions_before_the_meshgrid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a position grid was built")

    monkeypatch.setattr(np, "meshgrid", refuse)
    with pytest.raises(ValueError, match=r"grid\.nx .* 10000 x 10000 x 10000 positions"):
        small_scene(grid_shape=(10**4, 10**4, 10**4))
    with pytest.raises(ValueError, match="above the cap"):
        small_scene(grid_shape=(dep.MAX_POSITIONS + 1, 1, 1))


def test_make_scene_refuses_fractional_grid_counts(monkeypatch):
    # int() used to truncate (2.7, 2, 2.9) to a 2 x 2 x 2 grid
    scene = small_scene(grid_shape=(2.0, 2, np.int64(3)))
    assert scene.grid_shape == (2, 2, 3) and scene.points.shape == (12, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a position grid was built")

    monkeypatch.setattr(np, "meshgrid", refuse)
    for shape in [(2.7, 2, 2.9), (math.nan, 2, 2), (2, math.inf, 2), (2.5, 1e9, 1e9)]:
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            small_scene(grid_shape=shape)


def test_negative_seed_is_refused_where_it_meets_the_generator():
    from landmark_coverage import ega, observer, pdf_estimation

    scene = small_scene()
    samples = pdf_estimation.AngleSamples(np.arange(4.0), np.zeros(4), np.zeros(4))
    calls = [
        lambda: dep.generate_random(scene, 3, seed=-1),
        lambda: ega.EgaParams(seed=-1),
        lambda: pdf_estimation.random_interval_resample(samples, seed=-1, mean_gap=1.0),
        lambda: observer.random_walk_trajectory(scene, duration=0.1, seed=-1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            call()


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
    monkeypatch.setattr(coverage_module, "_CHUNK_ELEMENTS", 1)  # one point per pass
    chunked = dep.evaluate_coverage(scene, deployment).p_n
    assert whole.tobytes() == chunked.tobytes()


def test_evaluate_coverage_without_plates():
    scene = small_scene()
    empty = dep.Deployment([])
    assert np.all(dep.evaluate_coverage(scene.with_coverage(n=2), empty).p_n == 0.0)
    everywhere = dep.evaluate_coverage(scene.with_coverage(n=0), empty).p_n
    assert np.all(everywhere == math.fsum(scene.pdf.weights.tolist()))
    assert everywhere == pytest.approx(1.0)


# tracemalloc's peak for one call, in bytes, measured with numpy 2.4 at
# 7ed3b71, the commit before the gate core took its plate-major layout; the
# blocks of its largest pass are most of it.
PARENT_PEAK_BYTES = {"table3": 1_280_728, "desk": 1_332_884}


@pytest.mark.parametrize("workload", ["table3", "desk"])
def test_an_evaluation_holds_no_more_memory_than_its_passes_need(table3_scene, desk_scene, workload):
    """One Table 3 evaluation and one 29-chromosome desk generation, under tracemalloc.

    The traced peak stays within 10% of the value recorded above, and three more calls
    leave no numpy array behind: a cache keyed on something each call makes
    anew, such as a fresh view of the grid's axes, would grow here.
    """
    from landmark_coverage import ega

    if workload == "table3":
        plates = dep.generate_random(table3_scene, 90, 0)
        call = lambda: dep.evaluate_coverage(table3_scene, plates)  # noqa: E731
    else:
        space = ega.GeneSpace(desk_scene, 12, "wall")
        rng = np.random.default_rng(0)
        block = space.decode(np.stack([space.random(rng) for _ in range(29)]))
        call = lambda: dep.evaluate_coverages(desk_scene, block, 29)  # noqa: E731
    call()  # first-use caches: the pdf's limbs, the grid's axes, the depth cuts
    only_numpy = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def numpy_bytes_held():
        return sum(t.size for t in tracemalloc.take_snapshot().filter_traces(only_numpy).traces)

    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1] - base
        held = [numpy_bytes_held()]
        for _ in range(3):
            call()
            held.append(numpy_bytes_held())
    finally:
        tracemalloc.stop()
    assert 0.5 * PARENT_PEAK_BYTES[workload] < peak <= 1.1 * PARENT_PEAK_BYTES[workload]
    assert held == [held[0]] * 4


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


def test_metrics_refuse_a_stacked_map():
    scene = small_scene()
    stack = dep.evaluate_coverages(scene, dep.generate_uniform(scene, 8), 2)
    assert stack.p_n.shape == stack.qualified.shape == (2, scene.n_points) and stack.cost.shape == (2,)
    with pytest.raises(ValueError, match="one deployment's non-empty map, got shape"):
        dep.metrics(stack)


def test_a_position_at_exactly_thold_p_qualifies():
    scene = small_scene()
    deployment = dep.generate_uniform(scene, 8)
    p_n = dep.evaluate_coverage(scene, deployment).p_n
    i = int(np.flatnonzero((p_n > 0) & (p_n < 1))[0])
    at = dep.evaluate_coverage(scene.with_coverage(thold_p=float(p_n[i])), deployment)
    assert at.p_n[i] == at.thold_p and at.qualified[i]
    assert np.array_equal(at.qualified, p_n >= p_n[i])
    above = at.with_threshold(float(np.nextafter(p_n[i], 2.0)))
    assert not above.qualified[i]
    assert above.with_threshold(at.thold_p).qualified[i]
    with pytest.raises(TypeError):
        dep.CoverageMap(points=np.zeros((1, 3)), p_n=np.ones(1), qualified=np.zeros(1, dtype=bool),
                        rel=np.ones(1), n=1, thold_p=0.5)


def test_metrics_validation():
    with pytest.raises(ValueError):
        dep.DeploymentMetrics(qualified_ratio=0.5, average_cp=0.9, maximum_cp=0.5)


def test_coverage_map_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        dep.CoverageMap(
            points=np.zeros((2, 3)),
            p_n=np.array([0.5, 1.5]),
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


def test_deployment_file_with_roll_keeps_its_bytes(tmp_path):
    doc = {"schema": 1, "landmarks": [
        {"x": 10.0, "y": 0.0, "z": 5.5, "rho": 0.25, "eta": -0.5, "mu": -2.75, "nu": 8.0},
        {"x": 0.1, "y": 3.0, "z": 1.0, "rho": -3.0, "eta": 1.5, "mu": 1.0000000000000002,
         "nu": 12.5},
    ]}
    source, copy = tmp_path / "source.json", tmp_path / "copy.json"
    source.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    loaded = dep.load_deployment(source)
    assert loaded.mu.tolist() == [lm.mu for lm in loaded.landmarks] == [-2.75, 1.0000000000000002]
    dep.save_deployment(copy, loaded)
    assert copy.read_bytes() == source.read_bytes()


def test_deployment_json_mu_defaults_to_zero():
    entry = {"x": 1.0, "y": 2.0, "z": 3.0, "rho": 0.5, "eta": -0.25, "nu": 8.0}
    loaded = dep.deployment_from_json({"schema": 1, "landmarks": [entry]})
    assert loaded.landmarks[0].mu == 0.0
    assert loaded.landmarks[0].nu == 8.0


# ---------------------------------------------------------------------------
# Fuzzed scene and deployment files


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


def _extents(lo, hi):
    return st.fixed_dictionaries({k: _floats(lo, hi) for k in ("length_cm", "width_cm", "height_cm")})


def scene_documents():
    """Well-formed desk-like scenes of at most 27 positions and 288 cells."""
    intrinsics = json.loads((CONFIG_DIR / "desk_room.json").read_text())["intrinsics"]
    step = st.sampled_from([math.pi / 6, math.pi / 3, 1.0])
    return st.fixed_dictionaries(
        {
            "schema": st.just(1),
            "room": _extents(400.0, 800.0),
            "reachable": _extents(100.0, 350.0),
            "grid": st.fixed_dictionaries({k: st.integers(1, 3) for k in ("nx", "ny", "nz")}),
            "intrinsics": st.just(intrinsics),
            "coverage": st.fixed_dictionaries(
                {"thold": _floats(0.0, 0.5), "delta_px": _floats(1.0, 8.0),
                 "n": st.integers(0, 3), "thold_p": _floats(0.0, 1.0)},
                optional={"nu_cm": _floats(1.0, 20.0)},
            ),
        },
        optional={
            "orientation": st.fixed_dictionaries(
                {}, optional={"yaw_step_rad": step, "pitch_step_rad": step}
            ),
            "pdf": st.sampled_from(["uniform", "solid-angle"]),
            "rel": st.just("uniform"),
            "walls": st.lists(st.sampled_from(dep.WALL_NAMES), min_size=1, unique=True),
        },
    )


def deployment_documents():
    """Well-formed deployments of one to four plates inside the desk room."""
    angle = st.floats(-math.pi, math.pi, exclude_max=True)
    plate = st.fixed_dictionaries(
        {"x": _floats(0.0, 750.0), "y": _floats(0.0, 500.0), "z": _floats(0.0, 600.0),
         "rho": angle, "eta": _floats(-math.pi / 2, math.pi / 2), "nu": _floats(1.0, 20.0)},
        optional={"mu": angle},
    )
    return st.fixed_dictionaries(
        {"schema": st.just(1), "landmarks": st.lists(plate, min_size=1, max_size=4)}
    )


@pytest.fixture(scope="module")
def desk_plates(tmp_path_factory):
    path = tmp_path_factory.mktemp("desk") / "deployment.json"
    dep.save_deployment(path, dep.generate_uniform(dep.load_scene(CONFIG_DIR / "desk_room.json"), 6))
    return path


def _write_json(work, doc):
    path = os.path.join(work, "input.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@settings(max_examples=300, deadline=None, database=None)
@seed(20223)
@given(doc=mutated(scene_documents()))
def test_fuzzed_scenes_load_or_fail_as_schema_errors(desk_plates, doc):
    try:
        dep.scene_from_config(doc)
        loads = True
    except ValueError:  # SchemaError is a ValueError; both exit 2
        loads = False
    with tempfile.TemporaryDirectory() as work:
        scene = _write_json(work, doc)
        generate = run_quietly(["generate", "--scene", scene, "--count", "3",
                                "--out-dir", f"{work}/plates"])
        analyze = run_quietly(["analyze", "--scene", scene, "--deployment", str(desk_plates),
                               "--out-dir", f"{work}/out"])
    assert generate == analyze == (0 if loads else 2)


@settings(max_examples=100, deadline=None, database=None)
@seed(20224)
@given(doc=mutated(deployment_documents()))
def test_fuzzed_deployments_load_or_fail_as_schema_errors(doc):
    try:
        dep.deployment_from_json(doc)
        loads = True
    except ValueError:
        loads = False
    with tempfile.TemporaryDirectory() as work:
        code = run_quietly(["analyze", "--scene", str(CONFIG_DIR / "desk_room.json"),
                            "--deployment", _write_json(work, doc), "--out-dir", f"{work}/out"])
    assert code == (0 if loads else 2)
