"""Visibility criteria, cap sets, and the batched strength kernel."""

import dataclasses
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import landmark_coverage.coverage as coverage_module
from landmark_coverage.coverage import (
    CapSet,
    CoverageParams,
    OrientationGrid,
    OrientationPdf,
    cell_counts,
    coverage_caps,
    coverage_probabilities,
    coverage_strength,
    focus_criterion,
    focus_depths,
    fov_criterion,
    nple_probability,
    occlusion_criterion,
    resolution_criterion,
    strengths_grid,
)
from landmark_coverage.deployment import evaluate_coverage, generate_uniform, make_scene
from landmark_coverage.geometry import CameraIntrinsics, Deployment, Landmark, Pose6

TABLE3 = CameraIntrinsics(
    f=5.0, s_u=0.0058, s_v=0.0058, o_u=800, o_v=600,
    width=1600, height=1200, d_a=10.0, d_s=1778.0,
)
FULL_HD = CameraIntrinsics(
    f=24.0, s_u=0.0033, s_v=0.0033, o_u=960, o_v=540,
    width=1920, height=1080, d_a=8.57, d_s=math.inf,
)


def facing_landmark(position, camera_position, nu=10.0):
    """A plate at ``position`` facing straight at the camera."""
    from landmark_coverage.geometry import normal_to_angles

    d = np.asarray(camera_position, dtype=float) - np.asarray(position, dtype=float)
    d = d / np.linalg.norm(d)
    rho, eta = normal_to_angles(d)
    return Landmark(np.asarray(position, dtype=float), rho=rho, eta=eta, nu=nu)


# ---------------------------------------------------------------------------
# Scalar criteria


def test_focus_depths_table3():
    near, far = focus_depths(TABLE3, delta=4.0)
    assert math.isclose(near, 975.4909276051862, rel_tol=1e-12)
    assert math.isclose(far, 10026.617341874944, rel_tol=1e-12)


def test_focus_depths_infinity_lens():
    near, far = focus_depths(FULL_HD, delta=40.0)
    assert math.isclose(near, 8.57 * 24.0 / (40.0 * 0.0033), rel_tol=1e-12)
    assert far == math.inf


def test_focus_depths_far_branch_goes_infinite():
    # Tiny aperture distance: the far denominator turns non-positive.
    intr = CameraIntrinsics(
        f=5.0, s_u=0.0058, s_v=0.0058, o_u=800, o_v=600,
        width=1600, height=1200, d_a=0.05, d_s=1778.0,
    )
    near, far = focus_depths(intr, delta=4.0)
    assert near > 0
    assert far == math.inf


def test_focus_depths_rejects_bad_delta():
    with pytest.raises(ValueError):
        focus_depths(TABLE3, delta=0.0)


def test_resolution_two_meters_ahead():
    camera = Pose6(np.zeros(3))
    lm = Landmark(np.array([0.0, 200.0, 0.0]), rho=0.0, eta=0.0)
    value = resolution_criterion(lm, camera, TABLE3)
    assert math.isclose(value, 0.4322500340354358, rel_tol=1e-12)


def test_resolution_threshold_depth():
    # Strength 0.2 is reached exactly at this depth (in cm).
    camera = Pose6(np.zeros(3))
    lm = Landmark(np.array([0.0, 432.25003403543575, 0.0]), rho=0.0, eta=0.0)
    assert math.isclose(resolution_criterion(lm, camera, TABLE3), 0.2, rel_tol=1e-12)


def test_resolution_behind_camera_raises():
    camera = Pose6(np.zeros(3))
    lm = Landmark(np.array([0.0, -50.0, 0.0]), rho=0.0, eta=0.0)
    with pytest.raises(ValueError):
        resolution_criterion(lm, camera, TABLE3)


def test_fov_cone_boundary():
    camera = Pose6(np.zeros(3))
    inside = Landmark(np.array([69.0, 100.0, 0.0]), rho=0.0, eta=0.0)
    outside = Landmark(np.array([70.2, 100.0, 0.0]), rho=0.0, eta=0.0)
    behind = Landmark(np.array([0.0, -100.0, 0.0]), rho=0.0, eta=0.0)
    assert fov_criterion(inside, camera, TABLE3) == 1
    assert fov_criterion(outside, camera, TABLE3) == 0
    assert fov_criterion(behind, camera, TABLE3) == 0


def test_fov_uses_the_tightest_half_angle():
    # 69 cm offset passes along x but the same offset along the image's
    # vertical direction (world z here) also passes; 70.2 cm fails both.
    camera = Pose6(np.zeros(3))
    up_in = Landmark(np.array([0.0, 100.0, 69.0]), rho=0.0, eta=0.0)
    up_out = Landmark(np.array([0.0, 100.0, 70.2]), rho=0.0, eta=0.0)
    assert fov_criterion(up_in, camera, TABLE3) == 1
    assert fov_criterion(up_out, camera, TABLE3) == 0


def test_focus_criterion_window():
    camera = Pose6(np.zeros(3))

    def at_depth(cm):
        return Landmark(np.array([0.0, cm, 0.0]), rho=0.0, eta=0.0)

    assert focus_criterion(at_depth(97.0), camera, TABLE3, delta=4.0) == 0
    assert focus_criterion(at_depth(98.0), camera, TABLE3, delta=4.0) == 1
    assert focus_criterion(at_depth(1000.0), camera, TABLE3, delta=4.0) == 1
    assert focus_criterion(at_depth(1003.0), camera, TABLE3, delta=4.0) == 0


def test_occlusion_front_side_only():
    camera = np.zeros(3)
    target = facing_landmark([0.0, 100.0, 0.0], camera)
    away = Landmark(np.array([0.0, 100.0, 0.0]), rho=0.0, eta=0.0)  # faces +y
    assert occlusion_criterion(0, [target], camera) == 1
    assert occlusion_criterion(0, [away], camera) == 0


def test_occlusion_blocking_geometry():
    camera = np.zeros(3)
    target = facing_landmark([0.0, 100.0, 0.0], camera)

    on_axis = facing_landmark([0.0, 50.0, 0.0], camera)
    assert occlusion_criterion(0, [target, on_axis], camera) == 0

    off_axis = facing_landmark([0.0, 50.0, 30.0], camera)  # 30 cm off the ray
    assert occlusion_criterion(0, [target, off_axis], camera) == 1

    beyond = facing_landmark([0.0, 150.0, 0.0], camera)
    assert occlusion_criterion(0, [target, beyond], camera) == 1

    behind_camera = facing_landmark([0.0, -50.0, 0.0], camera)
    assert occlusion_criterion(0, [target, behind_camera], camera) == 1

    same_range = facing_landmark([60.0, 80.0, 0.0], camera)  # range 100 too
    assert occlusion_criterion(0, [target, same_range], camera) == 1


def test_occlusion_respects_virtual_diameter():
    camera = np.zeros(3)
    target = facing_landmark([0.0, 100.0, 0.0], camera, nu=35.0)
    off_axis = facing_landmark([0.0, 50.0, 30.0], camera)
    # Perpendicular miss distance is 30 cm; a 35 cm diameter catches it.
    assert occlusion_criterion(0, [target, off_axis], camera) == 0


def test_occlusion_coincident_camera_raises():
    lm = Landmark(np.array([1.0, 2.0, 3.0]), rho=0.0, eta=0.0)
    with pytest.raises(ValueError):
        occlusion_criterion(0, [lm], np.array([1.0, 2.0, 3.0]))


def test_coverage_strength_is_gated_resolution():
    camera = Pose6(np.zeros(3))
    lm = facing_landmark([0.0, 200.0, 0.0], camera.position)
    strength = coverage_strength(0, [lm], camera, TABLE3, delta=4.0)
    assert strength == resolution_criterion(lm, camera, TABLE3)

    too_close = facing_landmark([0.0, 50.0, 0.0], camera.position)
    assert coverage_strength(0, [too_close], camera, TABLE3, delta=4.0) == 0.0

    behind = facing_landmark([0.0, -200.0, 0.0], camera.position)
    assert coverage_strength(0, [behind], camera, TABLE3, delta=4.0) == 0.0


def test_coverage_strength_roll_invariant():
    lm = facing_landmark([30.0, 200.0, -20.0], np.zeros(3))
    plain = coverage_strength(0, [lm], Pose6(np.zeros(3)), TABLE3, delta=4.0)
    rolled = coverage_strength(0, [lm], Pose6(np.zeros(3), roll=1.0), TABLE3, delta=4.0)
    assert plain > 0
    assert rolled == plain


def test_measurable_zero_threshold_excludes_zero_strength():
    camera = np.zeros((1, 3))
    rotation = Pose6(np.zeros(3)).rotation()[None]
    ahead = facing_landmark([0.0, 200.0, 0.0], camera[0])
    behind = facing_landmark([0.0, -200.0, 0.0], camera[0])
    s = coverage_strength(0, [ahead, behind], Pose6(np.zeros(3)), TABLE3, delta=4.0)
    assert s > 0.2

    def mask(thold):
        return strengths_grid(camera, rotation, [ahead, behind], TABLE3, 4.0, thold)[0, 0]

    assert np.array_equal(mask(0.0), [True, False])  # zero strength never counts
    assert np.array_equal(mask(0.2), [True, False])
    assert np.array_equal(mask(s), [True, False])
    assert np.array_equal(mask(math.nextafter(s, math.inf)), [False, False])


# ---------------------------------------------------------------------------
# Orientation grid and density


def test_grid_from_cells_layout():
    grid = OrientationGrid.from_cells(24, 12)
    assert grid.n_yaw == 24 and grid.n_pitch == 12 and grid.n_cells == 288
    assert grid.yaw[0] == -math.pi
    assert math.isclose(grid.yaw[1] - grid.yaw[0], math.pi / 12, rel_tol=1e-12)
    assert math.isclose(grid.pitch[0], -math.pi / 2 + math.pi / 24, rel_tol=1e-12)
    yaw, pitch = grid.cell_angles(5 * 12 + 7)
    assert yaw == grid.yaw[5] and pitch == grid.pitch[7]


def test_grid_from_steps_matches_cells():
    a = OrientationGrid.from_steps(math.pi / 12, math.pi / 12)
    b = OrientationGrid.from_cells(24, 12)
    assert np.array_equal(a.yaw, b.yaw) and np.array_equal(a.pitch, b.pitch)


def test_grid_validation():
    with pytest.raises(ValueError):
        OrientationGrid.from_cells(0, 12)
    with pytest.raises(ValueError):
        OrientationGrid(np.array([0.0, 0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        OrientationGrid(np.array([0.0, math.pi]), np.array([0.0]))
    with pytest.raises(ValueError):
        OrientationGrid(np.array([0.0]), np.array([2.0]))


def test_grid_rotations_match_cell_angles_and_cache():
    grid = OrientationGrid.from_cells(6, 3)
    mats = grid.rotations()
    assert mats.shape == (18, 3, 3)
    from landmark_coverage.geometry import rotation_from_angles

    for g in (0, 7, 17):
        a, b = grid.cell_angles(g)
        assert np.array_equal(mats[g], rotation_from_angles(a, b, 0.0))
    assert grid.rotations() is mats


def test_flat_index_matches_histogram2d_convention():
    # The orientation density estimated via histogram2d must line up with
    # the grid's yaw-major flat indexing.
    grid = OrientationGrid.from_cells(24, 12)
    i, j = 5, 7
    step = math.pi / 12
    alpha = np.array([grid.yaw[i] + step / 2])
    beta = np.array([grid.pitch[j]])
    counts, _, _ = np.histogram2d(
        alpha, beta, bins=[24, 12],
        range=((-math.pi, math.pi), (-math.pi / 2, math.pi / 2)),
    )
    flat = counts.ravel()
    assert flat[i * 12 + j] == 1.0
    assert flat.sum() == 1.0


def test_pdf_uniform_and_solid_angle():
    grid = OrientationGrid.from_cells(24, 12)
    uni = OrientationPdf.uniform(grid)
    assert np.all(uni.weights == 1.0 / 288.0)
    sa = OrientationPdf.solid_angle(grid)
    assert math.isclose(math.fsum(sa.weights.tolist()), 1.0, abs_tol=1e-12)
    w = sa.weights.reshape(24, 12)
    assert np.allclose(w, w[0], atol=1e-15)  # no yaw dependence
    ratio = w[0] / np.cos(grid.pitch)
    assert np.allclose(ratio, ratio[0], rtol=1e-12)


def test_pdf_validation():
    with pytest.raises(ValueError):
        OrientationPdf(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        OrientationPdf(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        OrientationPdf(np.zeros((2, 2)))


def test_pdf_rejects_nan_weights():
    # The sum of NaN weights is NaN, which no tolerance compare rejects.
    with pytest.raises(ValueError, match="non-negative"):
        OrientationPdf(np.full(4, np.nan))


# ---------------------------------------------------------------------------
# Caps, counts, probabilities


def simple_scene_pieces():
    grid = OrientationGrid.from_cells(12, 6)
    params = CoverageParams(thold=0.2, delta=4.0, n=1)
    camera = np.array([100.0, 100.0, 100.0])
    landmarks = [
        facing_landmark([100.0, 300.0, 100.0], camera),
        facing_landmark([300.0, 100.0, 100.0], camera),
    ]
    return grid, params, camera, landmarks


def test_coverage_caps_and_counts():
    grid, params, camera, landmarks = simple_scene_pieces()
    caps = coverage_caps(camera, landmarks, grid, TABLE3, params)
    assert caps.masks.shape == (2, 72)
    assert caps.masks.any(axis=1).all()  # both plates visible somewhere
    assert np.array_equal(caps.nple, caps.counts >= 1)

    counts = cell_counts(camera[None, :], landmarks, grid, TABLE3, params)
    assert np.array_equal(counts[0], caps.counts)


def test_nple_probability_uniform_density():
    grid, params, camera, landmarks = simple_scene_pieces()
    caps = coverage_caps(camera, landmarks, grid, TABLE3, params)
    pdf = OrientationPdf.uniform(grid)
    p = nple_probability(caps, pdf)
    assert math.isclose(p, caps.nple.sum() / 72.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        nple_probability(caps, OrientationPdf.uniform(OrientationGrid.from_cells(4, 2)))


def test_coverage_probabilities_batch():
    grid, params, camera, landmarks = simple_scene_pieces()
    points = np.stack([camera, camera + [0.0, 50.0, 0.0]])
    p = coverage_probabilities(points, landmarks, grid, OrientationPdf.uniform(grid), TABLE3, params)
    for b in range(2):
        caps = coverage_caps(points[b], landmarks, grid, TABLE3, params)
        assert p[b] == nple_probability(caps, OrientationPdf.uniform(grid))


@pytest.mark.parametrize("n_yaw, n_pitch", [(3, 1), (7, 1), (7, 7), (12, 6), (24, 12), (40, 25)])
def test_uniform_reduction_equals_fsum_for_every_count(monkeypatch, n_yaw, n_pitch):
    grid = OrientationGrid.from_cells(n_yaw, n_pitch)
    g = grid.n_cells
    pdf = OrientationPdf.uniform(grid)
    params = CoverageParams(thold=0.0, delta=4.0, n=2)
    rng = np.random.default_rng(g)
    # row c reaches n plates in c shuffled cells and stays below n elsewhere
    covered = rng.permuted(np.arange(g)[None, :] < np.arange(g + 1)[:, None], axis=1)
    counts = np.where(covered, rng.integers(2, 5, covered.shape), rng.integers(0, 2, covered.shape))
    monkeypatch.setattr(coverage_module, "cell_counts", lambda *args: counts)
    p = coverage_probabilities(np.zeros((g + 1, 3)), [], grid, pdf, TABLE3, params)
    want = np.array([math.fsum(pdf.weights[row].tolist()) for row in covered])
    assert p.dtype == want.dtype and p.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["solid-angle", "uniform"])
def test_coverage_probabilities_match_scalar_reduction_bitwise(desk_scene, kind):
    grid = desk_scene.grid
    pdf = OrientationPdf.solid_angle(grid) if kind == "solid-angle" else OrientationPdf.uniform(grid)
    plates = generate_uniform(desk_scene, 24)
    args = (desk_scene.intrinsics, desk_scene.params)
    p = coverage_probabilities(desk_scene.points, plates, grid, pdf, *args)
    assert 0.0 < p.min() < p.max() < 1.0
    for b, point in enumerate(desk_scene.points):
        assert p[b] == nple_probability(coverage_caps(point, plates, grid, *args), pdf)


def test_capset_validation():
    with pytest.raises(ValueError):
        CapSet(masks=np.zeros((2, 4), dtype=bool), n=1, nple=np.zeros(3, dtype=bool))
    with pytest.raises(ValueError):
        CapSet(masks=np.zeros(4, dtype=bool), n=1, nple=np.zeros(4, dtype=bool))


def fov_edge_plates(rng, point, rotation, count):
    """Plates facing ``point`` within 1e-9 rad of the FOV cone's edge."""
    axis = rotation[2]
    half = math.atan(TABLE3.min_fov_tan)
    plates = []
    for _ in range(count):
        u = rng.normal(size=3)
        u -= (u @ axis) * axis
        u /= np.linalg.norm(u)
        angle = half + rng.uniform(-1e-9, 1e-9)
        direction = math.cos(angle) * axis + math.sin(angle) * u
        plates.append(facing_landmark(point + rng.uniform(120.0, 400.0) * direction, point))
    return plates


def test_kernel_matches_scalar_criteria_bitwise():
    rng = np.random.default_rng(17)
    intr = TABLE3
    delta = 4.0
    grid = OrientationGrid.from_cells(6, 3)
    rotations = grid.rotations()
    landmarks = [
        Landmark(
            rng.uniform(0.0, 400.0, 3),
            rho=rng.uniform(-math.pi, math.pi),
            eta=rng.uniform(-math.pi / 2, math.pi / 2),
            nu=10.0,
        )
        for _ in range(5)
    ]
    points = rng.uniform(50.0, 350.0, (10, 3))

    def poses(b, g):
        yaw, pitch = grid.cell_angles(g)
        return Pose6(points[b], yaw=yaw, pitch=pitch)

    def kernel(b, g, plates, thold):
        return strengths_grid(points[b : b + 1], rotations[g : g + 1], plates, intr, delta, thold)

    scalar = np.array([
        [
            [coverage_strength(k, landmarks, poses(b, g), intr, delta) for k in range(5)]
            for g in range(grid.n_cells)
        ]
        for b in range(points.shape[0])
    ])
    assert (scalar > 0).any()
    for plates in (landmarks, Deployment(landmarks)):
        for thold in (0.0, 0.2):
            batch = strengths_grid(points, rotations, plates, intr, delta, thold)
            assert batch.dtype == bool
            assert np.array_equal(batch, (scalar > 0) & (scalar >= thold))
    # The resolution compare is the scalar expression bit for bit.
    for b, g, k in zip(*np.nonzero(scalar > 0)):
        s = scalar[b, g, k]
        assert kernel(b, g, landmarks, s)[0, 0, k]
        assert not kernel(b, g, landmarks, math.nextafter(s, math.inf))[0, 0, k]

    # Plates on the FOV cone's edge, where the depth form of the gate decides.
    decisions = set()
    for b in range(3):
        for g in (1, 7, 16):
            edge = fov_edge_plates(rng, points[b], rotations[g], 8)
            batch = kernel(b, g, edge, 0.0)[0, 0]
            for k in range(len(edge)):
                assert batch[k] == (coverage_strength(k, edge, poses(b, g), intr, delta) > 0)
                decisions.add((fov_criterion(edge[k], poses(b, g), intr) == 1, bool(batch[k])))
    assert {(True, True), (False, False)} <= decisions


def miss_distance(camera, blocker, target):
    """How far the sight line from ``camera`` to ``target`` passes from ``blocker``.

    The scalar occlusion criterion's expressions, in its order.
    """
    wx, wy, wz = (float(camera[i] - target[i]) for i in range(3))
    ajx, ajy, ajz = (float(blocker[i] - camera[i]) for i in range(3))
    dot = (ajx * -wx + ajy * -wy) + ajz * -wz
    nj = math.sqrt((ajx * ajx + ajy * ajy) + ajz * ajz)
    nk = math.sqrt((wx * wx + wy * wy) + wz * wz)
    if nj * nk == 0.0:
        return math.inf
    c = dot / (nj * nk)
    return nj * math.sqrt(max(1.0 - c * c, 0.0))


def fuzzed_plates(data, scene, intr, delta, thold):
    """Plates placed where the gates decide, around the scene's positions.

    Each plate is drawn relative to one position and one cell's optical
    axis: anywhere in front of it, on the FOV cone's edge, a few floats
    from the near or far focus depth or from the resolution depth of
    ``thold``, coincident with the position, edge-on to it, or between it
    and an earlier plate, where it may block that plate; sometimes that
    plate's diameter is then set to the exact miss distance. An "abeam"
    pair puts a plate beside the position, at exactly 90 degrees from the
    sight line to another.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    points, rotations = scene.points, scene.grid.rotations()
    near, far = focus_depths(intr, delta)
    depths = {"near": near, "far": far}
    if thold > 0:
        depths["resolution"] = intr.magnification / (thold * max(intr.s_u, intr.s_v))
    scale = near / 10.0
    plates, homes = [], []
    kinds = ["ahead", "cone", "coincident", "edge-on", "between", "abeam", *sorted(depths)]
    for _ in range(data.draw(st.integers(1, 7), label="plates")):
        kind = data.draw(st.sampled_from(kinds), label="kind")
        b = rng.integers(len(points))
        point, axis = points[b], rotations[rng.integers(len(rotations)), 2]
        nu = float(rng.uniform(1.0, 0.2 * scale))
        if kind in depths and math.isfinite(depths[kind]):
            depth = depths[kind] / 10.0
            toward = math.inf if rng.integers(2) else 0.0
            for _ in range(rng.integers(4)):
                depth = math.nextafter(depth, toward)
            plates.append(facing_landmark(point + depth * axis, point, nu))
        elif kind == "cone":  # within 1e-9 or 1e-16 rad of the cone's edge
            u = rng.normal(size=3)
            u -= (u @ axis) * axis
            u /= np.linalg.norm(u)
            angle = math.atan(intr.min_fov_tan) + rng.uniform(-1, 1) * 10.0 ** -rng.choice([9, 16])
            direction = math.cos(angle) * axis + math.sin(angle) * u
            position = point + rng.uniform(1.0, 5.0) * scale * direction
            plates.append(facing_landmark(position, point, nu))
        elif kind == "coincident":
            plates.append(Landmark(point.copy(), rho=0.0, eta=0.0, nu=nu))
        elif kind == "edge-on":  # faces +y from the position's own y: facing is exactly 0
            offset = rng.uniform(-1.5, 1.5, 3) * scale
            offset[1] = 0.0
            plates.append(Landmark(point + offset, rho=0.0, eta=0.0, nu=nu))
        elif kind == "between" and plates:
            t = rng.integers(len(plates))
            point, target = points[homes[t]], plates[t].position
            middle = point + rng.uniform(0.1, 0.9) * (target - point)
            miss = rng.normal(size=3) * rng.uniform(0.0, 2.0) * nu
            plates.append(facing_landmark(middle + miss, point, nu))
            tie = miss_distance(point, plates[-1].position, target)
            if rng.integers(2) and 0.0 < tie < math.inf:
                plates[t] = dataclasses.replace(plates[t], nu=tie)
        elif kind == "abeam":  # zero components make the sight lines' dot product exactly 0
            target, beside = np.zeros(3), np.zeros(3)
            i, j = rng.choice(3, 2, replace=False)
            target[i] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0) * scale
            beside[j] = rng.uniform(-1.0, 1.0) * nu
            plates.append(facing_landmark(point + target, point, nu))
            plates.append(facing_landmark(point + beside, point, nu))
        else:
            direction = axis + rng.normal(size=3) * rng.uniform(0.0, 1.0)
            direction /= np.linalg.norm(direction)
            position = point + rng.uniform(0.5, 3.0) * scale * direction
            if rng.integers(2):
                plates.append(facing_landmark(position, point, nu))
            else:
                plates.append(Landmark(position, rho=rng.uniform(-math.pi, math.pi),
                                       eta=rng.uniform(-math.pi / 2, math.pi / 2), nu=nu))
        homes += [b] * (len(plates) - len(homes))
    return plates


@settings(max_examples=200, deadline=None, database=None)
@seed(20231)
@given(data=st.data())
def test_fuzzed_coverage_matches_scalar_criteria_bitwise(data):
    # P_n from evaluate_coverage, and the kernel's counts, against the
    # scalar coverage_strength and nple_probability, at thresholds of 0, of
    # the placed resolution depth and of exactly some plate's strength.
    intr = data.draw(st.sampled_from([TABLE3, FULL_HD]), label="intrinsics")
    delta = data.draw(st.sampled_from([2.0, 4.0]), label="delta")
    scale = focus_depths(intr, delta)[0] / 10.0
    base = make_scene(
        (4 * scale,) * 3, (2 * scale,) * 3, (1, 1, 1), intrinsics=intr,
        params=CoverageParams(thold=0.0, delta=delta, n=1), thold_p=0.5,
        n_yaw=data.draw(st.integers(1, 6), label="n_yaw"),
        n_pitch=data.draw(st.integers(1, 4), label="n_pitch"),
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="points"))
    points = rng.uniform(1.5 * scale, 2.5 * scale, (data.draw(st.integers(1, 4), label="B"), 3))
    scene = dataclasses.replace(base, points=points, rel=np.ones(len(points)))
    placed = data.draw(st.sampled_from([0.0, 0.2, 0.5]), label="placed thold")
    plates = fuzzed_plates(data, scene, intr, delta, placed)
    grid, n_cells, k = scene.grid, scene.grid.n_cells, len(plates)

    strength = np.array([
        [
            [
                coverage_strength(j, plates, Pose6(point, *grid.cell_angles(g)), intr, delta)
                for j in range(k)
            ]
            for g in range(n_cells)
        ]
        for point in points
    ])  # (B, G, K)
    positive = np.unique(strength[strength > 0])
    tholds = {0.0, placed}
    if positive.size:
        tholds.add(data.draw(st.sampled_from(positive.tolist()), label="thold at a strength"))
    n = data.draw(st.integers(0, 3), label="n")
    for thold in sorted(tholds):
        masks = (strength > 0) & (strength >= thold)
        counted = scene.with_coverage(thold=thold, n=n)
        counts = cell_counts(points, plates, grid, intr, counted.params)
        assert np.array_equal(counts, masks.sum(axis=2))
        assert np.array_equal(
            counts, strengths_grid(points, grid.rotations(), plates, intr, delta, thold).sum(axis=2)
        )
        for pdf in (OrientationPdf.uniform(grid), OrientationPdf.solid_angle(grid)):
            got = evaluate_coverage(dataclasses.replace(counted, pdf=pdf), Deployment(plates)).p_n
            for b in range(len(points)):
                caps = CapSet(masks=masks[b].T, n=n, nple=masks[b].sum(axis=1) >= n)
                assert got[b] == nple_probability(caps, pdf)


def depth_cuts(intr, thold, delta=4.0):
    return coverage_module._depth_cuts(
        *focus_depths(intr, delta), intr.magnification, max(intr.s_u, intr.s_v), thold
    )


@pytest.mark.parametrize("thold", [0.0, 0.2])
@pytest.mark.parametrize("intr", [TABLE3, FULL_HD], ids=["table3", "full-hd"])
def test_depth_cuts_are_the_last_floats_that_pass(intr, thold):
    camera = Pose6(np.zeros(3))  # looks along +y, so a plate at (0, z, 0) has depth exactly z

    def at_depth(z):
        return Landmark(np.array([0.0, z, 0.0]), rho=0.0, eta=0.0)

    def in_focus(z):
        return focus_criterion(at_depth(z), camera, intr, 4.0) == 1

    def resolved(z):
        return resolution_criterion(at_depth(z), camera, intr) >= thold

    z_near, z_far, z_res = depth_cuts(intr, thold)
    assert in_focus(z_near) and not in_focus(math.nextafter(z_near, 0.0))
    assert math.isinf(z_far) == intr.infinite_focus
    assert math.isinf(z_res) == (thold == 0)
    for cut, holds in ((z_far, in_focus), (z_res, resolved)):
        if math.isinf(cut):
            assert holds(1e300)
        else:
            assert holds(cut) and not holds(math.nextafter(cut, math.inf))


def test_resolution_cut_below_the_near_cut_passes_nothing():
    z_near, _, z_res = depth_cuts(FULL_HD, 0.5)
    assert z_res < z_near
    grid = OrientationGrid.from_cells(12, 6)
    camera = np.zeros(3)
    axis, side = grid.rotations()[7, 2], grid.rotations()[7, 0]
    plates = [  # along one cell's axis, a degree apart, so that none blocks another
        facing_landmark(depth * (axis + offset * side), camera)
        for depth, offset in ((1000.0, 0.0), (2000.0, 0.02), (3000.0, -0.02), (4000.0, 0.04))
    ]
    points = np.stack([camera, camera - 300.0 * axis])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert strengths_grid(points, grid.rotations(), plates, FULL_HD, 4.0, 0.2).any()
        assert not strengths_grid(points, grid.rotations(), plates, FULL_HD, 4.0, 0.5).any()
        params = CoverageParams(thold=0.5, delta=4.0, n=1)
        counts = cell_counts(points, plates, grid, FULL_HD, params)
    assert counts.shape == (2, grid.n_cells) and not counts.any()


def test_kernel_masks_are_fresh_across_calls_and_threads():
    rng = np.random.default_rng(23)
    rotations = OrientationGrid.from_cells(6, 3).rotations()
    plates = [
        Landmark(
            rng.uniform(0.0, 400.0, 3),
            rho=rng.uniform(-math.pi, math.pi),
            eta=rng.uniform(-math.pi / 2, math.pi / 2),
            nu=10.0,
        )
        for _ in range(6)
    ]
    points = rng.uniform(50.0, 350.0, (24, 3))

    def call(start, b, g, k):
        return strengths_grid(points[start : start + b], rotations[:g], plates[:k], TABLE3, 4.0, 0.2)

    first = call(0, 12, 18, 6)
    kept = first.copy()
    assert kept.any() and not kept.all()
    for args in ((12, 12, 18, 6), (0, 5, 18, 6), (3, 12, 7, 3), (12, 12, 18, 6)):
        assert not np.array_equal(call(*args), kept)
    assert np.array_equal(first, kept)

    # More threads than cores, on shared and on distinct shapes and inputs.
    tasks = [(0, 12, 18, 6), (12, 12, 18, 6), (0, 5, 18, 6), (3, 12, 7, 3), (20, 3, 2, 1)]
    expected = [call(*args) for args in tasks]

    def repeat(i):
        return all(np.array_equal(call(*tasks[i]), expected[i]) for _ in range(50))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(tasks)) as pool:
            futures = [pool.submit(repeat, i) for i in range(len(tasks))]
            assert all(f.result(timeout=60) for f in futures)
    finally:
        sys.setswitchinterval(interval)


def test_kernel_zero_landmarks():
    grid = OrientationGrid.from_cells(4, 2)
    out = strengths_grid(np.zeros((3, 3)), grid.rotations(), [], TABLE3, 4.0)
    assert out.shape == (3, 8, 0) and out.dtype == bool


def test_kernel_coincident_position_gives_zero_strength():
    grid = OrientationGrid.from_cells(4, 2)
    lm = Landmark(np.array([50.0, 50.0, 50.0]), rho=0.0, eta=0.0)
    out = strengths_grid(np.array([[50.0, 50.0, 50.0]]), grid.rotations(), [lm], TABLE3, 4.0)
    assert not out.any()


def test_kernel_edge_on_plate_is_not_measurable():
    # The camera lies in the plate's plane, so the facing product is exactly 0.
    plate = Landmark(np.array([0.0, 100.0, 0.0]), rho=0.0, eta=0.0)  # faces +y
    pose = Pose6(np.array([200.0, 100.0, 0.0]), yaw=-math.pi / 2)  # looks along -x
    assert fov_criterion(plate, pose, TABLE3) == 1
    assert coverage_strength(0, [plate], pose, TABLE3, delta=4.0) == 0.0
    out = strengths_grid(pose.position[None], pose.rotation()[None], [plate], TABLE3, 4.0)
    assert not out.any()


def test_coverage_params_validation():
    with pytest.raises(ValueError):
        CoverageParams(thold=-0.1, delta=4.0, n=1)
    with pytest.raises(ValueError):
        CoverageParams(thold=0.2, delta=0.0, n=1)
    with pytest.raises(ValueError):
        CoverageParams(thold=0.2, delta=4.0, n=-1)
