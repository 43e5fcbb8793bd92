"""Visibility criteria, cap sets, and the batched strength kernel."""

import dataclasses
import itertools
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import landmark_coverage.coverage as coverage_module
from landmark_coverage.coverage import (
    CapSet,
    CoverageParams,
    OrientationGrid,
    OrientationPdf,
    PlateRows,
    cell_counts,
    coverage_caps,
    coverage_probabilities,
    coverage_strength,
    focus_criterion,
    focus_depths,
    fov_criterion,
    masked_fsum,
    nple_probability,
    occlusion_criterion,
    resolution_criterion,
    strengths_grid,
)
from landmark_coverage.deployment import (
    MAX_PLATES,
    evaluate_coverage,
    evaluate_coverages,
    generate_random,
    generate_uniform,
    make_scene,
)
from landmark_coverage.geometry import CameraIntrinsics, Deployment, Landmark, Pose6, cm_to_mm, pose_to_se3
from landmark_coverage.observer import pose_strengths

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


@pytest.mark.parametrize("n_yaw, n_pitch", [(24, 12), (12, 6), (7, 5), (5, 3), (3, 1), (2, 2), (1, 1),
                                            (360, 180), (1000, 999)])
def test_grid_axes_are_the_rotations_third_rows_bitwise(n_yaw, n_pitch):
    from landmark_coverage.geometry import rotation_from_angles

    grid = OrientationGrid.from_cells(n_yaw, n_pitch)
    axes = grid.axes()
    assert axes.shape == (grid.n_cells, 3) and grid.axes() is axes
    if grid.n_cells <= 288:
        assert axes.tobytes() == grid.rotations()[:, 2].tobytes()
        return
    # the large grids' rotations take seconds to build: every yaw and every
    # pitch sample, each against a random partner, and the grid's corners
    rng = np.random.default_rng(grid.n_cells)
    cells = np.concatenate([
        np.arange(n_yaw) * n_pitch + rng.integers(n_pitch, size=n_yaw),
        rng.integers(n_yaw, size=n_pitch) * n_pitch + np.arange(n_pitch),
        [0, n_pitch - 1, grid.n_cells - n_pitch, grid.n_cells - 1],
    ])
    want = np.array([rotation_from_angles(*grid.cell_angles(int(g)), 0.0)[2] for g in cells])
    assert axes[cells].tobytes() == want.tobytes()


def test_cell_counts_classify_with_the_grids_scaled_axes(monkeypatch):
    """A call scales its shared axes once, and every pass of that call classifies with that one block."""
    grid = OrientationGrid.from_cells(12, 6)
    builds, build = [], coverage_module._window_axes
    monkeypatch.setattr(coverage_module, "_window_axes", lambda axes: builds.append(build(axes)) or builds[-1])
    windows, real = [], coverage_module._classify_window
    monkeypatch.setattr(coverage_module, "_classify_window", lambda *args: windows.append(args[-1]) or real(*args))
    monkeypatch.setattr(coverage_module, "_CHUNK_ELEMENTS", 2 * 72 * 8)  # passes of 2 rows
    rng = np.random.default_rng(8)
    points = rng.uniform(-50.0, 50.0, (6, 3))
    plates = [Landmark(rng.uniform(-400.0, 400.0, 3), float(rng.uniform(-3.0, 3.0)), 0.0) for _ in range(8)]
    params = CoverageParams(thold=0.2, delta=4.0, n=1)
    counts = cell_counts(points, plates, grid, TABLE3, params)
    assert len(builds) == 1 and len(windows) == 3 and all(w is builds[0] for w in windows)
    s, s1, p, a = builds[0]
    fresh = build(grid.axes())
    assert (s, s1, p) == fresh[:3] and a.tobytes() == fresh[3].tobytes() and not a.flags.writeable
    assert s1 == max(s, 1.0) and a.dtype == np.float32 and np.all(a[3] == 1.0)
    # strengths_grid's shared axes, from the rotations, get a block of their own call
    windows.clear()
    mask = strengths_grid(points, grid.rotations(), plates, TABLE3, params.delta, params.thold)
    assert len(builds) == 2 and len(windows) == 3 and all(w is builds[1] for w in windows)
    assert counts.any() and np.array_equal(counts, mask.sum(axis=2))


@pytest.mark.parametrize("entry", ["cell_counts", "coverage_probabilities", "axis_strengths"])
def test_a_call_finds_its_depth_cuts_once_over_all_its_passes(monkeypatch, entry):
    """One entry-point call over three passes asks ``_depth_cuts`` once, not once per pass."""
    grid = OrientationGrid.from_cells(12, 6)
    cuts, real = [], coverage_module._depth_cuts
    monkeypatch.setattr(coverage_module, "_depth_cuts", lambda *args: cuts.append(args) or real(*args))
    passes, gates = [], coverage_module._live_gates
    monkeypatch.setattr(coverage_module, "_live_gates", lambda *args: passes.append(1) or gates(*args))
    monkeypatch.setattr(coverage_module, "_CHUNK_ELEMENTS", 2 * 72 * 8)  # passes of 2 rows
    rng = np.random.default_rng(8)
    points = rng.uniform(-50.0, 50.0, (6, 3))
    plates = [Landmark(rng.uniform(-400.0, 400.0, 3), float(rng.uniform(-3.0, 3.0)), 0.0) for _ in range(8)]
    params = CoverageParams(thold=0.2, delta=4.0, n=1)
    calls = {
        "cell_counts": lambda: cell_counts(points, plates, grid, TABLE3, params),
        "coverage_probabilities": lambda: coverage_probabilities(
            points, plates, grid, OrientationPdf.uniform(grid), TABLE3, params),
        "axis_strengths": lambda: coverage_module.axis_strengths(
            points, grid.axes()[None], plates, TABLE3, params.delta, params.thold),
    }
    calls[entry]()
    assert len(passes) == 3 and len(cuts) == 1
    assert cuts[0][2:] == (TABLE3.magnification, max(TABLE3.s_u, TABLE3.s_v), params.thold)


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


@pytest.mark.parametrize("scene_name, count", [("desk_scene", 12), ("table3_scene", 90)])
def test_caps_read_the_grid_axes_as_the_rotations_give_them(request, scene_name, count):
    # coverage_caps scores the grid's optical axes; strengths_grid on the
    # grid's rotations must give the same masks, position by position.
    from landmark_coverage.deployment import generate_random

    scene = request.getfixturevalue(scene_name)
    plates = generate_random(scene, count, seed=4)
    rotations, params = scene.grid.rotations(), scene.params
    for point in scene.points[:: max(1, scene.n_points // 12)]:
        caps = coverage_caps(point, plates, scene.grid, scene.intrinsics, params)
        want = strengths_grid(point[None], rotations, plates, scene.intrinsics, params.delta, params.thold)[0].T
        assert caps.masks.shape == want.shape and np.array_equal(caps.masks, want)
        assert np.array_equal(caps.nple, want.sum(axis=0) >= params.n)


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
    # four stacked plates whose sum is counts, handed out per pass by row:
    # each point's x coordinate is its row index
    stacked = np.arange(4)[:, None, None] < counts
    monkeypatch.setattr(coverage_module, "_live_gates", lambda points, *args: stacked[:, points[:, 0].astype(int)])
    p = coverage_probabilities(np.arange(g + 1.0)[:, None] * [1.0, 0.0, 0.0], [], grid, pdf, TABLE3, params)
    want = np.array([math.fsum(pdf.weights[row].tolist()) for row in covered])
    assert p.dtype == want.dtype and p.tobytes() == want.tobytes()


REDUCTION_WEIGHTS = {
    "uniform": lambda grid, rng: OrientationPdf.uniform(grid).weights,
    "solid-angle": lambda grid, rng: OrientationPdf.solid_angle(grid).weights,
    "skewed": lambda grid, rng: rng.random(grid.n_cells) ** 8,
    "with-zeros": lambda grid, rng: np.where(rng.random(grid.n_cells) < 0.3, 0.0, rng.random(grid.n_cells)),
    # exponents from the subnormal range up to 1
    "subnormal-to-1": lambda grid, rng: np.ldexp(1.0 + rng.random(grid.n_cells),
                                                 rng.integers(-1075, 0, grid.n_cells)),
    "all-0.5": lambda grid, rng: np.full(grid.n_cells, 0.5),
    "all-3.0": lambda grid, rng: np.full(grid.n_cells, 3.0),
}


@pytest.mark.parametrize("n_yaw, n_pitch", [(3, 1), (12, 6), (24, 12)])
@pytest.mark.parametrize("kind", list(REDUCTION_WEIGHTS))
def test_masked_fsum_equals_fsum_per_row_bitwise(kind, n_yaw, n_pitch):
    grid = OrientationGrid.from_cells(n_yaw, n_pitch)
    g = grid.n_cells
    rng = np.random.default_rng(g)
    weights = REDUCTION_WEIGHTS[kind](grid, rng)
    # rows of every density, the all-false and the all-true row among them
    masks = rng.random((40, g)) < np.linspace(0.0, 1.0, 40)[:, None]
    masks[0], masks[-1] = False, True
    want = np.array([math.fsum(weights[row].tolist()) for row in masks])
    got = masked_fsum(masks, weights)
    assert got.dtype == want.dtype and got.shape == (40,) and got.tobytes() == want.tobytes()
    for row, total in zip(masks, want):
        one = masked_fsum(row, weights)
        assert isinstance(one, float) and np.float64(one).tobytes() == total.tobytes()
    empty = masked_fsum(masks[:0], weights)
    assert empty.dtype == np.float64 and empty.shape == (0,)


LIMB_WEIGHTS = {
    # (weights, whether two limbs cover them)
    # subnormals within 2^30 of each other: rows sum to subnormals and normals
    "all-subnormal": (lambda rng, g: np.ldexp(rng.integers(1 << 20, 1 << 50, g).astype(float), -1074), True),
    # every row sums to a subnormal, which the limbs give exactly
    "subnormal-sums": (lambda rng, g: np.ldexp(rng.integers(1, 1 << 40, g).astype(float), -1074), True),
    # normal weights beside subnormal ones: sums on both sides of 2^-1022
    "sums-across-2^-1022": (lambda rng, g: np.ldexp(1.0 + rng.random(g), rng.integers(-1040, -1020, g)), True),
    # exponents 60 apart: more than two 46-bit limbs
    "wide-span": (lambda rng, g: np.ldexp(1.0 + rng.random(g), rng.integers(-60, 1, g)), False),
}


@pytest.mark.parametrize("kind", list(LIMB_WEIGHTS))
def test_masked_fsum_limbs_at_the_extremes_equal_fsum_bitwise(kind):
    g = 72
    rng = np.random.default_rng(7)
    make, two_limbs = LIMB_WEIGHTS[kind]
    weights = make(rng, g)
    assert (coverage_module._MaskedFsum(weights).limbs is not None) == two_limbs
    masks = rng.random((60, g)) < np.linspace(0.0, 1.0, 60)[:, None]
    want = np.array([math.fsum(weights[row].tolist()) for row in masks])
    assert masked_fsum(masks, weights).tobytes() == want.tobytes()
    assert masked_fsum(masks.reshape(3, 20, g), weights).tobytes() == want.tobytes()
    normal = want >= 2.0**-1022
    if kind != "wide-span":
        assert ((want > 0) & ~normal).any() and normal.any() == (kind != "subnormal-sums")


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


@pytest.mark.parametrize("n", [0, 12, 13, 255, 256, 10**30])
def test_uint8_counts_compare_with_any_n(desk_scene, n):
    # 12 plates count in uint8, the scalar caps in intp; the two must
    # compare alike with any Python integer n, past uint8 and int64 too.
    grid, pdf = desk_scene.grid, OrientationPdf.solid_angle(desk_scene.grid)
    plates = generate_uniform(desk_scene, 12)
    params = dataclasses.replace(desk_scene.params, n=n)
    assert cell_counts(desk_scene.points, plates, grid, desk_scene.intrinsics, params).dtype == np.uint8
    p = coverage_probabilities(desk_scene.points, plates, grid, pdf, desk_scene.intrinsics, params)
    want = [nple_probability(coverage_caps(point, plates, grid, desk_scene.intrinsics, params), pdf)
            for point in desk_scene.points]
    assert p.tobytes() == np.array(want).tobytes()
    if n > 12:
        assert not p.any()


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


# ---------------------------------------------------------------------------
# The occluder table


def scalar_blockers(plates, cameras):
    """The (k, j) pairs where the scalar occlusion loop finds plate j blocking plate k from some camera.

    Plate k is first turned to face the camera, which changes no blocking
    test: those read only the positions and the target's nu.
    """
    found = set()
    for camera in cameras:
        for k, target in enumerate(plates):
            if np.array_equal(target.position, camera):
                continue
            facing = facing_landmark(target.position, camera, target.nu)
            found.update((k, j) for j, other in enumerate(plates)
                         if j != k and occlusion_criterion(0, [facing, other], camera) == 0)
    return found


def occluder_table(plates, cameras):
    """The (K, K) occluder table of one deployment seen from ``cameras``."""
    deployment = Deployment(plates)
    return coverage_module._occluder_table(deployment.positions[None], deployment.nu[None], cameras)[0]


def box_cameras(lo, size, inside):
    """The corners of the box ``[lo, lo + size]``, the centres of its faces, and ``inside`` (n, 3) in units of size."""
    units = [c for c in itertools.product((0.0, 0.5, 1.0), repeat=3) if c.count(0.5) in (0, 2)]
    return lo + np.concatenate((units, inside)) * size


@settings(max_examples=150, deadline=None, database=None)
@seed(20240)
@given(data=st.data())
def test_fuzzed_occluder_table_keeps_every_scalar_blocker(data):
    # Cameras at the corners, on the faces and inside a box that may be one
    # point or flat; blockers placed nu·(1 ± 2^-40) from a corner camera's
    # sight line to a plate, on a plate's wall (equal coordinates, so a
    # direction component is exactly 0) or within nu of a plate.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = data.draw(st.sampled_from([1.0, 300.0, 1e5]), label="scale")
    lo = rng.uniform(-1.0, 1.0, 3) * scale
    size = rng.uniform(0.05, 1.0, 3) * scale
    extent = data.draw(st.sampled_from(["box", "flat", "point"]), label="box")
    if extent == "point":
        size[:] = 0.0
    elif extent == "flat":
        size[rng.integers(3)] = 0.0
    cameras = box_cameras(lo, size, rng.uniform(0.0, 1.0, (2, 3)))
    corners = cameras[:8]
    span = np.maximum(size, 0.5 * scale)
    plates = []
    for _ in range(data.draw(st.integers(2, 6), label="plates")):
        kind = data.draw(st.sampled_from(["free", "sight", "wall", "near"]), label="kind")
        nu = float(rng.uniform(0.002, 0.2) * scale)
        position = lo + rng.uniform(-1.0, 2.0, 3) * span
        if plates and kind == "sight":
            camera, target = corners[rng.integers(8)], plates[rng.integers(len(plates))]
            sight = target.position - camera
            across = np.cross(sight, rng.normal(size=3))
            miss = target.nu * (1.0 + rng.choice([-1.0, 1.0]) * 2.0**-40)
            position = camera + rng.uniform(0.05, 0.95) * sight + miss * across / np.linalg.norm(across)
        elif plates and kind == "wall":
            position[rng.integers(3)] = plates[rng.integers(len(plates))].position[rng.integers(3)]
        elif plates and kind == "near":
            other = plates[rng.integers(len(plates))]
            offset = rng.normal(size=3)
            position = other.position + rng.uniform(0.0, 1.0) * other.nu * offset / np.linalg.norm(offset)
        plates.append(Landmark(position, rho=rng.uniform(-math.pi, math.pi), eta=0.0, nu=nu))
    table = occluder_table(plates, cameras)
    assert not table.diagonal().any()
    for k, j in scalar_blockers(plates, cameras):
        assert table[k, j], (k, j)
    # a stack gives each row the table its own plates give, when the stack's scale is theirs
    turned = plates[::-1]
    stack, k = Deployment(plates + turned), len(plates)
    rows = coverage_module._occluder_table(stack.positions.reshape(2, k, 3), stack.nu.reshape(2, k), cameras)
    assert np.array_equal(rows[0], table)
    assert np.array_equal(rows[1], occluder_table(turned, cameras))


def test_occluder_table_margin_covers_the_scalar_rounding(monkeypatch):
    # A one-point box and a blocker about 2^-26·nj from the sight line to its
    # target, 64 times its target's nu: near c = 1 the scalar test's 1 - c²
    # cancels, so it blocks about a third of these. The table must keep every
    # one; with a margin of 2^-34 in place of 2^-20 it drops nearly all.
    rng = np.random.default_rng(26)
    cases = []
    for _ in range(100):
        camera = rng.uniform(-300.0, 300.0, 3)
        sight = rng.normal(size=3)
        sight *= rng.uniform(200.0, 600.0) / np.linalg.norm(sight)
        across = np.cross(sight, rng.normal(size=3))
        ahead = rng.uniform(0.3, 0.9)
        miss = rng.uniform(0.1, 2.0) * 2.0**-26 * ahead * np.linalg.norm(sight)
        blocker = camera + ahead * sight + miss * across / np.linalg.norm(across)
        plates = [facing_landmark(camera + sight, camera, miss / 64), facing_landmark(blocker, camera, miss / 64)]
        cases.append((plates, camera[None]))
    blocked = [case for case in cases if scalar_blockers(*case) == {(0, 1)}]
    assert 10 <= len(blocked) <= len(cases) - 10
    assert all(occluder_table(*case)[0, 1] for case in blocked)
    monkeypatch.setattr(coverage_module, "_OCCLUDER_MARGIN", 2.0**-34)
    assert sum(occluder_table(*case)[0, 1] for case in blocked) <= len(blocked) // 4


def test_occluder_margin_covers_the_one_minus_c_squared_term_at_half_its_bound(monkeypatch):
    # A one-point box, whose corner is the camera, and a blocker nearly on
    # the sight line along a face diagonal, so that the inflated box is
    # tight across it. The scalar test's c rounds to 1, so 1 - c² cancels
    # to 0 and the test blocks with any nu, though the blocker lies 2.75√u·nj
    # from the line, exactly: the error that the margin's proof bounds by
    # 5√u·nj. The table keeps it at 2^-20 and drops it at a margin of half
    # that bound, 2.5√u·nj/L. The case is the widest of 6·10^7 random ones.
    u = 2.0**-53
    camera = np.array([-255.56333935026768, -255.55859137439438, 0.08816397958151745])
    target = np.array([255.6260323303607, 255.92235267147342, -0.3745512387339621])
    blocker = np.array([254.57403501382598, 254.86975531635645, -0.3735780843780353])
    plates = [facing_landmark(target, camera, 2.0**-40), Landmark(blocker, rho=0.0, eta=0.0, nu=1.0)]
    assert occlusion_criterion(0, plates, camera) == 0
    # the exact distance from the camera-to-blocker vector, as rounded, to the sight line
    aj, ak = ([Fraction(float(v)) for v in point - camera] for point in (blocker, target))
    dot, nj2 = sum(a * b for a, b in zip(aj, ak)), sum(a * a for a in aj)
    sine2 = 1 - dot * dot / (nj2 * sum(a * a for a in ak))
    assert (2.5**2 * u) < sine2 < (3.0**2 * u)
    cameras = camera[None]
    assert occluder_table(plates, cameras)[0, 1]
    half = 2.5 * math.sqrt(u) * math.sqrt(float(nj2)) / (4.0 * np.abs([camera, target, blocker]).max())
    monkeypatch.setattr(coverage_module, "_OCCLUDER_MARGIN", half)
    assert not occluder_table(plates, cameras)[0, 1]


@pytest.mark.parametrize("scale, nu, camera", [
    (2.0**-410, 1e-130, 1.0),  # products could underflow
    (2.0**510, 1.0, 1.0),  # squares could overflow
    (1.0, sys.float_info.max, 1.0),  # nu·(1 + margin) overflows
    (1.0, 0.01, math.nan),  # a camera that is not a number
], ids=["tiny", "huge", "huge-nu", "nan-camera"])
def test_occluder_table_keeps_every_plate_outside_its_proof(scale, nu, camera):
    positions = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.5], [3.0, -1.0, 2.0]]) * scale
    cameras = np.array([[5.0, 5.0, 5.0], [6.0, 5.0, camera]]) * scale
    plates = [Landmark(p, rho=0.0, eta=0.0, nu=nu) for p in positions]
    assert np.array_equal(occluder_table(plates, cameras), ~np.eye(3, dtype=bool))


def test_blocks_of_targets_and_pairs_change_no_bit(table3_scene, monkeypatch):
    # the table's target rows and the occlusion pass's pairs one per block,
    # against one block each, for a stack of two deployments in which
    # several dozen (position, plate) pairs are blocked; and a one-row
    # call's targets one per block, from a position and a pose at which
    # the stack's 180 plates, taken as one deck, block several of their own
    scene = dataclasses.replace(table3_scene, points=table3_scene.points[::20], rel=table3_scene.rel[::20])
    stack = Deployment.of([lm for seed in (0, 1) for lm in generate_random(scene, 90, seed).landmarks])
    room, point = table3_scene, table3_scene.points[535]
    pose = pose_to_se3(Pose6(point, *room.grid.cell_angles(61)))
    one_row = {
        "pose_strengths": lambda: pose_strengths(pose, stack, room.intrinsics, room.params.delta, room.params.thold),
        "coverage_caps": lambda: coverage_caps(point, stack, room.grid, room.intrinsics, room.params).masks,
    }
    blocked, occluded = [], coverage_module._occluded
    monkeypatch.setattr(coverage_module, "_occluded", lambda *args: blocked.append(occluded(*args)) or blocked[-1])
    singles = {name: call() for name, call in one_row.items()}
    assert len(blocked) == 2 and all(b.sum() >= 3 for b in blocked)
    whole = evaluate_coverages(scene, stack, 2)
    table = occluder_table(stack.landmarks[:90], scene.points)
    monkeypatch.setattr(coverage_module, "_CHUNK_ELEMENTS", 45)
    assert np.array_equal(occluder_table(stack.landmarks[:90], scene.points), table)
    assert np.array_equal(evaluate_coverages(scene, stack, 2).p_n, whole.p_n)
    for name, call in one_row.items():
        assert call().tobytes() == singles[name].tobytes(), name
    assert len(blocked) == 4 and all(np.array_equal(a, b) for a, b in zip(blocked[:2], blocked[2:]))


def fuzzed_plate_sets(data, rng, cameras, sets, k):
    """``sets`` decks of ``k`` plates, each built around the first camera of its run of ``cameras``.

    The first plate faces that camera. Besides free plates: blockers
    nu·(1 ± 2^-40) from that camera's sight line to a plate, plates
    coincident with another, and pairs at one range from the camera,
    exactly: quarter-cm offsets from an integer camera, permuted, so every
    sum of squares is exact.
    """
    decks, run = [], len(cameras) // sets
    for r in range(sets):
        camera, plates = cameras[r * run], []
        while len(plates) < k:
            kind = data.draw(st.sampled_from(["free", "sight", "coincident", "equal-range"]), label="kind")
            positions = [rng.uniform(-150.0, 150.0, 3)]
            if plates and kind == "sight":
                target = plates[rng.integers(len(plates))]
                sight = target.position - camera
                across = np.cross(sight, rng.normal(size=3))
                miss = target.nu * (1.0 + rng.choice([-1.0, 1.0]) * 2.0**-40)
                positions = [camera + rng.uniform(0.05, 0.95) * sight + miss * across / np.linalg.norm(across)]
            elif plates and kind == "coincident":
                positions = [plates[rng.integers(len(plates))].position.copy()]
            elif kind == "equal-range":
                offset = np.round(rng.uniform(-150.0, 150.0, 3) * 4.0) / 4.0
                positions = [camera + offset, camera + offset[rng.permutation(3)]]
            plates += [Landmark(p, rho=rng.uniform(-math.pi, math.pi), eta=rng.uniform(-1.5, 1.5),
                                nu=float(rng.uniform(0.5, 20.0))) for p in positions]
            if len(plates) == len(positions):
                plates[0] = facing_landmark(plates[0].position, camera, plates[0].nu)
        decks.append(Deployment(plates[:k]))
    return decks


@settings(max_examples=80, deadline=None, database=None)
@seed(3232)
@given(data=st.data())
def test_fuzzed_blocked_mask_matches_the_scalar_occlusion_rule(data):
    """A call's blocked mask equals ``occlusion_criterion`` for every pair whose plate faces its camera.

    B = m·n integer cameras scored against one deck (R = 1), one deck per
    run of n rows (R = m) or one deck per row (R = B).
    """
    from landmark_coverage.geometry import landmark_normal

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n, m = data.draw(st.integers(1, 4), label="positions"), data.draw(st.integers(2, 3), label="deployments")
    sets = data.draw(st.sampled_from([1, m, m * n]), label="sets")
    cameras = np.round(rng.uniform(-100.0, 100.0, (m * n, 3)))
    decks = fuzzed_plate_sets(data, rng, cameras, sets, data.draw(st.integers(2, 7), label="plates"))
    plates = PlateRows(*(np.stack([getattr(d, name) for d in decks]) for name in ("positions", "normals", "nu")))
    table = coverage_module._occluder_table(plates.positions, plates.nu, cameras)
    blocked = coverage_module._blocked_mask(cameras, plates, table)
    checked = 0
    for b, camera in enumerate(cameras):
        deck = decks[b // (len(cameras) // sets)]
        for k, plate in enumerate(deck.landmarks):
            w, normal = camera - plate.position, landmark_normal(plate)
            if (normal[0] * w[0] + normal[1] * w[1]) + normal[2] * w[2] > 0:
                assert blocked[b, k] == (occlusion_criterion(k, deck.landmarks, camera) == 0), (b, k)
                checked += 1
    assert blocked.shape == (len(cameras), len(decks[0])) and checked > 0


def test_a_tabled_call_runs_one_blocked_step_before_its_passes(table3_scene, monkeypatch):
    """A Table 3 evaluation takes one blocked step, before its first pass, and never calls ``_occluded``.

    A one-row call takes no blocked step and calls ``_occluded`` once, in its one pass.
    """
    plates = generate_random(table3_scene, 90, 0)
    events = []
    for name in ("_blocked_mask", "_live_gates", "_occluded"):
        real = getattr(coverage_module, name)
        monkeypatch.setattr(coverage_module, name, lambda *args, real=real, name=name: events.append(name) or real(*args))
    evaluate_coverage(table3_scene, plates)
    assert events == ["_blocked_mask"] + ["_live_gates"] * 104
    events.clear()
    scene = table3_scene
    coverage_probabilities(scene.points[:1], plates, scene.grid, scene.pdf, scene.intrinsics, scene.params)
    assert events == ["_live_gates", "_occluded"]


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


def plate_at_depth(rng, point, axis, depth, spread):
    """A plate facing ``point`` whose scalar-order depth along ``axis`` is exactly ``depth``.

    It sits up to ``spread * depth`` off the axis; one coordinate is
    stepped a float at a time until the depth lands, or None if it skips over.
    """
    side = rng.normal(size=3)
    side -= (side @ axis) * axis
    q = point + depth * (axis + rng.uniform(0.0, spread) * side / np.linalg.norm(side))
    i = int(np.argmax(np.abs(axis)))
    for _ in range(200):
        dx, dy, dz = (q - point).tolist()
        z = (axis[0] * dx + axis[1] * dy) + axis[2] * dz
        if z == depth:
            return facing_landmark(q, point)
        q[i] = math.nextafter(q[i], math.copysign(math.inf, (depth - z) * axis[i]))
    return None


def test_depths_at_the_window_edges_match_scalar_criteria(monkeypatch):
    """Plates whose depth is z_near or hi exactly, or one float either side, on tilted cells.

    The classifier's product may reorder the depth's terms, so its rank of
    these cells is within rounding of either side: they must fall in the
    margin band and get the scalar-order depth. With the margin shrunk to 0
    some of them are misclassified.
    """
    rng = np.random.default_rng(31)
    grid = OrientationGrid.from_cells(7, 5)
    rotations = grid.rotations()
    tilted = [g for g in range(grid.n_cells) if g // grid.n_pitch > 0 and g % grid.n_pitch != 2]
    cases = []
    for intr, thold in ((TABLE3, 0.2), (TABLE3, 0.0), (FULL_HD, 0.0), (FULL_HD, 0.2)):
        z_near, z_far, z_res = depth_cuts(intr, thold)
        hi = min(z_far, z_res)
        for edge in [z_near] + ([hi] if hi < math.inf else []):
            for g in rng.choice(tilted, 6, replace=False):
                point = rng.uniform(-100.0, 100.0, 3)
                pose = Pose6(point, yaw=grid.cell_angles(g)[0], pitch=grid.cell_angles(g)[1])
                for depth in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                    plate = None
                    while plate is None:
                        plate = plate_at_depth(rng, point, rotations[g, 2], depth, 0.5 * intr.min_fov_tan)
                    strength = coverage_strength(0, [plate], pose, intr, 4.0)
                    scalar = strength > 0 and strength >= thold
                    assert scalar == (z_near <= depth <= hi)  # the depth alone decides
                    cases.append((point, g, plate, intr, thold, scalar))
    assert len(cases) == 126 and 0 < sum(case[-1] for case in cases) < len(cases)

    def misclassified():
        return sum(
            strengths_grid(point[None], rotations, [plate], intr, 4.0, thold)[0, g, 0] != scalar
            for point, g, plate, intr, thold, scalar in cases
        )

    assert misclassified() == 0
    monkeypatch.setattr(coverage_module, "_DEPTH_MARGIN", 0.0)
    assert misclassified() > 0


def ldexp_window_rows(px, py, pz, lo, hi, window):
    """``_window_rows`` scaled by ``np.ldexp``, with the exponents of ``_DEPTH_MARGIN``'s comment; and t."""
    s, s1, p, _ = window
    reach = np.maximum(np.maximum(np.abs(px), np.abs(py)), np.abs(pz))
    with np.errstate(over="ignore", invalid="ignore"):
        hi = np.minimum((reach * s) * (1.0 + 2.0**-40) + 2.0**-1022, hi)
        mid, half = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
        t = s1 * reach + mid + half
        m = coverage_module._DEPTH_MARGIN * t + 2.0**-1022
        minus_q = -np.frexp(t)[1]
        rows = np.stack([np.ldexp(d, minus_q + p) for d in (px, py, pz)] + [np.ldexp(-mid, minus_q)], axis=1)
        cuts = [np.ldexp(x, minus_q).astype(np.float32)[:, None] for x in (half - m, half + m)]
        return (rows.astype(np.float32), *cuts, hi), t


def test_window_rows_scale_as_ldexp_bit_for_bit():
    """The classifier's float32 rows, cuts and capped hi equal the ``np.ldexp`` form's, bit for bit.

    Per axes (s1 < 2, s1 = 3, 2^100 and 2^1000), pairs with t infinite or
    not a number, with t below 2^(p - 1024), where 2^(p - q) is no float,
    with t near the largest float, where d·2^p overflows, with d·2^-q
    subnormal, where (d·2^-q)·2^p rounds twice, and with zero or subnormal
    d. A bare product with 2.0**(p - q) is infinite in the corner.
    """
    tiny = 5e-324
    cases = {
        "unit": (OrientationGrid.from_cells(4, 3).axes(), [
            (30.0, -40.0, 5.0, 900.0, 1e4), (0.0, -0.0, 0.0, 900.0, 1e4), (tiny, -tiny, 3 * tiny, 900.0, 1e4),
            (1e308, 1e308, 0.0, 1.0, math.inf), (1.0, 2.0, 3.0, math.inf, math.inf),
            (8 * tiny, -tiny, 0.0, 2.0**-1060, 2.0**-1059), (0.0, tiny, -0.0, 2.0**-1070, 2.0**-1069),
        ]),
        "s1 = 3": (np.array([[1.0, 1.0, 1.0], [0.5, -2.0, 0.25]]), [
            (4.5e307, 1.0, -1.0, 1.0, 2.0), (-5e307, tiny, 0.0, 1.0, 1e300), (2.0**-1060, tiny, 0.0, 2.0**-1050, 2.0**-1049),
            (3.0, 4.0, 5.0, 2.0, math.inf),
        ]),
        "s1 = 2^100": (np.array([[2.0**100, 0.0, 0.0], [0.0, 2.0**99, -(2.0**98)]]), [
            (2.0**-1030, -3 * 2.0**-1050, 0.0, 2.0**-930, 2.0**-929), (0.0, tiny, 0.0, 2.0**-1070, 2.0**-1069),
            (-(2.0**-1040), 0.0, tiny, 2.0**-950, 1.0), (7.0, 1.0, 1.0, 1.0, 2.0), (1e200, 0.0, 0.0, 1.0, 2.0),
        ]),
        # d·2^-q is subnormal and rounds to a float32 tie that d·2^(p-q) is above
        "s1 = 2^1000": (np.array([[2.0**1000, 0.0, 0.0]]), [
            (2.0**-940, 2.0**-980 * (1.0 + 2.0**-24 + 2.0**-50), 0.0, 1.0, 2.0), (2.0**-1030, 0.0, 0.0, 2.0**-40, 2.0**-39),
        ]),
    }
    corners = 0
    for label, (axes, pairs) in cases.items():
        window = coverage_module._window_axes(axes)
        columns = [np.array(column) for column in zip(*pairs)]
        want, t = ldexp_window_rows(*columns, window)
        got = coverage_module._window_rows(*columns, window)
        for name, a, b in zip(("rows", "lower", "upper", "hi"), got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (label, name)
        corners += int((t < 2.0 ** (window[2] - 1024)).sum())
        assert np.isinf(t).any() or label != "unit"
    assert corners >= 4


def test_margin_covers_float32_roundings_that_err_together(monkeypatch):
    """Depths at the far cut, or one float past it, whose float32 inputs all round the same way.

    Each axis component is 0.5 and each plate coordinate 256 in magnitude,
    plus nearly half a float32 step, so the product sees 0.5 and 256: its
    terms and every partial sum are exact in float32, in any order and with
    or without FMA, and its depth falls short of the true one by nearly
    2^-23 relative, about 2^-24 of t. The window's midpoint rounds up,
    which adds to the shortfall. The margin 2^-18 sends these cells to the
    exact path; a margin of 2^-24 ranks the cells past the cut as inside.
    """
    rng = np.random.default_rng(7)
    v, intr, delta = 2.0**-24, TABLE3, 4.0
    thold = intr.magnification / (cm_to_mm(384.0 * (1 + 1.85 * v)) * max(intr.s_u, intr.s_v))
    z_near, z_far, z_res = depth_cuts(intr, thold, delta)
    hi = min(z_far, z_res)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    axes = signs * 0.5 * (1 + rng.uniform(0.93, 0.97, (8, 3)) * v)
    d = signs[np.arange(64) % 8] * 256.0 * (1 + rng.uniform(0.93, 0.97, (64, 3)) * v)
    for r, (a, target) in enumerate(zip(axes[np.arange(64) % 8], 32 * [hi, math.nextafter(hi, math.inf)])):
        d[r, 2] = (target - (a[0] * d[r, 0] + a[1] * d[r, 1])) / a[2]
        for _ in range(100):  # step the last coordinate a float at a time onto the depth
            z = (a[0] * d[r, 0] + a[1] * d[r, 1]) + a[2] * d[r, 2]
            if z == target:
                break
            d[r, 2] = math.nextafter(d[r, 2], math.copysign(math.inf, (target - z) * a[2]))
        assert z == target
    assert np.all(np.abs(axes.astype(np.float32)) == 0.5) and np.all(np.abs(d.astype(np.float32)) == 256.0)
    # one plate per camera at the origin, facing it, so none occludes another
    plates = coverage_module.PlateRows(
        d[:, None], -(d / np.linalg.norm(d, axis=1)[:, None])[:, None], np.full((64, 1), 10.0)
    )
    dx, dy, dz = d.T
    lo = np.maximum(np.sqrt((dx * dx + dy * dy) + dz * dz) * intr.fov_cos, z_near)
    expected = np.empty((64, 8), dtype=bool)
    for g, (a0, a1, a2) in enumerate(axes.tolist()):
        z = (a0 * dx + a1 * dy) + a2 * dz  # elementwise, in the scalar order
        expected[:, g] = (z >= lo) & (z <= hi)
    assert expected.sum() == 32

    def misclassified():
        mask = coverage_module.axis_strengths(np.zeros((64, 3)), axes[None], plates, intr, delta, thold)
        return int((mask[:, :, 0] != expected).sum())

    assert misclassified() == 0
    monkeypatch.setattr(coverage_module, "_DEPTH_MARGIN", 2.0**-24)
    assert misclassified() == 32


def test_axes_of_any_norm_are_classified_by_their_norm():
    """Axes of norm 4096 go to ``strengths_grid`` as they are, checked per element.

    The plates lie within a few floats of the FOV cone's edge, where
    z = range * fov_cos, nearly perpendicular to their cell's axis, so each
    depth is a difference of products some 4096 times larger than itself.
    The classifier's margin grows with the largest axis norm; a margin for
    unit axes misclassifies some of these cells.
    """
    rng = np.random.default_rng(29)
    intr, thold, norm, count = TABLE3, 0.2, 4096.0, 4000
    rotations = OrientationGrid.from_cells(7, 5).rotations() * norm  # an exact scaling
    axes = rotations[:, 2]
    points = rng.uniform(-50.0, 50.0, (count, 3))
    cell = rng.integers(len(axes), size=count)
    unit = axes[cell] / norm
    side = rng.normal(size=(count, 3))
    side -= (side * unit).sum(axis=1)[:, None] * unit
    side /= np.linalg.norm(side, axis=1)[:, None]
    z_near, z_far, z_res = depth_cuts(intr, thold)
    hi = min(z_far, z_res)
    cos = intr.fov_cos / norm * (1.0 + rng.uniform(-1e-13, 1e-13, count))
    ranges = rng.uniform(1.01 * z_near / intr.fov_cos, 0.99 * hi, count)
    d = ranges[:, None] * (cos[:, None] * unit + np.sqrt(1.0 - cos * cos)[:, None] * side)
    # one plate per row, facing its camera, so that none occludes another
    plates = coverage_module.PlateRows(
        (points + d)[:, None], -(d / ranges[:, None])[:, None], np.full((count, 1), 10.0)
    )
    mask = strengths_grid(points, rotations, plates, intr, 4.0, thold)[:, :, 0]

    dx, dy, dz = (plates.positions[:, 0] - points).T
    lo = np.maximum(np.sqrt((dx * dx + dy * dy) + dz * dz) * intr.fov_cos, z_near)
    expected = np.empty((count, len(axes)), dtype=bool)
    for g, (a0, a1, a2) in enumerate(axes.tolist()):
        z = (a0 * dx + a1 * dy) + a2 * dz  # elementwise, in the scalar order
        expected[:, g] = (z >= lo) & (z <= hi)
    on_edge = expected[np.arange(count), cell]
    assert 0.3 < on_edge.mean() < 0.7
    assert np.array_equal(mask, expected)


def plates_near_axes(rng, point, axes, count, depths, spread):
    """Plates facing ``point``, each up to ``spread`` rad off a random cell's axis."""
    plates = []
    for _ in range(count):
        axis = axes[rng.integers(len(axes))]
        side = rng.normal(size=3)
        side -= (side @ axis) * axis
        direction = axis + rng.uniform(0.0, spread) * side / np.linalg.norm(side)
        depth = rng.uniform(*depths)
        plates.append(facing_landmark(point + depth * (direction / np.linalg.norm(direction)), point))
    return plates


@pytest.mark.parametrize("scale", ["hi-1e77", "beyond-float32"])
def test_extreme_depth_windows_match_scalar_criteria_bitwise(scale, monkeypatch):
    """The float32 classifier on windows and coordinates far outside float32's range.

    With ``thold`` 1e-77 the resolution cut, and so ``hi`` and the window's
    midpoint, are about 1e77; in the second scene the cameras and plates lie
    near 1e40 cm, and ``thold`` puts ``hi`` among the plates' depths. The
    masks equal the scalar criteria's, with no warning.
    """
    rng = np.random.default_rng(41)
    intr, delta = FULL_HD, 4.0  # focused at infinity, so z_res alone bounds the window
    grid = OrientationGrid.from_cells(12, 6)
    if scale == "hi-1e77":
        thold, size = 1e-77, 1.0
    else:
        size = 1e40
        thold = intr.magnification / (cm_to_mm(1.5 * size) * max(intr.s_u, intr.s_v))
    z_near, z_far, z_res = depth_cuts(intr, thold, delta)
    hi = min(z_far, z_res)
    assert (hi > 1e76) if scale == "hi-1e77" else (size < hi < 2 * size)
    points = rng.uniform(-size, size, (3, 3)) + (0.0 if scale == "hi-1e77" else 2 * size)
    depths = (2000.0, 9000.0) if scale == "hi-1e77" else (0.5 * size, 2.5 * size)
    plates = [p for point in points for p in plates_near_axes(rng, point, grid.axes(), 4, depths, 0.12)]
    params = CoverageParams(thold=thold, delta=delta, n=1)
    real_window, resolved = coverage_module._in_window, []

    def counting_window(*args):
        z = real_window(*args)
        resolved.append(z.size)
        return z

    monkeypatch.setattr(coverage_module, "_in_window", counting_window)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = strengths_grid(points, grid.rotations(), plates, intr, delta, thold)
        counts = cell_counts(points, plates, grid, intr, params)
    scalar = np.array([
        [
            [coverage_strength(k, plates, Pose6(point, *grid.cell_angles(g)), intr, delta) for k in range(len(plates))]
            for g in range(grid.n_cells)
        ]
        for point in points
    ])
    assert np.array_equal(mask, (scalar > 0) & (scalar >= thold))
    assert 0 < mask.sum() and np.array_equal(counts, mask.sum(axis=2))
    # Near 1e40 the scaled product still decides nearly every cell; with hi
    # near 1e77 the far cut is capped at the deepest depth each plate can
    # reach, so the margin stays relative to the plates' depths.
    if scale == "beyond-float32":
        assert sum(resolved) < 0.01 * mask.size


def test_a_far_cut_is_capped_at_the_deepest_reachable_depth(monkeypatch):
    """With ``hi`` near 1e77, far beyond every plate, the product still decides nearly every cell.

    The classifier caps each pair's far cut at the deepest depth its plate
    can reach, so its margin is relative to the plate's depth,
    not to the window's midpoint near 5e76; uncapped, every cell fell in
    the band and took the scalar-order z. The scene is the hi-1e77 one of
    ``test_extreme_depth_windows_match_scalar_criteria_bitwise``.
    """
    rng = np.random.default_rng(41)
    intr, delta, thold = FULL_HD, 4.0, 1e-77
    assert min(depth_cuts(intr, thold, delta)[1:]) > 1e76
    grid = OrientationGrid.from_cells(12, 6)
    points = rng.uniform(-1.0, 1.0, (3, 3))
    plates = [p for point in points for p in plates_near_axes(rng, point, grid.axes(), 4, (2000.0, 9000.0), 0.12)]
    real_classify, real_window = coverage_module._classify_window, coverage_module._in_window
    counts = {"classified": 0, "resolved": 0}

    def counting_classify(axes, px, *args):
        counts["classified"] += axes.shape[0] * px.size
        return real_classify(axes, px, *args)

    def counting_window(*args):
        z = real_window(*args)
        counts["resolved"] += z.size
        return z

    monkeypatch.setattr(coverage_module, "_classify_window", counting_classify)
    monkeypatch.setattr(coverage_module, "_in_window", counting_window)
    mask = strengths_grid(points, grid.rotations(), plates, intr, delta, thold)
    assert mask.sum() > 0 and counts["classified"] > 1000
    assert counts["resolved"] < 0.01 * counts["classified"]


def test_float32_band_holds_under_one_percent_of_classified_cells(table3_scene, desk_scene, monkeypatch):
    """The classifier's margin leaves the exact path a small share of the work.

    A margin that is sound but far too wide would send most cells to
    ``_in_window`` and lose the product's speed without failing any
    exactness test; this counts both during one packaged Table 3 evaluation
    and one 30-chromosome desk generation.
    """
    from landmark_coverage import deployment, ega

    real_classify, real_window = coverage_module._classify_window, coverage_module._in_window
    counts = {"classified": 0, "resolved": 0}

    def counting_classify(axes, px, *args):
        counts["classified"] += axes.shape[0] * px.size
        return real_classify(axes, px, *args)

    def counting_window(*args):
        z = real_window(*args)
        counts["resolved"] += z.size
        return z

    monkeypatch.setattr(coverage_module, "_classify_window", counting_classify)
    monkeypatch.setattr(coverage_module, "_in_window", counting_window)
    space = ega.GeneSpace(desk_scene, 12, "wall")
    block = np.stack([space.random(np.random.default_rng(seed)) for seed in range(30)])
    runs = (
        lambda: deployment.evaluate_coverage(table3_scene, deployment.generate_random(table3_scene, 90, 0)),
        lambda: deployment.evaluate_coverages(desk_scene, space.decode(block), len(block)),
    )
    for run in runs:
        counts.update(classified=0, resolved=0)
        run()
        assert counts["classified"] > 1e5
        assert counts["resolved"] < 0.01 * counts["classified"]


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


@pytest.mark.parametrize("rows, cells, plates", [
    (0, 288, 12),  # no rows: no pass
    (1040, 288, 90),  # Table 3: 10-row passes
    (1392, 72, 12),  # a desk generation: 303-row passes
    (50, 1, 0),  # no plates, counted as one
    (3001, 1, 24),  # cells < plates: a desk walk, 455-pose passes
    (7, 4, 513),  # plates^2 > _CHUNK_ELEMENTS: one row per pass
    (5, 1, 1),  # one pass
])
def test_gate_passes_cover_the_rows_once_in_order(rows, cells, plates):
    k = max(1, plates)
    cap = max(1, coverage_module._CHUNK_ELEMENTS // (max(cells, k) * k))
    if plates * plates > coverage_module._CHUNK_ELEMENTS:
        assert cap == 1

    spans = [(s.start, s.stop) for s in coverage_module.gate_passes(rows, cells, plates)]
    bounds = [0] + [b for _, b in spans]
    assert spans == list(zip(bounds, bounds[1:])) and bounds[-1] == rows
    assert all(1 <= b - a <= cap for a, b in spans)
    assert all(b - a == cap for a, b in spans[:-1])


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


@pytest.mark.parametrize("front_fails", ["near-focus", "fov", "back-facing"])
def test_plate_failing_its_own_gates_still_occludes(front_fails):
    # The target alone passes every gate; a plate on its sight line that
    # fails one of its own gates still blocks it, as in the scalar rule.
    grid = OrientationGrid(np.array([0.3]), np.array([0.2]))
    camera = np.array([10.0, 20.0, 30.0])
    pose = Pose6(camera, yaw=0.3, pitch=0.2)
    assert np.array_equal(grid.rotations()[0], pose.rotation())
    axis, side = pose.rotation()[2], pose.rotation()[0]
    target = facing_landmark(camera + 300.0 * axis, camera, nu=100.0)
    if front_fails == "near-focus":  # 50 cm, nearer than z_near (97.5 cm)
        front = facing_landmark(camera + 50.0 * axis, camera)
    elif front_fails == "fov":  # 40 degrees off the axis, 90 cm from the sight line
        angle = math.radians(40.0)
        front = facing_landmark(camera + 140.0 * (math.cos(angle) * axis + math.sin(angle) * side), camera)
    else:  # faces away from the camera
        front = facing_landmark(camera + 150.0 * axis, camera + 300.0 * axis)
    gates = {
        "near-focus": focus_criterion(front, pose, TABLE3, 4.0),
        "fov": fov_criterion(front, pose, TABLE3),
        "back-facing": occlusion_criterion(0, [front], camera),
    }
    assert gates == {name: int(name != front_fails) for name in gates}
    assert coverage_strength(0, [target], pose, TABLE3, 4.0) > 0

    plates = [target, front]
    expected = [coverage_strength(k, plates, pose, TABLE3, 4.0) > 0 for k in range(2)]
    assert expected == [False, False]
    params = CoverageParams(thold=0.0, delta=4.0, n=1)
    mask = strengths_grid(camera[None], grid.rotations(), plates, TABLE3, 4.0)
    assert mask[0, 0].tolist() == expected
    assert cell_counts(camera[None], plates, grid, TABLE3, params).tolist() == [[sum(expected)]]
    x = pose_to_se3(pose)
    assert pose_strengths(x, plates, TABLE3, 4.0).tolist() == expected
    assert pose_strengths(x, [target], TABLE3, 4.0).tolist() == [True]


def test_coverage_params_validation():
    with pytest.raises(ValueError):
        CoverageParams(thold=-0.1, delta=4.0, n=1)
    with pytest.raises(ValueError):
        CoverageParams(thold=0.2, delta=0.0, n=1)
    with pytest.raises(ValueError):
        CoverageParams(thold=0.2, delta=4.0, n=-1)


# ---------------------------------------------------------------------------
# The pass runner behind every entry point

ENTRY_POINTS = {
    "strengths_grid": lambda scene, plates, points: strengths_grid(
        points, scene.grid.rotations(), plates, scene.intrinsics, scene.params.delta, scene.params.thold),
    # one optical axis per row, as a pose stack gives them; a run of rows repeats them
    "axis_strengths": lambda scene, plates, points: coverage_module.axis_strengths(
        points, scene.grid.axes()[np.arange(len(points)) % scene.n_points % scene.grid.n_cells, None], plates,
        scene.intrinsics, scene.params.delta, scene.params.thold),
    "cell_counts": lambda scene, plates, points: cell_counts(
        points, plates, scene.grid, scene.intrinsics, scene.params),
    "coverage_probabilities": lambda scene, plates, points: coverage_probabilities(
        points, plates, scene.grid, scene.pdf, scene.intrinsics, scene.params),
}


def stacked_plates(deployments):
    """``PlateRows`` with one set per deployment, for runs of rows of equal length."""
    return PlateRows(*(np.stack([getattr(d, name) for d in deployments]) for name in ("positions", "normals", "nu")))


def spy_gate_core(monkeypatch):
    """Record the ``PlateRows`` and row count of every gate-core pass."""
    passes, real = [], coverage_module._live_gates

    def spy(points, axes, plates, *args):
        passes.append((len(points), axes.shape[1], plates))
        return real(points, axes, plates, *args)

    monkeypatch.setattr(coverage_module, "_live_gates", spy)
    return passes


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("sets", [1, 3])
def test_entry_points_cut_their_rows_into_passes_within_the_cap(desk_scene, monkeypatch, entry, sets):
    """Over more rows than one pass, an entry point equals its one-pass result bit for bit.

    The desk's 48 positions, ``sets`` times over: with 3 sets each run of
    48 rows is scored against its own deployment, as that deployment's
    own call scores it, and 7-row passes cut the runs mid-way.
    """
    k, call = 12, ENTRY_POINTS[entry]
    deployments = [generate_random(desk_scene, k, seed) for seed in range(sets)]
    plates = stacked_plates(deployments) if sets > 1 else deployments[0]
    points = np.tile(desk_scene.points, (sets, 1))
    whole = call(desk_scene, plates, points)
    cap = 7 * max(desk_scene.grid.n_cells, k) * k
    monkeypatch.setattr(coverage_module, "_CHUNK_ELEMENTS", cap)
    passes = spy_gate_core(monkeypatch)
    cut = call(desk_scene, plates, points)
    assert len(passes) > 1 and sum(rows for rows, _, _ in passes) == len(points)
    assert all(rows * max(cells, k) * k <= cap for rows, cells, _ in passes)
    assert cut.shape == whole.shape and cut.dtype == whole.dtype and cut.tobytes() == whole.tobytes()
    n = desk_scene.n_points
    for i, deployment in enumerate(deployments):
        own = call(desk_scene, deployment, points[i * n:(i + 1) * n])
        assert own.tobytes() == cut[i * n:(i + 1) * n].tobytes()


def spy_blocked_masks(monkeypatch):
    """Record each ``_blocked_mask`` call's table and mask, and the blocked rows each gate-core pass is given."""
    masks, slices = [], []
    blocked_mask, gates = coverage_module._blocked_mask, coverage_module._live_gates

    def spy(points, plates, table):
        masks.append((table, blocked_mask(points, plates, table)))
        return masks[-1][1]

    monkeypatch.setattr(coverage_module, "_blocked_mask", spy)
    monkeypatch.setattr(coverage_module, "_live_gates", lambda *args: slices.append(args[-1]) or gates(*args))
    return masks, slices


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("rows", [1, 2, 40])
def test_an_entry_point_builds_one_occluder_table_per_call_of_many_rows(desk_scene, monkeypatch, entry, rows):
    """A call of more than one row builds one table, which feeds one blocked mask that every pass slices.

    A one-row call builds neither.
    """
    plates = generate_random(desk_scene, 12, 0)
    builds, build = [], coverage_module._occluder_table
    monkeypatch.setattr(coverage_module, "_occluder_table", lambda *args: builds.append((args, build(*args))) or builds[-1][1])
    monkeypatch.setattr(coverage_module, "_CHUNK_ELEMENTS", 7 * 72 * 12)  # passes of 7 rows or more
    passes = spy_gate_core(monkeypatch)
    masks, slices = spy_blocked_masks(monkeypatch)
    ENTRY_POINTS[entry](desk_scene, plates, desk_scene.points[:rows])
    if rows == 1:
        assert builds == [] and masks == [] and slices == [None]
    else:
        assert len(builds) == 1 and builds[0][0][2].tobytes() == desk_scene.points[:rows].tobytes()
        assert len(masks) == 1 and masks[0][0] is builds[0][1] and masks[0][1].shape == (rows, 12)
        assert len(slices) == len(passes) and all(given.base is masks[0][1] for given in slices)
        assert np.concatenate(slices).tobytes() == masks[0][1].tobytes()


def test_one_deployment_reaches_every_pass_shared_with_one_table(desk_scene, monkeypatch):
    """``evaluate_coverage`` hands each pass the deployment's own (1, K, ...) plates, not a gathered copy.

    Its one (1, K, K) table feeds one blocked mask, which every pass slices.
    """
    deployment = generate_random(desk_scene, 12, 0)
    whole = evaluate_coverage(desk_scene, deployment).p_n
    monkeypatch.setattr(coverage_module, "_CHUNK_ELEMENTS", 7 * 72 * 12)  # 7-row passes
    passes = spy_gate_core(monkeypatch)
    masks, slices = spy_blocked_masks(monkeypatch)
    assert evaluate_coverage(desk_scene, deployment).p_n.tobytes() == whole.tobytes()
    assert [rows for rows, _, _ in passes] == [7] * 6 + [6]
    own = (deployment.positions, deployment.normals, deployment.nu)
    for _, _, plates in passes:
        assert plates.positions.shape == (1, 12, 3)
        assert all(np.shares_memory(given, field) for given, field in zip(plates[:3], own))
    assert len(masks) == 1 and masks[0][0].shape == (1, 12, 12)
    assert [given.shape for given in slices] == [(7, 12)] * 6 + [(6, 12)]
    assert all(given.base is masks[0][1] for given in slices)


@pytest.mark.parametrize("sets, rows", [(3, 4), (2, 5), (4, 2), (0, 3)])
def test_plate_sets_must_split_the_rows_into_equal_runs(sets, rows):
    grid = OrientationGrid.from_cells(4, 2)
    params = CoverageParams(thold=0.0, delta=4.0, n=1)
    plates = PlateRows(np.full((sets, 1, 3), 200.0), np.full((sets, 1, 3), -1.0), np.full((sets, 1), 10.0))
    points = np.zeros((rows, 3))
    with pytest.raises(ValueError, match=f"^{sets} plate sets do not split {rows} rows into equal runs$"):
        cell_counts(points, plates, grid, TABLE3, params)
    with pytest.raises(ValueError, match=f"^{sets} plate sets do not split {rows} rows into equal runs$"):
        strengths_grid(points, grid.rotations(), plates, TABLE3, 4.0)
    assert cell_counts(points[:0], plates, grid, TABLE3, params).shape == (0, 8)


def test_a_one_pose_call_sends_only_pairs_with_a_passing_cell_to_occlusion(desk_scene, monkeypatch):
    """A one-row call has no occluder table, so it tests only the pairs that pass a cell against all K plates."""
    plates = generate_uniform(desk_scene, 400)
    gates = (desk_scene.intrinsics, desk_scene.params.delta, desk_scene.params.thold)
    poses = np.array([pose_to_se3(Pose6(desk_scene.center + [20.0, -10.0, 5.0], yaw=y, pitch=0.2)) for y in (0.5, 2.0)])
    stacked = pose_strengths(poses, plates, *gates)
    # alone, no plate is occluded: its mask is its window and facing gates
    passing = [sum(pose_strengths(x, Deployment([lm]), *gates)[0] for lm in plates.landmarks) for x in poses]
    pairs, occluded = [], coverage_module._occluded
    monkeypatch.setattr(coverage_module, "_occluded", lambda *args: pairs.append(args[5].size) or occluded(*args))
    for x, want in zip(poses, stacked):
        assert pose_strengths(x, plates, *gates).tobytes() == want.tobytes()
    assert pairs == passing and 0 < stacked.sum(axis=1).min()
    assert all(count < len(plates) // 4 for count in passing)


def test_a_direct_cell_count_holds_one_pass_of_memory(table3_scene):
    """``cell_counts`` over Table 3's 1040 positions, 288 cells and 90 plates, under tracemalloc.

    Its (1040, 288) uint8 output is 0.3 MB; one (K, B, G) mask for all
    the rows would be 27 MB, where one pass's is at most 256 KiB.
    """
    import tracemalloc

    scene = table3_scene
    plates = generate_random(scene, 90, 0)
    call = lambda: cell_counts(scene.points, plates, scene.grid, scene.intrinsics, scene.params)  # noqa: E731
    want = call()  # first-use caches
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    tracemalloc.start()
    try:
        counts = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.tobytes() == want.tobytes() and counts.any()
    assert peak < 3_000_000


def test_a_one_pose_call_at_the_plate_cap_holds_a_few_blocks_of_memory(desk_scene, monkeypatch):
    """A one-pose ``pose_strengths`` at ``MAX_PLATES`` random desk plates, under tracemalloc.

    Its occlusion test broadcasts (targets, plates) blocks of at most 2^18
    elements, so a few 2 MiB float blocks are live at once, about 8.7 MB
    in all.
    """
    import tracemalloc

    plates = generate_random(desk_scene, MAX_PLATES, 0)
    pose = pose_to_se3(Pose6(desk_scene.center + [20.0, -10.0, 5.0], yaw=0.5, pitch=0.2))
    gates = (desk_scene.intrinsics, desk_scene.params.delta, desk_scene.params.thold)
    targets, occluded = [], coverage_module._occluded
    monkeypatch.setattr(coverage_module, "_occluded", lambda *args: targets.append(args[5].size) or occluded(*args))
    want = pose_strengths(pose, plates, *gates)  # first-use caches
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    tracemalloc.start()
    try:
        mask = pose_strengths(pose, plates, *gates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.tobytes() == want.tobytes() and mask.any()
    # 170 targets, in three blocks against all 4096 plates
    assert targets[0] == targets[1] > 2 * coverage_module._CHUNK_ELEMENTS // MAX_PLATES
    assert peak < 12_000_000
