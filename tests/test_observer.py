"""Pose observer: correction geometry, simulation loop, trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from scipy.linalg import expm

import landmark_coverage.coverage as cov
import landmark_coverage.geometry as geometry
import landmark_coverage.observer as obs
from landmark_coverage.errors import EstimateDivergedError, SchemaError, TrajectoryOutOfRegionError
from landmark_coverage.geometry import (
    Deployment,
    Pose6,
    frobenius_error,
    is_rigid_transform,
    is_twist,
    pose_to_se3,
    se3_step,
    twist,
)

from conftest import build_tiny_deployment, build_tiny_scene, run_quietly


def random_transform(rng, angle=0.5, shift=1.0):
    w = rng.normal(size=3)
    w = w / np.linalg.norm(w) * rng.uniform(0.1, angle)
    v = rng.uniform(-shift, shift, 3)
    return expm(twist(w, v))


def test_project_to_twist_properties():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    p = obs.project_to_twist(a)
    assert is_twist(p)
    u = twist([0.1, -0.2, 0.3], [1.0, 2.0, 3.0])
    assert np.array_equal(obs.project_to_twist(u), u)


def test_epsilon_vanishes_at_truth():
    rng = np.random.default_rng(1)
    x = random_transform(rng)
    c_h = np.vstack([rng.uniform(-1, 1, (3, 5)), np.ones(5)])
    eps = obs.epsilon(x, x, c_h, k_i=1.0)
    assert np.max(np.abs(eps)) < 1e-12
    assert obs.observer_cost(x, x, c_h, k_i=1.0) == 0.0
    assert np.array_equal(obs.epsilon(x, x, np.ones((4, 0)), 1.0), np.zeros((4, 4)))


def test_epsilon_is_the_cost_gradient_direction():
    rng = np.random.default_rng(2)
    x = random_transform(rng)
    x_hat = x @ expm(twist([0.2, -0.1, 0.15], [0.3, -0.2, 0.1]))
    c_h = np.vstack([rng.uniform(-1, 1, (3, 5)), np.ones(5)])
    eps = obs.epsilon(x_hat, x, c_h, k_i=1.0)
    xi = rng.normal(size=6)
    xi /= np.linalg.norm(xi)
    direction = twist(xi[:3], xi[3:])
    predicted = float(np.sum(eps * direction))
    h = 1e-6
    moved = x_hat @ expm(direction * h)
    fd = (obs.observer_cost(moved, x, c_h, 1.0) - obs.observer_cost(x_hat, x, c_h, 1.0)) / h
    assert math.isclose(fd, predicted, rel_tol=1e-4, abs_tol=1e-9)


def test_descent_step_reduces_cost():
    rng = np.random.default_rng(3)
    x = random_transform(rng)
    x_hat = x @ expm(twist([0.25, 0.1, -0.2], [0.2, 0.4, -0.3]))
    c_h = np.vstack([rng.uniform(-1, 1, (3, 5)), np.ones(5)])
    cfg = obs.ObserverConfig(k_i=0.5, dt=0.01)
    before = obs.observer_cost(x_hat, x, c_h, cfg.k_i)
    stepped = obs.observer_step(x_hat, x, np.zeros((4, 4)), c_h, cfg)
    after = obs.observer_cost(stepped, x, c_h, cfg.k_i)
    assert after < before


def test_outputs_and_injection():
    rng = np.random.default_rng(4)
    x = random_transform(rng)
    c_h = np.vstack([rng.uniform(-1, 1, (3, 4)), np.ones(4)])
    y = obs.outputs(x, c_h)
    assert y.shape == (4,)
    assert math.isclose(y[3], 4.0, rel_tol=1e-12)  # homogeneous rows sum to K
    assert np.array_equal(obs.injection(x, x, c_h, k0=0.0), np.zeros((4, 4)))
    x_hat = x @ expm(twist([0.1, 0.0, -0.1], [0.2, 0.0, 0.0]))
    inj = obs.injection(x_hat, x, c_h, k0=0.5)
    assert is_twist(inj)
    assert np.max(np.abs(inj)) > 0.0


def numpy_reference_step(x_hat, x, u, c_h, cfg):
    correction = obs.epsilon(x_hat, x, c_h, cfg.k_i) + obs.injection(x_hat, x, c_h, cfg.k0)
    return se3_step(x_hat, u - correction, cfg.dt)


def assert_close_to_reference(step, reference):
    assert np.abs(step - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("k0", [0.0, 3e-3])
def test_observer_step_matches_the_numpy_reference(k0):
    rng = np.random.default_rng(11)
    cfg = obs.ObserverConfig(k_i=2e-4, k0=k0, dt=0.01)
    for _ in range(50):
        x = random_transform(rng, angle=3.0, shift=80.0)
        x_hat = x @ random_transform(rng, angle=0.3, shift=5.0)
        k = int(rng.integers(1, 25))
        c_h = np.vstack([rng.uniform(-100.0, 100.0, (3, k)), np.ones(k)])
        u = twist(rng.normal(size=3), rng.normal(size=3) * 20.0)
        step = obs.observer_step(x_hat, x, u, c_h, cfg)
        assert_close_to_reference(step, numpy_reference_step(x_hat, x, u, c_h, cfg))
        # the correction moves the step far beyond that tolerance
        assert np.abs(step - se3_step(x_hat, u, cfg.dt)).max() > 1e-6


def test_observer_step_with_no_visible_plate_is_the_uncorrected_step():
    rng = np.random.default_rng(12)
    x = random_transform(rng)
    x_hat = x @ random_transform(rng)
    u = twist([0.3, -0.1, 0.2], [1.0, 2.0, -3.0])
    cfg = obs.ObserverConfig(k_i=0.5, k0=0.2, dt=0.01)
    step = obs.observer_step(x_hat, x, u, np.ones((4, 0)), cfg)
    assert np.array_equal(step, se3_step(x_hat, u, cfg.dt))


def test_observer_step_reorthonormalizes_a_drifted_estimate():
    rng = np.random.default_rng(13)
    x = random_transform(rng, shift=50.0)
    x_hat = x @ random_transform(rng, shift=3.0)
    x_hat[:3, :3] *= 1.0 + 3e-9  # past the drift threshold after one product
    c_h = np.vstack([rng.uniform(-100.0, 100.0, (3, 6)), np.ones(6)])
    u = twist([0.2, 0.1, -0.3], [4.0, -2.0, 1.0])
    cfg = obs.ObserverConfig(k_i=2e-4, k0=1e-3, dt=0.01)
    step = obs.observer_step(x_hat, x, u, c_h, cfg)
    assert is_rigid_transform(step, tol=1e-12)
    assert_close_to_reference(step, numpy_reference_step(x_hat, x, u, c_h, cfg))


def test_observer_step_depends_on_the_visible_set_not_its_size():
    rng = np.random.default_rng(14)
    x = random_transform(rng, shift=50.0)
    x_hat = x @ random_transform(rng, shift=3.0)
    c_h = np.vstack([rng.uniform(-100.0, 100.0, (3, 6)), np.ones(6)])
    u = np.zeros((4, 4))
    cfg = obs.ObserverConfig(k_i=2e-4, dt=0.01)
    first, second = c_h[:, [0, 1, 2]], c_h[:, [3, 4, 5]]
    step_a = obs.observer_step(x_hat, x, u, first, cfg)
    step_b = obs.observer_step(x_hat, x, u, second, cfg)
    assert np.abs(step_a - step_b).max() > 1e-6
    assert_close_to_reference(step_b, numpy_reference_step(x_hat, x, u, second, cfg))


def test_observer_config_validation():
    with pytest.raises(ValueError):
        obs.ObserverConfig(k_i=-1.0)
    with pytest.raises(ValueError):
        obs.ObserverConfig(dt=0.0)
    with pytest.raises(ValueError):
        obs.ObserverConfig(visibility="x-ray")


def test_trajectory_spec_step_twists():
    x0 = np.eye(4)
    u = twist([0.0, 0.0, 0.1], [1.0, 0.0, 0.0])
    spec = obs.TrajectorySpec(initial=x0, segments=[(0.5, u), (0.25, 2 * u)])
    assert math.isclose(spec.duration, 0.75, rel_tol=1e-12)
    steps, poses = spec.sample(0.01)
    assert len(steps) == 75
    assert poses.shape == (76, 4, 4)
    assert np.array_equal(poses[0], x0)
    assert np.array_equal(steps[0], u)
    assert np.array_equal(steps[-1], 2 * u)
    with pytest.raises(ValueError):
        obs.TrajectorySpec(initial=x0, segments=[])
    with pytest.raises(ValueError):
        obs.TrajectorySpec(initial=x0, segments=[(0.0, u)])
    with pytest.raises(ValueError):
        obs.TrajectorySpec(initial=np.diag([2.0, 1.0, 1.0, 1.0]), segments=[(1.0, u)])


def test_trajectory_sample_is_a_chain_of_se3_steps_bitwise():
    x0 = pose_to_se3(Pose6([4.0, 4.0, 3.0], yaw=0.2, pitch=-0.3))
    u1 = twist([0.3, -0.2, 0.5], [1.0, 0.0, -0.5])
    u2 = twist([0.0, 0.7, -0.1], [0.0, 2.0, 0.3])
    # the last segment is shorter than one step and still takes one
    spec = obs.TrajectorySpec(initial=x0, segments=[(0.5, u1), (0.37, u2), (0.004, u1)])
    twists, poses = spec.sample(0.01)
    assert len(twists) == 50 + 37 + 1
    assert poses.shape == (len(twists) + 1, 4, 4)
    x = x0
    assert np.array_equal(poses[0], x)
    for u, pose in zip(twists, poses[1:]):
        x = se3_step(x, u, 0.01)
        assert np.array_equal(pose, x)


def test_walk_segment_ends_are_the_sampled_poses(monkeypatch):
    scene = build_tiny_scene()
    dt, margin = 0.02, 0.2
    calls = []
    se3_path = obs.se3_path

    def recording(x, u, dt, steps):
        path = se3_path(x, u, dt, steps)
        calls.append((np.array(x), u, path[-1].copy()))
        return path

    monkeypatch.setattr(obs, "se3_path", recording)
    walk = obs.random_walk_trajectory(
        scene, duration=3.0, seed=4, segment_duration=0.25,
        lin_speed=8.0, ang_speed=1.0, margin=margin, dt=dt,
    )
    monkeypatch.undo()
    assert len(calls) > len(walk.segments)  # some candidates were rejected
    _, poses = walk.sample(dt)
    end = 0
    for duration, u in walk.segments:
        start, end = end, end + max(1, round(duration / dt))
        checked = [last for x, v, last in calls
                   if np.array_equal(x, poses[start]) and np.array_equal(v, u)]
        assert checked and all(np.array_equal(last, poses[end]) for last in checked)
    lo, hi = scene.reachable_bounds()
    assert np.all(poses[:, :3, 3] >= lo + margin)
    assert np.all(poses[:, :3, 3] <= hi - margin)


def test_pose_strengths_matches_scalar_loop():
    from landmark_coverage.coverage import coverage_strength

    scene, deployment = room_scene_and_plates()
    pose = Pose6(scene.center + [3.0, -2.0, 1.0], yaw=0.4, pitch=-0.2)
    x = pose_to_se3(pose)
    strengths = [
        coverage_strength(k, deployment.landmarks, pose, scene.intrinsics, scene.params.delta)
        for k in range(len(deployment))
    ]
    positive = sorted(s for s in strengths if s > 0)
    assert positive and len(positive) < len(strengths)
    for thold in (0.0, positive[0], math.nextafter(positive[-1], math.inf)):
        mask = obs.pose_strengths(x, deployment, scene.intrinsics, scene.params.delta, thold)
        assert mask.dtype == bool
        assert mask.tolist() == [s > 0 and s >= thold for s in strengths]


def pose_with_axis(position, axis):
    """A pose at ``position`` whose optical axis (third rotation column) is ``axis``."""
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    e1 = np.cross(a, [0.0, 0.0, 1.0] if abs(a[2]) < 0.9 else [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    x = np.eye(4)
    x[:3, :3] = np.column_stack([e1, np.cross(a, e1), a])
    x[:3, 3] = position
    return x


def edge_poses(scene, deployment):
    """Two poses seeing plate 0 1e-9 rad inside and outside the FOV cone, and
    one pose standing on plate 1."""
    plates = deployment.positions
    position = scene.center + [3.0, -2.0, 1.0]
    u = (plates[0] - position) / np.linalg.norm(plates[0] - position)
    w = np.cross(u, [0.0, 0.0, 1.0])
    w /= np.linalg.norm(w)
    half = math.acos(scene.intrinsics.fov_cos)
    edges = [
        pose_with_axis(position, math.cos(angle) * u + math.sin(angle) * np.cross(w, u))
        for angle in (half - 1e-9, half + 1e-9)
    ]
    return edges + [pose_with_axis(plates[1], -u)]


@pytest.mark.parametrize("count_from_block", [-1, 0, 1, None])
def test_pose_stack_matches_one_pose_calls_bitwise(count_from_block):
    from landmark_coverage.coverage import coverage_strength

    scene, deployment = room_scene_and_plates()
    k = len(deployment)
    block = cov._CHUNK_ELEMENTS // (k * k)  # one optical axis per pose, fewer than k
    count = 1 if count_from_block is None else block + count_from_block
    rng = np.random.default_rng(count)
    poses = [
        Pose6(scene.center + rng.uniform(-60.0, 60.0, 3), yaw=float(rng.uniform(-3.1, 3.1)),
              pitch=float(rng.uniform(-1.5, 1.5)), roll=float(rng.uniform(-3.1, 3.1)))
        for _ in range(count)
    ]
    stack = np.array([pose_to_se3(pose) for pose in poses])
    if count > 3:
        stack[-3:] = edge_poses(scene, deployment)
    gates = (scene.intrinsics, scene.params.delta, scene.params.thold)

    masks = obs.pose_strengths(stack, deployment, *gates)
    assert masks.shape == (count, k) and masks.dtype == bool
    for start in range(0, count, 64):  # stacks of 64 poses, each one pass
        part = slice(start, start + 64)
        assert np.array_equal(masks[part], obs.pose_strengths(stack[part], deployment, *gates))
    # One-pose calls for the rows next to each pass start and the stack's end,
    # which holds the edge poses.
    edges = [*range(0, count, block), count]
    for i in {r for e in edges for r in range(e - 2, e + 3) if 0 <= r < count}:
        assert np.array_equal(masks[i], obs.pose_strengths(stack[i], deployment, *gates))
    if count > 3:
        assert 0 < masks.sum() < masks.size
        inside, outside, on_plate = masks[-3:]
        assert inside[0] and not outside[0]
        assert not on_plate[1]
    thold = scene.params.thold
    for pose, mask in list(zip(poses, masks))[:3]:
        strengths = [
            coverage_strength(j, deployment.landmarks, pose, scene.intrinsics, scene.params.delta)
            for j in range(k)
        ]
        assert mask.tolist() == [s > 0 and s >= thold for s in strengths]

    empty = obs.pose_strengths(stack, Deployment([]), *gates)
    assert empty.shape == (count, 0) and empty.dtype == bool


def test_pose_strengths_rejects_other_shapes():
    scene, deployment = room_scene_and_plates()
    gates = (scene.intrinsics, scene.params.delta)
    for shape in ((4,), (3, 4), (2, 3, 4, 4)):
        with pytest.raises(ValueError, match="pose"):
            obs.pose_strengths(np.zeros(shape), deployment, *gates)


def test_simulate_kernel_calls_stay_within_the_block_cap(monkeypatch):
    scene, deployment = room_scene_and_plates()
    calls = []
    kernel = cov._live_gates

    def spy(points, axes, landmarks, *args):
        calls.append((len(points), landmarks.nu.shape[-1]))  # one gate-core pass over PlateRows' K plates
        return kernel(points, axes, landmarks, *args)

    monkeypatch.setattr(cov, "_live_gates", spy)
    x0 = pose_to_se3(Pose6(scene.center, yaw=0.3))
    spec = obs.TrajectorySpec(initial=x0, segments=[(25.0, twist([0.0, 0.0, 0.4], [0.0, 0.0, 0.0]))])
    cfg = obs.ObserverConfig(k_i=1e-5, dt=0.01, visibility="camera-model")
    k = len(deployment)
    cap = 1000 * k * k  # 1000-pose passes, so the walk spans several
    with monkeypatch.context() as patched:
        patched.setattr(cov, "_CHUNK_ELEMENTS", cap)
        trace = obs.simulate(scene, deployment, spec, cfg)
    block = cap // (k * k)
    assert trace.t.size == 2501 and 2 * block < 2501
    assert len(calls) == -(-2501 // block)
    assert sum(b for b, _ in calls) == 2501
    assert all(1 <= b and b * plates * plates <= cap for b, plates in calls)

    # more plates than one pose's share of the cap: still one pose per call
    import landmark_coverage.deployment as dep

    count = math.isqrt(cov._CHUNK_ELEMENTS) + 1
    many = dep.generate_uniform(scene, count)
    assert count * count > cov._CHUNK_ELEMENTS
    calls.clear()
    obs.pose_strengths(trace.x[:5], many, scene.intrinsics, scene.params.delta, scene.params.thold)
    assert calls == [(1, count)] * 5


@pytest.mark.parametrize(
    "visibility, from_estimate",
    [("camera-model", False), ("camera-model", True), ("ideal", False)],
)
def test_simulate_matches_the_per_step_loop_bitwise(visibility, from_estimate):
    scene, deployment = room_scene_and_plates()
    walk = obs.random_walk_trajectory(
        scene, duration=2.0, seed=5, segment_duration=0.25, lin_speed=20.0, ang_speed=1.5,
    )
    x_hat = walk.initial @ expm(twist([0.05, -0.04, 0.03], [2.0, -1.0, 1.5]))
    cfg = obs.ObserverConfig(
        k_i=2e-5, dt=0.01, visibility=visibility, use_estimate_for_visibility=from_estimate
    )
    trace = obs.simulate(scene, deployment, walk, cfg, x_hat0=x_hat)

    # the observer loop with one visibility call per step
    k = len(deployment)
    c_h = np.vstack([deployment.positions.T, np.ones(k)])
    gates = (deployment, scene.intrinsics, scene.params.delta, scene.params.thold)
    twists, xs = walk.sample(cfg.dt)
    assert np.array_equal(trace.x, xs)
    for i, x in enumerate(xs):
        assert np.array_equal(trace.x_hat[i], x_hat)
        assert trace.er[i] == frobenius_error(x_hat, x)
        if visibility == "ideal":
            mask = np.ones(k, dtype=bool)
        else:
            mask = obs.pose_strengths(x_hat if from_estimate else x, *gates)
        assert np.array_equal(trace.visible[i], mask)
        assert trace.qualified[i] == (int(mask.sum()) >= scene.params.n)
        if i < len(twists):
            x_hat = obs.observer_step(x_hat, x, twists[i], c_h[:, mask], cfg)
    if visibility == "camera-model":
        assert 0 < trace.visible.sum() < trace.visible.size


@pytest.mark.parametrize("from_estimate", [False, True], ids=["true-pose", "estimate"])
@pytest.mark.parametrize("k0", [0.0, 0.5])
def test_simulate_replays_failed_blocks_exactly(monkeypatch, from_estimate, k0):
    """With a tolerance of a few ulps projections fire inside every block, and each block is taken again.

    The trace still equals the chain of ``observer_step`` calls, with
    visibility from the true pose or from the estimate, bit for bit.
    """
    monkeypatch.setattr(geometry, "_ORTHO_DRIFT_TOL", 4e-16)
    scene, deployment = room_scene_and_plates()
    walk = obs.random_walk_trajectory(
        scene, duration=6.0, seed=5, segment_duration=0.25, lin_speed=20.0, ang_speed=1.5,
    )
    x_hat = walk.initial @ expm(twist([0.05, -0.04, 0.03], [2.0, -1.0, 1.5]))
    cfg = obs.ObserverConfig(
        k_i=2e-5, k0=k0, dt=0.01, visibility="camera-model", use_estimate_for_visibility=from_estimate
    )
    projections, project = [], geometry.project_to_rotation
    monkeypatch.setattr(geometry, "project_to_rotation", lambda r: projections.append(r) or project(r))
    trace = obs.simulate(scene, deployment, walk, cfg, x_hat0=x_hat)
    assert len(trace.t) > 2 * obs._ERROR_BLOCK and projections

    k = len(deployment)
    c_h = np.vstack([deployment.positions.T, np.ones(k)])
    gates = (deployment, scene.intrinsics, scene.params.delta, scene.params.thold)
    twists, xs = walk.sample(cfg.dt)
    for i, x in enumerate(xs):
        assert np.array_equal(trace.x_hat[i], x_hat)
        mask = obs.pose_strengths(x_hat if from_estimate else x, *gates)
        assert np.array_equal(trace.visible[i], mask)
        if i < len(twists):
            x_hat = obs.observer_step(x_hat, x, twists[i], c_h[:, mask], cfg)
    assert 0 < trace.visible.sum() < trace.visible.size


def test_an_overflow_inside_a_block_keeps_the_checked_steps_before_it(monkeypatch):
    """A step whose twist overflows ends the run there; the steps before it are the checked chain's.

    Step 300 lies inside the second block. With a tolerance of a few ulps
    the rows before it fail the block check, so they are taken again with
    the checked compose before the run is cut.
    """
    monkeypatch.setattr(geometry, "_ORTHO_DRIFT_TOL", 4e-16)
    scene, deployment = room_scene_and_plates()
    walk = obs.random_walk_trajectory(
        scene, duration=4.0, seed=5, segment_duration=0.25, lin_speed=20.0, ang_speed=1.5,
    )
    x_hat = walk.initial @ expm(twist([0.05, -0.04, 0.03], [2.0, -1.0, 1.5]))
    cfg = obs.ObserverConfig(k_i=2e-5, dt=0.01, visibility="camera-model")
    twists, xs = walk.sample(cfg.dt)
    overflowing = obs._inverse_rows(xs[300:301])[0]
    step = obs._estimate_step

    def overflow_at_step_300(xh, xi, *args):
        if xi == overflowing:
            raise ValueError("math domain error")
        return step(xh, xi, *args)

    monkeypatch.setattr(obs, "_estimate_step", overflow_at_step_300)
    blocks, error = [], obs.frobenius_error
    monkeypatch.setattr(obs, "frobenius_error", lambda x_hat, x: blocks.append(x_hat.copy()) or error(x_hat, x))
    with pytest.raises(EstimateDivergedError, match=r"at step 301 \(t=3\.0100\)"):
        obs.simulate(scene, deployment, walk, cfg, x_hat0=x_hat)
    x_hats = np.concatenate(blocks)
    assert np.isnan(x_hats[301:]).all()

    k = len(deployment)
    c_h = np.vstack([deployment.positions.T, np.ones(k)])
    gates = (deployment, scene.intrinsics, scene.params.delta, scene.params.thold)
    for i in range(301):
        assert np.array_equal(x_hats[i], x_hat)
        if i < 300:
            mask = obs.pose_strengths(xs[i], *gates)
            x_hat = obs.observer_step(x_hat, xs[i], twists[i], c_h[:, mask], cfg)


# tracemalloc's peak for one bench-sized simulate call, in bytes, measured
# with numpy 2.4 at f2ee8be, the commit before the loop ran in blocks; the
# trace's arrays and the gate core's passes for 3001 poses are most of it.
PARENT_SIMULATE_PEAK_BYTES = 1_703_712


def test_simulate_holds_one_block_of_rows():
    """A 30 s desk run, with the benchmark's inputs for seed 0, under tracemalloc.

    The walk and the 24 uniform plates are built first, as the benchmark's
    desk-simulate workload builds them. The traced peak of ``simulate``
    stays within 10% of the value recorded above: a loop that held the
    whole run's Python rows would add about 1.3 MB.
    """
    import tracemalloc

    import landmark_coverage.deployment as dep
    from conftest import CONFIG_DIR

    scene = dep.load_scene(CONFIG_DIR / "desk_room.json")
    deployment = dep.generate_uniform(scene, 24)
    rng = np.random.default_rng(0)
    position = scene.center + rng.uniform(-1.0, 1.0, 3) * np.array([30.0, 30.0, 10.0])
    yaw, pitch = float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(-0.5, 0.5))
    walk = obs.random_walk_trajectory(
        scene, duration=30.0, seed=0, segment_duration=0.5, lin_speed=40.0, ang_speed=2.0,
        initial=pose_to_se3(Pose6(position, yaw=yaw, pitch=pitch)), margin=10.0,
    )
    x_hat0 = pose_to_se3(Pose6(
        position + np.array([3.0, -2.0, 2.0]), yaw=geometry.wrap_angle(yaw + 0.15), pitch=pitch - 0.1, roll=0.1,
    ))
    cfg = obs.ObserverConfig(k_i=2e-5, dt=0.01, visibility="camera-model")
    obs.simulate(scene, deployment, walk, cfg, x_hat0=x_hat0)  # first-use caches
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trace = obs.simulate(scene, deployment, walk, cfg, x_hat0=x_hat0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert trace.t.size == 3001
    assert 0.5 * PARENT_SIMULATE_PEAK_BYTES < peak <= 1.1 * PARENT_SIMULATE_PEAK_BYTES


def test_simulate_steps_by_the_visible_set_not_its_size():
    """Steps with equally many but different visible plates get their own correction."""
    import landmark_coverage.deployment as dep
    from conftest import CONFIG_DIR

    scene = dep.load_scene(CONFIG_DIR / "desk_room.json")
    deployment = dep.generate_uniform(scene, 24)
    walk = obs.random_walk_trajectory(
        scene, duration=2.0, seed=2, lin_speed=40.0, ang_speed=2.0, margin=10.0,
    )
    x_hat0 = walk.initial @ expm(twist([0.05, -0.04, 0.03], [2.0, -1.0, 1.5]))
    cfg = obs.ObserverConfig(k_i=2e-5, dt=0.01, visibility="camera-model")
    trace = obs.simulate(scene, deployment, walk, cfg, x_hat0=x_hat0)
    sets = {}
    for mask in trace.visible[:-1]:
        sets.setdefault(int(mask.sum()), set()).add(mask.tobytes())
    assert any(len(masks) > 1 for size, masks in sets.items() if size > 0)

    k = len(deployment)
    c_h = np.vstack([deployment.positions.T, np.ones(k)])
    twists, xs = walk.sample(cfg.dt)
    x_hat = x_hat0
    for i, u in enumerate(twists):
        x_hat = obs.observer_step(x_hat, xs[i], u, c_h[:, trace.visible[i]], cfg)
        assert np.array_equal(trace.x_hat[i + 1], x_hat)


def test_simulate_static_ideal_converges(tiny_scene, tiny_deployment):
    x0 = pose_to_se3(Pose6(tiny_scene.center, yaw=0.3, pitch=-0.1))
    spec = obs.TrajectorySpec(initial=x0, segments=[(3.0, np.zeros((4, 4)))])
    x_hat0 = x0 @ expm(twist([0.1, -0.08, 0.12], [0.05, -0.04, 0.06]))
    cfg = obs.ObserverConfig(k_i=0.5, dt=0.01, visibility="ideal")
    trace = obs.simulate(tiny_scene, tiny_deployment, spec, cfg, x_hat0=x_hat0)
    assert trace.t.size == 301
    assert trace.er[0] == frobenius_error(x_hat0, x0)
    assert trace.er[-1] < 1e-8
    diffs = np.diff(trace.er)
    assert np.all(diffs < 0.0)  # strictly decreasing all the way down
    assert np.array_equal(trace.x[0], x0)
    assert trace.final_error == trace.er[-1]


def test_simulate_open_loop_keeps_left_error(tiny_scene, tiny_deployment):
    # With zero gains the estimate integrates the same twist, so the left
    # error X_hat X^-1 stays constant while both poses move.
    x0 = pose_to_se3(Pose6(tiny_scene.center))
    offset = expm(twist([0.05, -0.02, 0.04], [0.0, 0.0, 0.0]))
    spec = obs.TrajectorySpec(
        initial=x0, segments=[(1.0, twist([0.0, 0.0, 0.3], [0.4, 0.0, 0.2]))]
    )
    cfg = obs.ObserverConfig(k_i=0.0, dt=0.01, visibility="ideal")
    trace = obs.simulate(tiny_scene, tiny_deployment, spec, cfg, x_hat0=offset @ x0)
    from landmark_coverage.geometry import se3_inverse

    first = trace.x_hat[0] @ se3_inverse(trace.x[0])
    last = trace.x_hat[-1] @ se3_inverse(trace.x[-1])
    assert np.allclose(first, last, atol=1e-9)
    assert trace.er[-1] > 0.0


def test_simulate_out_of_region_raises(tiny_scene, tiny_deployment):
    x0 = pose_to_se3(Pose6(tiny_scene.center))
    runaway = obs.TrajectorySpec(
        initial=x0, segments=[(5.0, twist([0.0, 0.0, 0.0], [10.0, 0.0, 0.0]))]
    )
    cfg = obs.ObserverConfig(k_i=0.5, dt=0.01)
    with pytest.raises(TrajectoryOutOfRegionError, match="t="):
        obs.simulate(tiny_scene, tiny_deployment, runaway, cfg)


def test_simulate_rejects_bad_estimate(tiny_scene, tiny_deployment):
    x0 = pose_to_se3(Pose6(tiny_scene.center))
    spec = obs.TrajectorySpec(initial=x0, segments=[(0.1, np.zeros((4, 4)))])
    cfg = obs.ObserverConfig()
    with pytest.raises(ValueError, match="initial estimate"):
        obs.simulate(tiny_scene, tiny_deployment, spec, cfg, x_hat0=np.diag([2.0, 1, 1, 1]))


def test_simulate_accepts_exponential_map_estimates(tiny_scene, tiny_deployment):
    # expm of a twist with a sizable linear part leaves ~1e-18 residue on
    # the affine row; the estimate check must not reject that
    x0 = pose_to_se3(Pose6(tiny_scene.center))
    spec = obs.TrajectorySpec(initial=x0, segments=[(0.05, np.zeros((4, 4)))])
    x_hat0 = x0 @ expm(twist([0.12, -0.1, 0.08], [3.0, -2.0, 1.0]))
    assert not np.array_equal(x_hat0[3], [0.0, 0.0, 0.0, 1.0])
    trace = obs.simulate(tiny_scene, tiny_deployment, spec, obs.ObserverConfig(), x_hat0=x_hat0)
    assert trace.er[0] > 0


def room_scene_and_plates():
    """A room-scale scene where only some plates are measurable per pose."""
    import landmark_coverage.deployment as dep
    from landmark_coverage.coverage import CoverageParams
    from landmark_coverage.geometry import CameraIntrinsics

    intr = CameraIntrinsics(
        f=5.0, s_u=0.0058, s_v=0.0058, o_u=800, o_v=600,
        width=1600, height=1200, d_a=10.0, d_s=1778.0,
    )
    scene = dep.make_scene(
        (300.0, 200.0, 250.0),
        (200.0, 100.0, 150.0),
        (2, 2, 2),
        intrinsics=intr,
        params=CoverageParams(thold=0.2, delta=4.0, n=1),
        thold_p=0.3,
        n_yaw=8,
        n_pitch=4,
    )
    return scene, dep.generate_uniform(scene, 6)


def test_simulate_camera_model_masks_measurements():
    scene, deployment = room_scene_and_plates()
    pose = Pose6(scene.center, yaw=0.3)
    x0 = pose_to_se3(pose)
    spec = obs.TrajectorySpec(initial=x0, segments=[(0.2, np.zeros((4, 4)))])
    cfg = obs.ObserverConfig(k_i=1e-5, dt=0.01, visibility="camera-model")
    trace = obs.simulate(scene, deployment, spec, cfg)
    expected = obs.pose_strengths(
        x0, deployment, scene.intrinsics, scene.params.delta, scene.params.thold
    )
    assert np.array_equal(trace.visible[0], expected)
    assert 0 < expected.sum() < len(deployment.landmarks)
    assert trace.qualified[0] == (expected.sum() >= scene.params.n)


def test_simulate_camera_model_without_plates():
    scene, _ = room_scene_and_plates()
    x0 = pose_to_se3(Pose6(scene.center, yaw=0.3))
    spec = obs.TrajectorySpec(initial=x0, segments=[(0.05, np.zeros((4, 4)))])
    cfg = obs.ObserverConfig(k_i=1e-5, dt=0.01, visibility="camera-model")
    trace = obs.simulate(scene, Deployment([]), spec, cfg)
    steps, _ = spec.sample(cfg.dt)
    assert trace.visible.shape == (len(steps) + 1, 0)
    assert not trace.qualified.any()


def test_simulate_visibility_from_estimate():
    scene, deployment = room_scene_and_plates()
    x0 = pose_to_se3(Pose6(scene.center, yaw=0.3))
    x_hat0 = pose_to_se3(Pose6(scene.center, yaw=-2.8))
    spec = obs.TrajectorySpec(initial=x0, segments=[(0.05, np.zeros((4, 4)))])
    cfg = obs.ObserverConfig(
        k_i=1e-5, dt=0.01, visibility="camera-model", use_estimate_for_visibility=True
    )
    trace = obs.simulate(scene, deployment, spec, cfg, x_hat0=x_hat0)
    from_estimate = obs.pose_strengths(
        x_hat0, deployment, scene.intrinsics, scene.params.delta, scene.params.thold
    )
    from_truth = obs.pose_strengths(
        x0, deployment, scene.intrinsics, scene.params.delta, scene.params.thold
    )
    assert np.array_equal(trace.visible[0], from_estimate)
    assert not np.array_equal(from_estimate, from_truth)


def test_random_walk_stays_inside_and_is_deterministic():
    scene = build_tiny_scene()
    walk1 = obs.random_walk_trajectory(
        scene, duration=2.0, seed=8, segment_duration=0.25,
        lin_speed=2.0, ang_speed=0.5, margin=0.2,
    )
    walk2 = obs.random_walk_trajectory(
        scene, duration=2.0, seed=8, segment_duration=0.25,
        lin_speed=2.0, ang_speed=0.5, margin=0.2,
    )
    assert len(walk1.segments) == len(walk2.segments) == 8
    for (d1, u1), (d2, u2) in zip(walk1.segments, walk2.segments):
        assert d1 == d2 and np.array_equal(u1, u2)
    assert math.isclose(walk1.duration, 2.0, rel_tol=1e-12)
    # Containment is enforced by simulate(); an open-loop run must not raise.
    deployment = build_tiny_deployment(scene)
    cfg = obs.ObserverConfig(k_i=0.0, dt=0.01, visibility="ideal")
    trace = obs.simulate(scene, deployment, walk1, cfg)
    lo, hi = scene.reachable_bounds()
    assert np.all(trace.x[:, :3, 3] >= lo - 1e-9)
    assert np.all(trace.x[:, :3, 3] <= hi + 1e-9)


def test_random_walk_draws_initial_orientation_from_seed():
    scene = build_tiny_scene()
    kw = dict(duration=0.5, segment_duration=0.25, lin_speed=2.0, ang_speed=0.5)
    walk_a = obs.random_walk_trajectory(scene, seed=1, **kw)
    walk_b = obs.random_walk_trajectory(scene, seed=1, **kw)
    walk_c = obs.random_walk_trajectory(scene, seed=2, **kw)
    assert np.array_equal(walk_a.initial, walk_b.initial)
    assert not np.allclose(walk_a.initial[:3, :3], walk_c.initial[:3, :3])
    assert np.allclose(walk_a.initial[:3, 3], scene.center)
    # an explicit pose suppresses the draw
    fixed = pose_to_se3(Pose6(scene.center, yaw=0.1))
    walk_d = obs.random_walk_trajectory(scene, seed=1, initial=fixed, **kw)
    assert np.array_equal(walk_d.initial, fixed)


def test_random_walk_validation():
    scene = build_tiny_scene()
    with pytest.raises(ValueError):
        obs.random_walk_trajectory(scene, duration=0.0, seed=0)
    with pytest.raises(ValueError):
        obs.random_walk_trajectory(scene, duration=1.0, seed=0, margin=10.0)


@pytest.mark.parametrize("argument, value", [
    ("margin", math.nan),
    ("margin", math.inf),
    ("lin_speed", math.nan),
    ("lin_speed", -1.0),
    ("lin_speed", math.inf),
    ("ang_speed", math.nan),
    ("ang_speed", -0.5),
    ("duration", math.nan),
    ("segment_duration", math.nan),
    ("dt", math.nan),
])
def test_random_walk_names_a_bad_argument(argument, value):
    scene = build_tiny_scene()
    kw = dict(duration=0.5, seed=0, segment_duration=0.25, lin_speed=2.0, ang_speed=0.5)
    kw[argument] = value
    with pytest.raises(ValueError, match=argument):
        obs.random_walk_trajectory(scene, **kw)


def test_random_walk_refuses_an_ang_speed_that_overflows():
    scene = build_tiny_scene()
    with pytest.raises(ValueError, match=r"ang_speed: .* overflows \|omega \* dt\|\^2"):
        obs.random_walk_trajectory(scene, duration=0.5, seed=0, ang_speed=1e308)


def test_sample_refuses_a_segment_rate_that_overflows():
    still = np.zeros((4, 4))
    spec = obs.TrajectorySpec(
        initial=np.eye(4), segments=[(0.1, still), (0.1, twist([1e308, 0.0, 0.0], [0.0, 0.0, 0.0]))]
    )
    with pytest.raises(ValueError, match=r"segment 1: .* overflows \|omega \* dt\|\^2"):
        spec.sample(0.01)
    # a rate whose |omega * dt|^2 stays finite still integrates
    spec = obs.TrajectorySpec(initial=np.eye(4), segments=[(0.1, twist([1e150, 0.0, 0.0], [0.0, 0.0, 0.0]))])
    assert spec.sample(0.01)[1].shape == (11, 4, 4)


def test_walk_sample_returns_the_checked_poses(monkeypatch):
    """A walk sampled at its own dt integrates nothing again, and equals a fresh integration."""
    scene = build_tiny_scene()
    dt = 0.02
    walk = obs.random_walk_trajectory(
        scene, duration=1.5, seed=6, segment_duration=0.25, lin_speed=4.0, ang_speed=1.0, margin=0.1, dt=dt,
    )
    fresh = obs.TrajectorySpec(initial=walk.initial, segments=walk.segments)
    se3_path = obs.se3_path
    calls = []

    def counting(x, u, dt, steps):
        calls.append(steps)
        return se3_path(x, u, dt, steps)

    monkeypatch.setattr(obs, "se3_path", counting)
    twists, poses = walk.sample(dt)
    assert calls == [] and not poses.flags.writeable
    expected_twists, expected = fresh.sample(dt)
    assert calls == [round(duration / dt) for duration, _ in walk.segments]
    assert poses.tobytes() == expected.tobytes()
    assert len(twists) == len(expected_twists)
    assert all(np.array_equal(u, v) for u, v in zip(twists, expected_twists))

    # another step size integrates the segments
    calls.clear()
    _, finer = walk.sample(dt / 2)
    assert calls == [round(duration / (dt / 2)) for duration, _ in walk.segments]
    assert finer.tobytes() == fresh.sample(dt / 2)[1].tobytes()


def test_random_walk_containment_rejects_a_nan_position(monkeypatch):
    """A segment whose positions are not all inside (NaN included) is redrawn."""
    scene = build_tiny_scene()
    se3_path = obs.se3_path

    def nan_first(x, u, dt, steps):
        path = se3_path(x, u, dt, steps)
        if not calls:
            path[0, 0, 3] = math.nan
        calls.append(steps)
        return path

    calls = []
    monkeypatch.setattr(obs, "se3_path", nan_first)
    walk = obs.random_walk_trajectory(
        scene, duration=0.25, seed=3, segment_duration=0.25, lin_speed=2.0, ang_speed=0.5,
    )
    assert len(calls) == 2 and len(walk.segments) == 1


def test_trajectory_json_piecewise(tiny_scene):
    doc = {
        "schema": 1,
        "initial": {"position": [4.0, 4.0, 3.0], "yaw": 0.2},
        "segments": [
            {"duration_s": 0.5, "velocity_cm_s": [0.5, 0.0, 0.0]},
            {"duration_s": 0.25, "omega_rad_s": [0.0, 0.0, 0.4]},
        ],
        "initial_estimate": {"position": [4.0, 4.0, 3.0], "yaw": 0.3},
    }
    spec, x_hat0 = obs.trajectory_from_json(doc, tiny_scene, 0.01)
    assert len(spec.segments) == 2
    assert np.array_equal(spec.initial, pose_to_se3(Pose6([4.0, 4.0, 3.0], yaw=0.2)))
    assert np.array_equal(x_hat0, pose_to_se3(Pose6([4.0, 4.0, 3.0], yaw=0.3)))
    assert np.array_equal(spec.segments[0][1], twist([0, 0, 0], [0.5, 0, 0]))


def test_trajectory_json_random_walk(tiny_scene):
    doc = {
        "schema": 1,
        "random_walk": {
            "duration_s": 1.0,
            "seed": 3,
            "segment_duration_s": 0.25,
            "lin_speed_cm_s": 2.0,
            "ang_speed_rad_s": 0.4,
            "margin_cm": 0.2,
        },
    }
    spec, x_hat0 = obs.trajectory_from_json(doc, tiny_scene, 0.01)
    assert x_hat0 is None
    direct = obs.random_walk_trajectory(
        tiny_scene, duration=1.0, seed=3, segment_duration=0.25,
        lin_speed=2.0, ang_speed=0.4, margin=0.2,
    )
    assert len(spec.segments) == len(direct.segments)
    for (d1, u1), (d2, u2) in zip(spec.segments, direct.segments):
        assert d1 == d2 and np.array_equal(u1, u2)


def test_trajectory_json_errors(tiny_scene):
    with pytest.raises(SchemaError, match="schema version"):
        obs.trajectory_from_json({"schema": 2}, tiny_scene, 0.01)
    with pytest.raises(SchemaError, match="random_walk"):
        obs.trajectory_from_json({"schema": 1, "random_walk": {"seed": 1}}, tiny_scene, 0.01)
    with pytest.raises(SchemaError, match="requires 'initial'"):
        obs.trajectory_from_json({"schema": 1}, tiny_scene, 0.01)
    doc = {
        "schema": 1,
        "initial": {"position": [4.0, 4.0, 3.0]},
        "segments": [{"duration_s": 0.5, "omega_rad_s": [0.0, 0.0]}],
    }
    with pytest.raises(SchemaError, match="3-array"):
        obs.trajectory_from_json(doc, tiny_scene, 0.01)
    doc = {"schema": 1, "initial": {"yaw": 0.1}, "segments": [{"duration_s": 0.5}]}
    with pytest.raises(SchemaError, match="position"):
        obs.trajectory_from_json(doc, tiny_scene, 0.01)


def test_trace_ratio_properties():
    trace = obs.ObserverTrace(
        t=np.arange(4) * 0.01,
        x=np.zeros((4, 4, 4)),
        x_hat=np.zeros((4, 4, 4)),
        er=np.array([4.0, 3.0, 2.0, 1.0]),
        visible=np.ones((4, 2), dtype=bool),
        qualified=np.array([True, True, False, False]),
    )
    assert trace.qualified_time_ratio == 0.5
    assert trace.final_error == 1.0


# ---------------------------------------------------------------------------
# Fuzzed trajectory documents

BAD_NUMBERS = [None, "0.1", True, [], {}, math.inf, -math.inf, math.nan, 10**400]
# besides non-numbers: not positive, not whole 0.01 s steps, or above the step cap
BAD_DURATIONS = BAD_NUMBERS + [0, -0.5, 0.015, 1e8, 1e300]


def _value(good, bad):
    return st.one_of(good, good, good, st.sampled_from(bad))


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


def _vector(bound):
    good = st.lists(_floats(-bound, bound), min_size=3, max_size=3)
    return _value(good, [[0.0, 0.0], ["0", 0, 0], [0.0, 0.0, math.nan], "0", None])


def _pose(center):
    """A pose within 20 cm of ``center``, or a malformed one."""
    position = st.lists(_floats(-20.0, 20.0), min_size=3, max_size=3).map(
        lambda offset: [float(c + o) for c, o in zip(center, offset)]
    )
    return st.fixed_dictionaries(
        {"position": _value(position, [None, [1.0, 2.0], ["1", 2.0, 3.0], [math.nan, 0.0, 0.0]])},
        optional={name: _value(_floats(-4.0, 4.0), BAD_NUMBERS) for name in ("yaw", "pitch", "roll")},
    )


def trajectory_documents(center):
    """Segment and random-walk documents, each field well formed or not.

    Well-formed documents stay at most 20 + 0.4 s x 100 cm/s = 60 cm from
    the desk center, inside the reachable region, so simulate exits 0 on
    them; a random walk keeps to the region by construction.
    """
    duration = _value(st.sampled_from([0.01, 0.05, 0.1]), BAD_DURATIONS)
    segment = st.fixed_dictionaries(
        {"duration_s": duration},
        optional={"omega_rad_s": _vector(2.0), "velocity_cm_s": _vector(100.0 / math.sqrt(3.0))},
    )
    segments = st.fixed_dictionaries(
        {"schema": _value(st.just(1), [2, "1", True, None]),
         "initial": _pose(center),
         "segments": _value(st.lists(segment, min_size=1, max_size=4), [[], {}, None])},
        optional={"initial_estimate": _pose(center)},
    )
    walk = st.fixed_dictionaries(
        {"duration_s": _value(st.sampled_from([0.05, 0.1, 0.3]), BAD_DURATIONS),
         "seed": _value(st.integers(-3, 2**40), [None, 1.5, "1", True])},
        optional={
            "segment_duration_s": _value(st.sampled_from([0.05, 0.1, 0.25]), BAD_DURATIONS),
            "lin_speed_cm_s": _value(_floats(0.0, 200.0), BAD_NUMBERS),
            "ang_speed_rad_s": _value(_floats(0.0, 4.0), BAD_NUMBERS),
            "margin_cm": _value(_floats(0.0, 50.0), BAD_NUMBERS + [1000.0]),
            "dt_s": _value(st.just(0.01), BAD_NUMBERS + [0.02]),
            "initial": _pose(center),
        },
    )
    walks = st.fixed_dictionaries({"schema": st.just(1), "random_walk": walk})
    return st.one_of(segments, walks)


@pytest.fixture(scope="module")
def desk_inputs(tmp_path_factory):
    import landmark_coverage.deployment as dep

    from conftest import CONFIG_DIR

    scene_path = CONFIG_DIR / "desk_room.json"
    scene = dep.load_scene(scene_path)
    deployment_path = tmp_path_factory.mktemp("desk") / "deployment.json"
    dep.save_deployment(deployment_path, dep.generate_uniform(scene, 6))
    return scene, scene_path, deployment_path


@settings(max_examples=80, deadline=None, database=None)
@seed(20221)
@given(data=st.data())
def test_fuzzed_trajectories_load_or_fail_as_schema_errors(desk_inputs, data):
    import json
    import tempfile

    scene, scene_path, deployment_path = desk_inputs
    doc = data.draw(trajectory_documents([float(c) for c in scene.center]))
    try:
        obs.trajectory_from_json(doc, scene, 0.01)
        loads = True
    except (SchemaError, ValueError):  # SchemaError is a ValueError; both exit 2
        loads = False

    with tempfile.TemporaryDirectory() as work:
        path = f"{work}/trajectory.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = ["simulate", "--scene", str(scene_path), "--deployment", str(deployment_path),
                "--trajectory", path, "--k-i", "2e-5", "--out-dir", f"{work}/out"]
        code = run_quietly(argv)
    assert code == (0 if loads else 2)
