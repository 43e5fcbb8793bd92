"""Frame conventions, rotations, rigid transforms, and camera primitives."""

import math
from dataclasses import replace

import numpy as np
import pytest

import landmark_coverage.geometry as geometry
from landmark_coverage.geometry import (
    CameraIntrinsics,
    Deployment,
    Landmark,
    Pose6,
    apply_rotation,
    as_vec3,
    cm_to_mm,
    fov_half_angles,
    frobenius_error,
    is_rigid_transform,
    is_rotation,
    is_twist,
    landmark_normal,
    local_to_world,
    normal_to_angles,
    pose_to_se3,
    project_to_rotation,
    rotation_from_angles,
    se3_exp,
    se3_inverse,
    se3_matrix,
    se3_path,
    se3_step,
    twist,
    world_to_local,
    wrap_angle,
)

TABLE3 = dict(
    f=5.0, s_u=0.0058, s_v=0.0058, o_u=800, o_v=600,
    width=1600, height=1200, d_a=10.0, d_s=1778.0,
)


def test_zero_angle_rotation_is_the_axis_permutation():
    r = rotation_from_angles(0.0, 0.0, 0.0)
    v = apply_rotation(r, np.array([1.0, 2.0, 3.0]))
    assert np.allclose(v, [1.0, -3.0, 2.0], atol=1e-15)


def test_quarter_turn_yaw_matrix():
    r = rotation_from_angles(math.pi / 2, 0.0, 0.0)
    expected = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    assert np.allclose(r, expected, atol=1e-12)


def test_positive_yaw_turns_optical_axis_toward_plus_x():
    # The optical axis in world coordinates is the third row of R.
    r = rotation_from_angles(0.3, 0.0, 0.0)
    assert np.allclose(r[2], [math.sin(0.3), math.cos(0.3), 0.0], atol=1e-12)


def test_positive_pitch_tilts_optical_axis_toward_plus_z():
    r = rotation_from_angles(0.0, 0.25, 0.0)
    assert np.allclose(r[2], [0.0, math.cos(0.25), math.sin(0.25)], atol=1e-12)


def test_roll_leaves_optical_axis_row_unchanged():
    base = rotation_from_angles(0.4, -0.2, 0.0)
    rolled = rotation_from_angles(0.4, -0.2, 1.1)
    assert np.array_equal(base[2], rolled[2])


def test_rotations_are_orthonormal():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.uniform(-math.pi, math.pi)
        b = rng.uniform(-math.pi / 2, math.pi / 2)
        g = rng.uniform(-math.pi, math.pi)
        r = rotation_from_angles(a, b, g)
        assert is_rotation(r, tol=1e-12)


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == -math.pi
    assert wrap_angle(-math.pi) == -math.pi
    assert math.isclose(wrap_angle(3 * math.pi / 2), -math.pi / 2, abs_tol=1e-15)
    assert math.isclose(wrap_angle(-3 * math.pi / 2), math.pi / 2, abs_tol=1e-15)


def test_world_local_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(100):
        frame = Pose6(
            rng.uniform(-100, 100, 3),
            yaw=rng.uniform(-math.pi, math.pi),
            pitch=rng.uniform(-math.pi / 2, math.pi / 2),
            roll=rng.uniform(-math.pi, math.pi),
        )
        p = rng.uniform(-500, 500, 3)
        back = local_to_world(world_to_local(p, frame), frame)
        assert np.max(np.abs(back - p)) < 1e-10


def test_world_to_local_translates_then_rotates():
    frame = Pose6(np.array([1.0, 2.0, 3.0]))
    s = world_to_local(np.array([2.0, 4.0, 6.0]), frame)
    assert np.allclose(s, [1.0, -3.0, 2.0], atol=1e-15)


def test_pose_validation():
    with pytest.raises(ValueError):
        Pose6(np.zeros(3), yaw=math.pi)
    with pytest.raises(ValueError):
        Pose6(np.zeros(3), pitch=2.0)
    with pytest.raises(ValueError):
        Pose6(np.zeros(3), roll=-4.0)
    with pytest.raises(ValueError):
        Pose6(np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        Pose6(np.zeros(2))


def test_as_vec3_rejects_non_finite():
    with pytest.raises(ValueError):
        as_vec3([1.0, math.inf, 0.0])


def test_cm_to_mm():
    assert cm_to_mm(2.5) == 25.0


def test_landmark_normal_cardinal_directions():
    pos = np.zeros(3)
    assert np.allclose(landmark_normal(Landmark(pos, 0.0, 0.0)), [0, 1, 0], atol=1e-15)
    assert np.allclose(
        landmark_normal(Landmark(pos, math.pi / 2, 0.0)), [-1, 0, 0], atol=1e-15
    )
    assert np.allclose(
        landmark_normal(Landmark(pos, 0.0, math.pi / 2)), [0, 0, -1], atol=1e-15
    )
    assert np.allclose(
        landmark_normal(Landmark(pos, 0.0, -math.pi / 2)), [0, 0, 1], atol=1e-15
    )


def test_normal_angle_round_trip():
    rng = np.random.default_rng(3)
    pos = np.zeros(3)
    for _ in range(300):
        rho = rng.uniform(-math.pi, math.pi)
        eta = rng.uniform(-math.pi / 2, math.pi / 2)
        n = landmark_normal(Landmark(pos, rho, eta))
        rho2, eta2 = normal_to_angles(n)
        n2 = landmark_normal(Landmark(pos, rho2, eta2))
        assert np.max(np.abs(n2 - n)) < 1e-12


def test_normal_to_angles_special_cases():
    assert normal_to_angles([0.0, 1.0, 0.0]) == (0.0, 0.0)
    rho, eta = normal_to_angles([1.0, 0.0, 0.0])
    assert math.isclose(rho, -math.pi / 2, abs_tol=1e-15) and eta == 0.0
    # atan2 lands exactly on pi here; the result must wrap into [-pi, pi).
    rho, _ = normal_to_angles([-0.0, -1.0, 0.0])
    assert rho == -math.pi
    # Poles: eta carries everything, rho defaults to zero.
    rho, eta = normal_to_angles([0.0, 0.0, -1.0])
    assert rho == 0.0 and math.isclose(eta, math.pi / 2, abs_tol=1e-15)
    rho, eta = normal_to_angles([0.0, 0.0, 1.0])
    assert rho == 0.0 and math.isclose(eta, -math.pi / 2, abs_tol=1e-15)


def test_normal_to_angles_rejects_non_unit():
    with pytest.raises(ValueError):
        normal_to_angles([0.0, 2.0, 0.0])


def test_landmark_validation():
    with pytest.raises(ValueError):
        Landmark(np.zeros(3), rho=math.pi, eta=0.0)
    with pytest.raises(ValueError):
        Landmark(np.zeros(3), rho=0.0, eta=2.0)
    with pytest.raises(ValueError):
        Landmark(np.zeros(3), rho=0.0, eta=0.0, nu=0.0)


def random_landmarks(rng, count):
    return [
        Landmark(
            rng.uniform(0.0, 400.0, 3),
            rho=rng.uniform(-math.pi, math.pi),
            eta=rng.uniform(-math.pi / 2, math.pi / 2),
            mu=rng.uniform(-math.pi, math.pi),
            nu=rng.uniform(1.0, 20.0),
        )
        for _ in range(count)
    ]


def test_deployment_plate_arrays_match_landmarks_bitwise():
    landmarks = random_landmarks(np.random.default_rng(5), 7)
    plates = Deployment(landmarks)
    assert isinstance(plates.landmarks, tuple)
    assert len(plates) == 7
    assert plates.positions.shape == plates.normals.shape == (7, 3)
    assert plates.nu.shape == (7,)
    for k, lm in enumerate(landmarks):
        assert plates.landmarks[k] is lm
        assert np.array_equal(plates.positions[k], lm.position)
        assert np.array_equal(plates.normals[k], landmark_normal(lm))
        assert (plates.rho[k], plates.eta[k], plates.mu[k], plates.nu[k]) == (lm.rho, lm.eta, lm.mu, lm.nu)


def test_deployment_normals_match_landmark_normal_bitwise(monkeypatch):
    # Deployment takes libm's sines and cosines per plate and multiplies them
    # as arrays; the products and negations must give landmark_normal's bits,
    # signed zeros included. +pi is not a valid yaw, so the float below it
    # stands in; numpy's own sin and cos are nudged by an ulp, as a SIMD
    # build may differ from libm, and must not be used.
    for name in ("sin", "cos"):
        exact = getattr(np, name)
        monkeypatch.setattr(np, name, lambda x, *a, _f=exact, **k: np.nextafter(_f(x, *a, **k), np.inf))
    rng = np.random.default_rng(9)
    yaws = [-math.pi, math.nextafter(math.pi, 0.0), math.pi / 2, -math.pi / 2, 0.0, -0.0]
    pitches = [math.pi / 2, -math.pi / 2, 0.0, -0.0]
    rho = [r for r in yaws for _ in pitches] + rng.uniform(-math.pi, math.pi, 200).tolist()
    eta = pitches * len(yaws) + rng.uniform(-math.pi / 2, math.pi / 2, 200).tolist()
    plates = Deployment.from_arrays(np.zeros((len(rho), 3)), rho, eta, np.ones(len(rho)))
    want = np.array([landmark_normal(Landmark(np.zeros(3), r, e)) for r, e in zip(rho, eta)])
    assert plates.normals.dtype == want.dtype and plates.normals.tobytes() == want.tobytes()
    assert np.signbit(plates.normals).any() and (plates.normals == 0.0).any()


def test_deployment_of_converts_only_sequences():
    landmarks = random_landmarks(np.random.default_rng(6), 3)
    plates = Deployment(landmarks)
    assert Deployment.of(plates) is plates
    built = Deployment.of(landmarks)
    assert isinstance(built, Deployment)
    assert built.landmarks == plates.landmarks


def test_empty_deployment_has_empty_plate_arrays():
    plates = Deployment([])
    assert len(plates) == 0
    assert plates.positions.shape == plates.normals.shape == (0, 3)
    assert plates.rho.shape == plates.eta.shape == plates.mu.shape == plates.nu.shape == (0,)


def test_plates_are_immutable():
    source = np.array([10.0, 20.0, 30.0])
    lm = Landmark(source, rho=0.0, eta=0.0)
    plates = Deployment([lm])
    source[0] = 99.0  # the plate keeps its own copy
    assert lm.position[0] == 10.0
    with pytest.raises(AttributeError):
        lm.rho = 1.0
    with pytest.raises(ValueError):
        lm.position[0] = 50.0
    with pytest.raises(ValueError):
        plates.positions[0, 0] = 1.0
    for array in (plates.normals, plates.rho, plates.eta, plates.mu, plates.nu):
        assert not array.flags.writeable
    assert plates.positions[0, 0] == lm.position[0] == 10.0


def test_array_deployment_matches_landmarks_and_builds_them_on_demand():
    landmarks = random_landmarks(np.random.default_rng(8), 5)
    source = np.array([lm.position for lm in landmarks])
    plates = Deployment.from_arrays(
        source, [lm.rho for lm in landmarks], [lm.eta for lm in landmarks],
        [lm.nu for lm in landmarks],
    )
    source[0, 0] = -1.0  # the deployment keeps its own copy
    reference = Deployment([replace(lm, mu=0.0) for lm in landmarks])
    assert len(plates) == 5
    for name in ("positions", "normals", "rho", "eta", "mu", "nu"):
        assert getattr(plates, name).tobytes() == getattr(reference, name).tobytes()
        assert not getattr(plates, name).flags.writeable
    for a, b in zip(plates.landmarks, reference.landmarks):
        assert a.position.tobytes() == b.position.tobytes()
        assert (a.rho, a.eta, a.mu, a.nu) == (b.rho, b.eta, 0.0, b.nu)
    assert plates.landmarks is plates.landmarks
    empty = Deployment.from_arrays(np.zeros((0, 3)), [], [], [])
    assert len(empty) == 0 and empty.normals.shape == (0, 3) and empty.landmarks == ()


def test_array_deployment_keeps_a_given_roll():
    landmarks = random_landmarks(np.random.default_rng(9), 4)
    plates = Deployment.from_arrays(
        [lm.position for lm in landmarks], *([getattr(lm, name) for lm in landmarks]
                                            for name in ("rho", "eta", "nu")),
        mu=[lm.mu for lm in landmarks],
    )
    reference = Deployment(landmarks)
    for name in ("positions", "normals", "rho", "eta", "mu", "nu"):
        assert getattr(plates, name).tobytes() == getattr(reference, name).tobytes()
    assert [lm.mu for lm in plates.landmarks] == [lm.mu for lm in landmarks]


@pytest.mark.parametrize("field, value, message", [
    ("rho", math.pi, "rho 3.14159"),
    ("rho", -4.0, "rho -4.0 outside"),
    ("rho", math.nan, "rho nan"),
    ("eta", math.nextafter(math.pi / 2, 2.0), "eta 1.57"),
    ("eta", -2.0, "eta -2.0 outside"),
    ("nu", 0.0, "nu must be a positive finite diameter, got 0.0"),
    ("nu", math.inf, "got inf"),
    ("nu", math.nan, "got nan"),
    ("mu", math.pi, "mu 3.14159"),
    ("mu", -4.0, "mu -4.0 outside"),
    ("mu", math.nan, "mu nan"),
    ("positions", math.inf, "finite"),
    ("positions", math.nan, "finite"),
])
def test_array_deployment_rejects_what_landmark_rejects(field, value, message):
    arrays = {"positions": np.ones((3, 3)), "rho": np.zeros(3), "eta": np.zeros(3),
              "nu": np.full(3, 10.0), "mu": np.zeros(3)}
    arrays[field][-1] = value
    with pytest.raises(ValueError, match=message) as raised:
        Deployment.from_arrays(**arrays)
    assert str(raised.value).startswith("landmarks[2]: ") == (field != "positions")
    one = {name: a[-1] for name, a in arrays.items()}
    with pytest.raises(ValueError, match=message):
        Landmark(one["positions"], rho=one["rho"], eta=one["eta"], mu=one["mu"], nu=one["nu"])


def test_array_deployment_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="plate arrays"):
        Deployment.from_arrays(np.zeros((2, 3)), [0.0], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="plate arrays"):
        Deployment.from_arrays(np.zeros(3), [0.0], [0.0], [1.0])
    with pytest.raises(ValueError, match="plate arrays"):
        Deployment.from_arrays(np.zeros((2, 3)), [0.0] * 2, [0.0] * 2, [1.0] * 2, mu=[0.0])


def test_intrinsics_magnification():
    intr = CameraIntrinsics(**TABLE3)
    assert math.isclose(intr.magnification, 5.014100394811055, rel_tol=1e-12)
    far = CameraIntrinsics(**{**TABLE3, "d_s": math.inf})
    assert far.infinite_focus
    assert far.magnification == far.f


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(**{**TABLE3, "d_s": 4.0})  # closer than the focal length
    with pytest.raises(ValueError):
        CameraIntrinsics(**{**TABLE3, "f": 0.0})
    with pytest.raises(ValueError):
        CameraIntrinsics(**{**TABLE3, "o_u": 1601})
    with pytest.raises(ValueError):
        CameraIntrinsics(**{**TABLE3, "width": 0})


def test_fov_half_angles_table3_camera():
    intr = CameraIntrinsics(**TABLE3)
    top, bottom, left, right = fov_half_angles(intr)
    assert math.isclose(left, math.atan(0.928), rel_tol=1e-12)
    assert math.isclose(right, math.atan(0.928), rel_tol=1e-12)
    assert math.isclose(top, math.atan(0.696), rel_tol=1e-12)
    assert math.isclose(intr.min_fov_tan, 0.696, rel_tol=1e-12)
    assert math.isclose(math.atan(intr.min_fov_tan), 0.6080363528005533, rel_tol=1e-12)
    assert math.isclose(intr.fov_cos, math.cos(0.6080363528005533), rel_tol=1e-12)


def test_fov_half_angles_full_hd_long_lens():
    intr = CameraIntrinsics(
        f=24.0, s_u=0.0033, s_v=0.0033, o_u=960, o_v=540,
        width=1920, height=1080, d_a=8.57, d_s=math.inf,
    )
    _, _, left, right = fov_half_angles(intr)
    assert math.isclose(left, math.atan(0.132), rel_tol=1e-12)
    assert math.isclose(right, math.atan(0.132), rel_tol=1e-12)


def test_se3_inverse():
    pose = Pose6(np.array([3.0, -2.0, 1.0]), yaw=0.7, pitch=0.2, roll=-0.4)
    x = pose_to_se3(pose)
    assert np.allclose(x @ se3_inverse(x), np.eye(4), atol=1e-12)
    assert np.allclose(se3_inverse(x) @ x, np.eye(4), atol=1e-12)


def test_pose_to_se3_matches_world_to_local():
    pose = Pose6(np.array([10.0, 20.0, 5.0]), yaw=-1.1, pitch=0.3, roll=0.9)
    x = pose_to_se3(pose)
    p = np.array([4.0, -7.0, 12.0])
    local = se3_inverse(x) @ np.append(p, 1.0)
    assert np.allclose(local[:3], world_to_local(p, pose), atol=1e-12)
    assert is_rigid_transform(x)


def test_is_rotation_rejects_reflection_and_scale():
    assert not is_rotation(np.diag([1.0, 1.0, -1.0]))
    assert not is_rotation(2.0 * np.eye(3))
    assert not is_rotation(np.eye(4))
    assert is_rotation(np.eye(3))


def test_is_rigid_transform_checks_bottom_row():
    x = np.eye(4)
    assert is_rigid_transform(x)
    x[3, 0] = 1e-3
    assert not is_rigid_transform(x)
    # exponential-map dust on the affine row stays within tolerance
    x[3, 0] = 1e-14
    assert is_rigid_transform(x)
    assert not is_rigid_transform(x, tol=1e-15)


def test_twist_shape_and_skewness():
    u = twist([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert is_twist(u)
    assert np.array_equal(u[:3, 3], [4.0, 5.0, 6.0])
    s = u[:3, :3]
    assert np.allclose(s + s.T, 0.0)
    # hat(w) v == w x v
    v = np.array([0.2, -0.4, 0.9])
    assert np.allclose(s @ v, np.cross([1.0, 2.0, 3.0], v), atol=1e-15)
    assert not is_twist(np.eye(4))


def test_project_to_rotation_repairs_drift():
    r = rotation_from_angles(0.5, 0.1, -0.3) + 1e-4 * np.ones((3, 3))
    fixed = project_to_rotation(r)
    assert is_rotation(fixed, tol=1e-12)


def test_se3_step_stays_on_the_group():
    x = pose_to_se3(Pose6(np.array([1.0, 1.0, 1.0]), yaw=0.2))
    u = twist([0.3, -0.2, 0.5], [1.0, 0.0, -0.5])
    for _ in range(500):
        x = se3_step(x, u, 0.02)
    assert is_rigid_transform(x, tol=1e-8)


def test_se3_path_is_a_chain_of_se3_steps_bitwise():
    # rotation drift of about 6e-9 makes the first step re-orthonormalize
    x0 = pose_to_se3(Pose6(np.array([1.0, 1.0, 1.0]), yaw=0.2))
    x0[:3, :3] *= 1.0 + 3e-9
    u = twist([0.3, -0.2, 0.5], [1.0, 0.0, -0.5])
    path = se3_path(x0, u, 0.02, 40)
    assert path.shape == (40, 4, 4)
    x = x0
    for pose in path:
        x = se3_step(x, u, 0.02)
        assert np.array_equal(pose, x)
    assert is_rigid_transform(path[0], tol=1e-12)
    assert se3_path(x0, u, 0.02, 0).shape == (0, 4, 4)


def test_se3_path_matches_a_numpy_chain():
    # rotation drift of about 6e-9 makes the first step re-orthonormalize
    x0 = pose_to_se3(Pose6(np.array([40.0, -25.0, 60.0]), yaw=0.7, pitch=-0.4, roll=0.2))
    x0[:3, :3] *= 1.0 + 3e-9
    u = twist([0.9, -1.4, 0.6], [30.0, -12.0, 8.0])
    path = se3_path(x0, u, 0.01, 300)
    e = se3_exp(u, 0.01)
    x = x0
    projected = 0
    for pose in path:
        x = x @ e
        x[3] = (0.0, 0.0, 0.0, 1.0)
        r = x[:3, :3]
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-9:
            x[:3, :3] = project_to_rotation(r)
            projected += 1
        assert np.abs(pose - x).max() <= 1e-13 * np.abs(x).max()
    assert projected >= 1
    assert is_rigid_transform(path[0], tol=1e-12)


def checked_chain(x0, u, dt, steps):
    """``se3_path``'s poses from one ``se3_compose_rows`` call per step."""
    e = geometry.se3_exp_rows(*geometry.twist_coords(u), dt)
    x, out = x0[:3].ravel().tolist(), []
    for _ in range(steps):
        x = geometry.se3_compose_rows(x, e)
        out.append(np.array([x[0:4], x[4:8], x[8:12], (0.0, 0.0, 0.0, 1.0)]))
    return np.array(out).reshape(steps, 4, 4)


def spy_on(monkeypatch, name):
    """Count the calls of a geometry function, as module-level callers look it up."""
    calls, real = [], getattr(geometry, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, name, spy)
    return calls


@pytest.mark.parametrize("tol", [4e-16, 3e-15])
def test_se3_path_replays_failed_blocks_exactly(monkeypatch, tol):
    """A tolerance of a few ulps makes projections fire inside blocks; the path is still the checked chain."""
    monkeypatch.setattr(geometry, "_ORTHO_DRIFT_TOL", tol)
    x0 = pose_to_se3(Pose6(np.array([40.0, -25.0, 60.0]), yaw=0.7, pitch=-0.4, roll=0.2))
    u = twist([0.9, -1.4, 0.6], [30.0, -12.0, 8.0])
    want = checked_chain(x0, u, 0.01, 300)
    checks = spy_on(monkeypatch, "se3_rows_on_group")
    projections = spy_on(monkeypatch, "project_to_rotation")
    path = se3_path(x0, u, 0.01, 300)
    assert np.array_equal(path, want)
    assert len(checks) == 5 and projections  # 300 steps in blocks of 64


def test_a_block_inside_the_check_allowance_is_taken_step_by_step(monkeypatch):
    """A Gram entry within the float-error allowance below the tolerance replays its block.

    The rotation diag(1 + 2^-26, 1, 1) has the exact Gram drift d = 2^-25
    + 2^-52 in any evaluation order, and a zero twist keeps every pose of
    the path equal to it. With the tolerance at d plus half the allowance,
    only the allowance makes the block fail the stacked check.
    """
    x0 = se3_matrix(np.diag([1.0 + 2.0**-26, 1.0, 1.0]), [1.0, 2.0, 3.0])
    zero = np.zeros((4, 4))
    monkeypatch.setattr(geometry, "_ORTHO_DRIFT_TOL", 2.0**-25 + 2.0**-52 + 0.5 * geometry._GRAM_SLACK)
    want = checked_chain(x0, zero, 0.01, 10)
    assert np.array_equal(want, np.broadcast_to(x0, (10, 4, 4)))  # nothing projected
    composes = spy_on(monkeypatch, "se3_compose_rows")
    assert np.array_equal(se3_path(x0, zero, 0.01, 10), want)
    assert len(composes) == 10

    # the same block passes when the check leaves no allowance
    monkeypatch.setattr(geometry, "_GRAM_SLACK", 0.0)
    composes.clear()
    assert np.array_equal(se3_path(x0, zero, 0.01, 10), want)
    assert composes == []


def test_the_block_check_refuses_what_it_cannot_vouch_for():
    x0 = pose_to_se3(Pose6(np.array([1.0, 2.0, 3.0]), yaw=0.4))
    rows = np.tile(x0[:3].reshape(1, 12), (5, 1))
    assert geometry.se3_rows_on_group(rows) and geometry.se3_rows_on_group(rows[:0])
    rows[3, 5] = math.nan
    assert not geometry.se3_rows_on_group(rows)
    rows[3, 5] = 1.0 + 2e-9  # a drift the scalar check projects
    assert not geometry.se3_rows_on_group(rows)


def test_se3_step_zero_twist_is_identity():
    x = pose_to_se3(Pose6(np.array([2.0, 3.0, 4.0]), yaw=1.0, pitch=0.4))
    y = se3_step(x, np.zeros((4, 4)), 0.01)
    assert np.allclose(y, x, atol=1e-15)


SE3_EXP_BANDS = [(0.0, 0.0), (1e-12, 1e-3), (1e-3, 0.1), (0.1, 3.0), (3.0, math.pi - 1e-12)]


def _band_twists(rng, lo, hi, count=30):
    """(U, dt, |v|): twists whose U·dt turns by θ in [lo, hi], |v| up to 50."""
    for _ in range(count):
        # log-uniform where the band spans decades, so its small end is sampled
        theta = math.exp(rng.uniform(math.log(lo), math.log(hi))) if lo > 0 else 0.0
        axis = rng.normal(size=3)
        linear = rng.normal(size=3)
        dt = float(rng.choice([1.0, 0.01, 0.3]))
        U = twist(axis / np.linalg.norm(axis) * theta / dt,
                  linear / np.linalg.norm(linear) * rng.uniform(0.0, 50.0) / dt)
        yield U, dt, float(np.linalg.norm(U[:3, 3] * dt))


@pytest.mark.parametrize("lo, hi", SE3_EXP_BANDS)
def test_se3_exp_matches_a_40_digit_expm(lo, hi):
    import mpmath  # installed with sympy, a test dependency

    rng = np.random.default_rng(int(hi * 1e3) + 7)
    with mpmath.workdps(40):
        for U, dt, speed in _band_twists(rng, lo, hi):
            ref = mpmath.expm(mpmath.matrix((U * dt).tolist()))
            ref = np.array(ref.tolist(), dtype=float)
            E = se3_exp(U, dt)
            assert np.abs(E[:3, :3] - ref[:3, :3]).max() <= 1e-15
            assert np.abs(E[:3, 3] - ref[:3, 3]).max() <= 1e-15 * max(1.0, speed)
            assert E[3].tolist() == [0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("lo, hi", SE3_EXP_BANDS)
def test_se3_exp_matches_scipy_expm(lo, hi):
    from scipy.linalg import expm

    rng = np.random.default_rng(int(hi * 1e3) + 7)
    for U, dt, speed in _band_twists(rng, lo, hi):
        assert np.abs(se3_exp(U, dt) - expm(U * dt)).max() <= 1e-13 * max(1.0, speed)
        # the inverse twist undoes it
        assert np.abs(se3_exp(U, dt) @ se3_exp(-U, dt) - np.eye(4)).max() <= 1e-15 * max(1.0, speed)


def test_se3_exp_of_a_zero_twist_is_the_identity():
    assert np.array_equal(se3_exp(np.zeros((4, 4)), 0.01), np.eye(4))
    assert np.array_equal(se3_exp(twist([0.3, -0.2, 0.5], [1.0, 0.0, -0.5]), 0.0), np.eye(4))


def test_frobenius_error():
    x = np.eye(4)
    assert frobenius_error(x, x) == 0.0
    y = x.copy()
    y[0, 3] = 2.0
    y[1, 3] = -1.0
    assert frobenius_error(y, x) == 5.0
    assert frobenius_error(x, y) == 5.0


def test_frobenius_error_of_stacks_matches_per_pose_calls_bitwise():
    rng = np.random.default_rng(7)
    x_hats = rng.normal(size=(257, 4, 4)) * rng.uniform(0.0, 100.0, (257, 1, 1))
    xs = rng.normal(size=(257, 4, 4)) * 50.0
    stacked = frobenius_error(x_hats, xs)
    assert stacked.shape == (257,)
    for x_hat, x, err in zip(x_hats, xs, stacked):
        single = frobenius_error(x_hat, x)
        assert isinstance(single, float) and err == single


def test_se3_matrix_layout():
    r = rotation_from_angles(0.1, 0.2, 0.3)
    x = se3_matrix(r, [7.0, 8.0, 9.0])
    assert np.array_equal(x[:3, :3], r)
    assert np.array_equal(x[:3, 3], [7.0, 8.0, 9.0])
    assert np.array_equal(x[3], [0.0, 0.0, 0.0, 1.0])
