"""Gradient pose observer on SE(3) driven by landmark position measurements.

The camera state is a rigid transform X whose rotation block holds the
camera axes expressed in the world frame and whose translation is the camera
position, so X^-1 maps world points into the camera frame. The observer
integrates the commanded body twist minus a correction built from the
mismatch between predicted and measured camera-frame landmark positions;
the correction is the twist-space projection of the error cost gradient.

Which landmarks feed the correction is controlled by the visibility mode:
'ideal' uses all of them, 'camera-model' keeps only those whose coverage
strength at the true pose reaches the measurement threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coverage import axis_strengths
from .deployment import MAX_STEPS, Scene
from .errors import (
    SchemaError,
    TrajectoryOutOfRegionError,
    check_schema as _check_schema,
    integer as _integer,
    load_json as _load_json,
    number as _number,
    numbers as _numbers,
    require as _require,
    schema_errors as _schema_errors,
)
from .geometry import (
    Deployment,
    Pose6,
    frobenius_error,
    is_rigid_transform,
    pose_to_se3,
    se3_inverse,
    se3_path,
    se3_step,
    twist,
)


def project_to_twist(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a 4x4 matrix onto twist form."""
    a = np.asarray(a, dtype=float)
    out = np.zeros((4, 4))
    r = a[:3, :3]
    out[:3, :3] = (r - r.T) / 2.0
    out[:3, 3] = a[:3, 3]
    return out


def observer_cost(x_hat, x, c_h, k_i: float) -> float:
    """Half the gain-weighted squared mismatch of camera-frame landmarks."""
    err = (se3_inverse(x_hat) - se3_inverse(x)) @ c_h
    return 0.5 * k_i * float(np.sum(err * err))


def epsilon(x_hat, x, c_h, k_i: float) -> np.ndarray:
    """Correction twist: projected gradient of the mismatch cost."""
    if c_h.shape[1] == 0:
        return np.zeros((4, 4))
    inv_hat = se3_inverse(x_hat)
    c_hat = inv_hat @ c_h
    err = c_hat - se3_inverse(x) @ c_h
    return project_to_twist(-k_i * (err @ c_hat.T))


def outputs(x, c_h) -> np.ndarray:
    """Sum of camera-frame landmark coordinates, shape (4,)."""
    if c_h.shape[1] == 0:
        return np.zeros(4)
    return (se3_inverse(x) @ c_h).sum(axis=1)


def injection(x_hat, x, c_h, k0: float) -> np.ndarray:
    """Rank-one output-feedback term built from the summed outputs."""
    if k0 == 0.0 or c_h.shape[1] == 0:
        return np.zeros((4, 4))
    c_hat = se3_inverse(x_hat) @ c_h
    y_hat = c_hat.sum(axis=1)
    y = outputs(x, c_h)
    c_bar = y_hat / c_h.shape[1]
    return k0 * project_to_twist(np.outer(y_hat - y, c_bar))


@dataclass
class ObserverConfig:
    k_i: float = 1.0
    k0: float = 0.0
    dt: float = 0.01
    visibility: str = "ideal"
    use_estimate_for_visibility: bool = False

    def __post_init__(self):
        if not (self.k_i >= 0 and math.isfinite(self.k_i)):
            raise ValueError("gain k_i must be finite and non-negative")
        if not math.isfinite(self.k0):
            raise ValueError("gain k0 must be finite")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be a positive time step")
        if self.visibility not in ("ideal", "camera-model"):
            raise ValueError("visibility must be 'ideal' or 'camera-model'")


def observer_step(x_hat, x, u, c_vis, config: ObserverConfig) -> np.ndarray:
    """One integration step of the estimate under twist u."""
    correction = epsilon(x_hat, x, c_vis, config.k_i) + injection(
        x_hat, x, c_vis, config.k0
    )
    return se3_step(x_hat, u - correction, config.dt)


def _segment_steps(duration: float, dt: float) -> int:
    """Steps of size ``dt`` that a segment of ``duration`` takes, at least one."""
    return max(1, round(duration / dt))


def _check_whole_steps(duration: float, dt: float, context: str) -> int:
    """The number of ``dt`` steps in ``duration``, which must be whole.

    ``sample`` would otherwise stretch or shrink it to the nearest step.
    """
    ratio = duration / dt
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * n:
        raise SchemaError(f"{context}: {duration!r} s is not a whole number of {dt!r} s steps")
    return n


def _check_total_steps(total: int, dt: float, context: str) -> None:
    """Reject a trajectory of more than MAX_STEPS steps before it is sampled."""
    if total > MAX_STEPS:
        raise SchemaError(
            f"{context}: the trajectory takes {total} steps of {dt!r} s, "
            f"above the cap of {MAX_STEPS}"
        )


@dataclass(eq=False)
class TrajectorySpec:
    """Piecewise-constant body twists applied from an initial pose."""

    initial: np.ndarray
    segments: list[tuple[float, np.ndarray]]

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        if not is_rigid_transform(self.initial, tol=1e-8):
            raise ValueError("initial pose must be a rigid transform")
        if not self.segments:
            raise ValueError("at least one trajectory segment is required")
        cleaned = []
        for duration, u in self.segments:
            if not (duration > 0 and math.isfinite(duration)):
                raise ValueError("segment durations must be positive")
            cleaned.append((float(duration), np.asarray(u, dtype=float)))
        self.segments = cleaned

    @property
    def duration(self) -> float:
        return math.fsum(d for d, _ in self.segments)

    def sample(self, dt: float) -> tuple[list[np.ndarray], np.ndarray]:
        """The per-step twists and every true pose at step size ``dt``.

        Each segment takes ``round(duration / dt)`` steps of its twist, at
        least one, integrated by ``se3_path`` from the previous segment's
        end pose. The poses have shape (steps + 1, 4, 4), the initial pose first.
        """
        twists = []
        paths = [self.initial[None]]
        x = self.initial
        for duration, u in self.segments:
            n_steps = _segment_steps(duration, dt)
            twists.extend([u] * n_steps)
            paths.append(se3_path(x, u, dt, n_steps))
            x = paths[-1][-1]
        return twists, np.concatenate(paths)


@dataclass(eq=False)
class ObserverTrace:
    """Per-step record of a simulated run; index 0 is the initial state."""

    t: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    er: np.ndarray
    visible: np.ndarray
    qualified: np.ndarray

    @property
    def qualified_time_ratio(self) -> float:
        return float(np.mean(self.qualified)) if self.qualified.size else 0.0

    @property
    def final_error(self) -> float:
        return float(self.er[-1])


# Cap on poses x plates x plates per kernel call. The occlusion pass builds
# several (L, K) float temporaries over up to poses x K live (pose, plate)
# pairs, so a whole path in one call would grow peak memory with the path's
# length; 16 poses of 24 plates fit.
_POSE_BLOCK_PAIRS = 16 * 24 * 24


def pose_strengths(x, landmarks, intrinsics, delta: float, thold: float = 0.0) -> np.ndarray:
    """Measurable mask of all landmarks seen from the pose X, shape (K,).

    ``x`` may also be a stack of poses (N, 4, 4), giving (N, K); each pose
    looks along its own optical axis, and every row equals the one-pose call
    bit for bit. The poses go to the kernel in blocks of at least one pose
    and at most ``_POSE_BLOCK_PAIRS`` poses x plates x plates.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-2:] != (4, 4) or x.ndim not in (2, 3):
        raise ValueError(f"expected a (4, 4) pose or an (N, 4, 4) stack, got shape {x.shape}")
    poses = x.reshape(-1, 4, 4)
    plates = Deployment.of(landmarks)
    k = len(plates)
    positions = poses[:, :3, 3]
    axes = poses[:, None, :3, 2]  # optical-axis rows of the world-to-camera rotations
    block = max(1, _POSE_BLOCK_PAIRS // max(1, k * k))
    out = np.empty((len(poses), k), dtype=bool)
    for start in range(0, len(poses), block):
        stop = start + block
        out[start:stop] = axis_strengths(
            positions[start:stop], axes[start:stop], plates, intrinsics, delta, thold
        )[:, 0]
    return out if x.ndim == 3 else out[0]


def simulate(
    scene: Scene,
    deployment,
    trajectory: TrajectorySpec,
    config: ObserverConfig,
    x_hat0=None,
) -> ObserverTrace:
    """Run the observer estimate along a trajectory's true poses.

    The true path is sampled once at ``config.dt``. Every sampled camera
    position must stay inside the reachable region; the first one outside
    raises TrajectoryOutOfRegionError. Camera-model visibility at the true
    poses is computed for the whole path before the loop; visibility from
    the estimate depends on the previous step, so it is computed per step.
    """
    plates = Deployment.of(deployment)
    k = len(plates)
    c_h = np.vstack([plates.positions.T, np.ones(k)])
    x_hat = np.array(trajectory.initial if x_hat0 is None else x_hat0, dtype=float)
    if not is_rigid_transform(x_hat, tol=1e-8):
        raise ValueError("initial estimate must be a rigid transform")
    twists, xs = trajectory.sample(config.dt)
    count = len(xs)
    t = np.arange(count) * config.dt
    inside = scene.contains_reachable(xs[:, :3, 3])
    if not inside.all():
        i = int(np.argmin(inside))
        raise TrajectoryOutOfRegionError(
            f"camera position {xs[i, :3, 3].tolist()} left the reachable region at t={t[i]:.4f}"
        )

    gates = (plates, scene.intrinsics, scene.params.delta, scene.params.thold)
    per_step = config.visibility == "camera-model" and config.use_estimate_for_visibility
    if config.visibility == "ideal":
        visible = np.ones((count, k), dtype=bool)
    elif per_step:
        visible = np.empty((count, k), dtype=bool)
    else:
        visible = pose_strengths(xs, *gates)
    x_hats = np.empty((count, 4, 4))
    er = np.empty(count)

    for i, x in enumerate(xs):
        x_hats[i] = x_hat
        er[i] = frobenius_error(x_hat, x)
        if per_step:
            visible[i] = pose_strengths(x_hat, *gates)
        if i < len(twists):
            x_hat = observer_step(x_hat, x, twists[i], c_h[:, visible[i]], config)

    qualified = visible.sum(axis=1) >= scene.params.n
    return ObserverTrace(t=t, x=xs, x_hat=x_hats, er=er, visible=visible, qualified=qualified)


def random_walk_trajectory(
    scene: Scene,
    duration: float,
    seed: int,
    segment_duration: float = 0.5,
    lin_speed: float = 30.0,
    ang_speed: float = 0.6,
    initial=None,
    margin: float = 0.0,
    dt: float = 0.01,
) -> TrajectorySpec:
    """A containment-checked random walk through the reachable region.

    Candidate segments are rejected until their positions, integrated at
    step size ``dt`` as ``TrajectorySpec.sample(dt)`` does, stay at least
    margin inside the region; after repeated rejections the segment
    steers straight toward the region center, which always stays inside.
    When no initial pose is given the walk starts at the region center with
    a seed-drawn orientation, so a batch of seeds samples the same yaw and
    pitch space the coverage probability integrates over.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if segment_duration <= 0:
        raise ValueError("segment duration must be positive")
    rng = np.random.default_rng(seed)
    if initial is None:
        yaw = float(rng.uniform(-np.pi, np.pi))
        pitch = float(rng.uniform(-np.pi / 2.0, np.pi / 2.0))
        x0 = pose_to_se3(Pose6(scene.center, yaw=yaw, pitch=pitch))
    else:
        x0 = np.asarray(initial, dtype=float)
    lo, hi = scene.reachable_bounds()
    lo = lo + margin
    hi = hi - margin
    if np.any(lo >= hi):
        raise ValueError("margin leaves no room inside the reachable region")

    def segment_ok(x, u, n_steps):
        path = se3_path(x, u, dt, n_steps)
        p = path[:, :3, 3]
        if np.any(p < lo) or np.any(p > hi):
            return None
        return path[-1]

    segments = []
    x = x0
    elapsed = 0.0
    while elapsed < duration - 1e-9:
        seg = min(segment_duration, duration - elapsed)
        n_steps = _segment_steps(seg, dt)
        chosen = None
        for _ in range(40):
            axis = rng.normal(size=3)
            norm = float(np.linalg.norm(axis))
            omega = (axis / norm) * float(rng.uniform(0.0, ang_speed)) if norm > 0 else np.zeros(3)
            direction = rng.normal(size=3)
            norm = float(np.linalg.norm(direction))
            linear = (direction / norm) * float(rng.uniform(0.0, lin_speed)) if norm > 0 else np.zeros(3)
            u = twist(omega, linear)
            end = segment_ok(x, u, n_steps)
            if end is not None:
                chosen = (u, end)
                break
        if chosen is None:
            r_c = x[:3, :3].T
            to_center = scene.center - x[:3, 3]
            dist = float(np.linalg.norm(to_center))
            if dist == 0.0:
                u = twist(np.zeros(3), np.zeros(3))
            else:
                speed = min(lin_speed, dist / seg)
                u = twist(np.zeros(3), r_c @ (to_center / dist) * speed)
            end = segment_ok(x, u, n_steps)
            if end is None:
                raise TrajectoryOutOfRegionError("random walk could not stay inside the region")
            chosen = (u, end)
        segments.append((seg, chosen[0]))
        x = chosen[1]
        elapsed += seg
    return TrajectorySpec(initial=x0, segments=segments)


# ---------------------------------------------------------------------------
# Trajectory files


def _pose_from_json(doc: dict, context: str) -> np.ndarray:
    with _schema_errors(context):
        pose = Pose6(
            _numbers(_require(doc, "position", context), f"{context}.position", length=3),
            yaw=_number(doc.get("yaw", 0.0), f"{context}.yaw"),
            pitch=_number(doc.get("pitch", 0.0), f"{context}.pitch"),
            roll=_number(doc.get("roll", 0.0), f"{context}.roll"),
        )
    return pose_to_se3(pose)


def trajectory_from_json(doc: dict, scene: Scene, dt: float, context: str = "trajectory"):
    """(TrajectorySpec, initial estimate or None) from a parsed document.

    A random walk is generated at the simulation step ``dt``; its optional
    ``dt_s`` must equal it. Every segment ``duration_s``, and a walk's
    ``duration_s`` and ``segment_duration_s``, must be a whole number of
    ``dt`` steps, and the whole trajectory at most MAX_STEPS steps.
    """
    _check_schema(doc, context)
    x_hat0 = None
    if "initial_estimate" in doc:
        x_hat0 = _pose_from_json(doc["initial_estimate"], f"{context}.initial_estimate")
    if "random_walk" in doc:
        spec = doc["random_walk"]
        where = f"{context}.random_walk"
        duration = _number(_require(spec, "duration_s", where), f"{where}.duration_s", positive=True)
        segment = _number(spec.get("segment_duration_s", 0.5), f"{where}.segment_duration_s", positive=True)
        seed = _integer(_require(spec, "seed", where), f"{where}.seed")
        initial = _pose_from_json(spec["initial"], f"{where}.initial") if "initial" in spec else None
        if "dt_s" in spec:
            dt_s = _number(spec["dt_s"], f"{where}.dt_s", positive=True)
            if dt_s != dt:
                raise SchemaError(f"{where}.dt_s: {dt_s!r} differs from the simulation step {dt!r}")
        steps = _check_whole_steps(duration, dt, f"{where}.duration_s")
        _check_total_steps(steps, dt, f"{where}.duration_s")
        _check_whole_steps(segment, dt, f"{where}.segment_duration_s")
        with _schema_errors(where):
            walk = random_walk_trajectory(
                scene,
                duration=duration,
                seed=seed,
                segment_duration=segment,
                lin_speed=_number(spec.get("lin_speed_cm_s", 30.0), f"{where}.lin_speed_cm_s"),
                ang_speed=_number(spec.get("ang_speed_rad_s", 0.6), f"{where}.ang_speed_rad_s"),
                initial=initial,
                margin=_number(spec.get("margin_cm", 0.0), f"{where}.margin_cm"),
                dt=dt,
            )
        return walk, x_hat0
    if "initial" not in doc or "segments" not in doc:
        raise SchemaError(f"{context}: requires 'initial' and 'segments' (or 'random_walk')")
    initial = _pose_from_json(doc["initial"], f"{context}.initial")
    raw = doc["segments"]
    if not isinstance(raw, list):
        raise SchemaError(f"{context}: 'segments' must be an array")
    segments = []
    steps = 0
    for i, entry in enumerate(raw):
        where = f"{context}.segments[{i}]"
        duration = _number(_require(entry, "duration_s", where), f"{where}.duration_s", positive=True)
        steps += _check_whole_steps(duration, dt, f"{where}.duration_s")
        _check_total_steps(steps, dt, f"{where}.duration_s")
        omega = _numbers(entry.get("omega_rad_s", [0.0, 0.0, 0.0]), f"{where}.omega_rad_s", length=3)
        velocity = _numbers(entry.get("velocity_cm_s", [0.0, 0.0, 0.0]), f"{where}.velocity_cm_s", length=3)
        segments.append((duration, twist(omega, velocity)))
    with _schema_errors(context):
        return TrajectorySpec(initial=initial, segments=segments), x_hat0


def load_trajectory(path, scene: Scene, dt: float):
    return trajectory_from_json(_load_json(path, "trajectory"), scene, dt, context=f"trajectory {path}")
