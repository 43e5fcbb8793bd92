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

``epsilon``, ``injection``, ``observer_cost`` and ``project_to_twist`` are
the numpy reference forms of the math. The integrator, ``observer_step``
and the loop in ``simulate``, takes the same step on Python floats: the
correction needs of the visible plates only the 4×4 Gram matrix
``M = C_h C_hᵀ`` and the sum ``C_h·1``, so a step costs the same for any
number of plates, and ``simulate`` computes them once per distinct visible
set. ``simulate`` runs in blocks of ``_ERROR_BLOCK`` steps: it takes the
true poses' inverse rows from one numpy pass per block, multiplies each
step's exponential in with ``se3_product_rows`` alone and checks the
block's rotations at once with ``se3_rows_on_group``. A block that fails
the check is taken again step by step with ``se3_compose_rows``, so the
trace equals ``observer_step``'s chain bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coverage import axis_strengths
from .deployment import MAX_STEPS, Scene
from .errors import (
    EstimateDivergedError,
    SchemaError,
    TrajectoryOutOfRegionError,
    check_schema as _check_schema,
    check_seed as _check_seed,
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
    se3_compose_rows,
    se3_exp_rows,
    se3_inverse,
    se3_path,
    se3_product_rows,
    se3_rows_on_group,
    twist,
    twist_coords,
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


def _gram_terms(c_vis) -> tuple:
    """What the correction needs of a visible set ``C_h`` (4, K), as floats.

    Returns ``M = C_h C_hᵀ`` as 16 floats in column order, ``s = C_h·1`` and
    K. ``simulate`` computes them once per distinct visible set.
    """
    m = c_vis @ c_vis.T
    return tuple(m.T.ravel().tolist()), tuple(c_vis.sum(axis=1).tolist()), c_vis.shape[1]


def _inverse_rows(xs: np.ndarray) -> list:
    """The top rows ``[Rᵀ | j]`` of ``X⁻¹`` for each pose of an (n, 4, 4) stack, as lists of floats.

    ``j = −Rᵀt`` is summed in the scalar order, ``j_k = −((r0k·t0 + r1k·t1)
    + r2k·t2)``: numpy's elementwise products and sums round as Python's
    float operations do, so the rows are those of a per-pose loop.
    """
    r, t = xs[:, :3, :3], xs[:, :3, 3:]
    out = np.empty((len(xs), 3, 4))
    out[:, :, :3] = r.transpose(0, 2, 1)
    out[:, :, 3] = -((r[:, 0] * t[:, 0] + r[:, 1] * t[:, 1]) + r[:, 2] * t[:, 2])
    return out.reshape(len(xs), 12).tolist()


def _correction(xh, xi, terms, k_i: float, k0: float) -> tuple:
    """The rates ``twist_coords(epsilon + injection)`` on pose rows.

    ``xh`` holds the estimate's rows and ``xi`` those of the true pose's
    inverse, ``_inverse_rows``' ``[Rᵀ | j]``. With ``D`` the top three rows
    of ``X̂⁻¹ − X⁻¹`` (its bottom row is zero), the gradient ``err @
    c_hatᵀ`` is ``B = D·M·X̂⁻ᵀ``, and ``epsilon`` is
    ``project_to_twist(−k_i·B)``: the rotation rates come from the skew
    part of B's 3×3 block and the linear rates are ``−k_i`` times its last
    column, which is the last column of ``A = D·M``. The injection's
    outputs differ by ``q = D·s`` and its ``c_bar`` (here ``cb``) is
    ``X̂⁻¹·s / K``.
    """
    (m00, m10, m20, m30, m01, m11, m21, m31, m02, m12, m22, m32, m03, m13, m23, m33), s, count = terms
    h00, h01, h02, h03, h10, h11, h12, h13, h20, h21, h22, h23 = xh
    # X̂⁻¹ = [R̂ᵀ | i] and the three rows (dk0, dk1, dk2, dk3) of D
    i0 = -((h00 * h03 + h10 * h13) + h20 * h23)
    i1 = -((h01 * h03 + h11 * h13) + h21 * h23)
    i2 = -((h02 * h03 + h12 * h13) + h22 * h23)
    q00, q01, q02, q03, q10, q11, q12, q13, q20, q21, q22, q23 = xi
    d00, d01, d02, d03 = h00 - q00, h10 - q01, h20 - q02, i0 - q03
    d10, d11, d12, d13 = h01 - q10, h11 - q11, h21 - q12, i1 - q13
    d20, d21, d22, d23 = h02 - q20, h12 - q21, h22 - q22, i2 - q23
    # A = D·M
    a00 = ((d00 * m00 + d01 * m10) + d02 * m20) + d03 * m30
    a10 = ((d10 * m00 + d11 * m10) + d12 * m20) + d13 * m30
    a20 = ((d20 * m00 + d21 * m10) + d22 * m20) + d23 * m30
    a01 = ((d00 * m01 + d01 * m11) + d02 * m21) + d03 * m31
    a11 = ((d10 * m01 + d11 * m11) + d12 * m21) + d13 * m31
    a21 = ((d20 * m01 + d21 * m11) + d22 * m21) + d23 * m31
    a02 = ((d00 * m02 + d01 * m12) + d02 * m22) + d03 * m32
    a12 = ((d10 * m02 + d11 * m12) + d12 * m22) + d13 * m32
    a22 = ((d20 * m02 + d21 * m12) + d22 * m22) + d23 * m32
    a03 = ((d00 * m03 + d01 * m13) + d02 * m23) + d03 * m33
    a13 = ((d10 * m03 + d11 * m13) + d12 * m23) + d13 * m33
    a23 = ((d20 * m03 + d21 * m13) + d22 * m23) + d23 * m33
    # the off-diagonal entries B_kl = A_k·(row l of X̂⁻¹) of B's 3×3 block
    b01 = ((a00 * h01 + a01 * h11) + a02 * h21) + a03 * i1
    b02 = ((a00 * h02 + a01 * h12) + a02 * h22) + a03 * i2
    b10 = ((a10 * h00 + a11 * h10) + a12 * h20) + a13 * i0
    b12 = ((a10 * h02 + a11 * h12) + a12 * h22) + a13 * i2
    b20 = ((a20 * h00 + a21 * h10) + a22 * h20) + a23 * i0
    b21 = ((a20 * h01 + a21 * h11) + a22 * h21) + a23 * i1
    half = 0.5 * k_i
    wx, wy, wz = half * (b12 - b21), half * (b20 - b02), half * (b01 - b10)
    vx, vy, vz = -k_i * a03, -k_i * a13, -k_i * a23
    if k0 != 0.0:
        s0, s1, s2, s3 = s
        q0 = ((d00 * s0 + d01 * s1) + d02 * s2) + d03 * s3
        q1 = ((d10 * s0 + d11 * s1) + d12 * s2) + d13 * s3
        q2 = ((d20 * s0 + d21 * s1) + d22 * s2) + d23 * s3
        cb0 = (((h00 * s0 + h10 * s1) + h20 * s2) + i0 * s3) / count
        cb1 = (((h01 * s0 + h11 * s1) + h21 * s2) + i1 * s3) / count
        cb2 = (((h02 * s0 + h12 * s1) + h22 * s2) + i2 * s3) / count
        cb3 = s3 / count
        half = 0.5 * k0
        wx += half * (q2 * cb1 - q1 * cb2)
        wy += half * (q0 * cb2 - q2 * cb0)
        wz += half * (q1 * cb0 - q0 * cb1)
        vx += k0 * (q0 * cb3)
        vy += k0 * (q1 * cb3)
        vz += k0 * (q2 * cb3)
    return wx, wy, wz, vx, vy, vz


def _estimate_step(xh, xi, rates, terms, config: ObserverConfig, compose) -> tuple:
    """``observer_step`` on pose rows, the twist given by its rates; ``compose`` takes the product."""
    wx, wy, wz, vx, vy, vz = rates
    if terms[2]:
        cwx, cwy, cwz, cvx, cvy, cvz = _correction(xh, xi, terms, config.k_i, config.k0)
        wx, wy, wz, vx, vy, vz = wx - cwx, wy - cwy, wz - cwz, vx - cvx, vy - cvy, vz - cvz
    return compose(xh, se3_exp_rows(wx, wy, wz, vx, vy, vz, config.dt))


def observer_step(x_hat, x, u, c_vis, config: ObserverConfig) -> np.ndarray:
    """One integration step of the estimate under twist u.

    It is ``se3_step(x_hat, u − (epsilon + injection), dt)`` with the
    visible plates ``c_vis``, computed on Python floats through the Gram
    terms of ``c_vis``; the bottom rows of ``x_hat`` and ``x`` are not read.
    """
    x = np.asarray(x, dtype=float)
    rows = _estimate_step(
        x_hat[:3].ravel().tolist(), _inverse_rows(x[None])[0], twist_coords(u), _gram_terms(c_vis), config,
        se3_compose_rows,
    )
    return np.array([rows[0:4], rows[4:8], rows[8:12], (0.0, 0.0, 0.0, 1.0)])


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


def _check_step_angle(omega, dt: float, context: str, error=SchemaError) -> None:
    """Raise ``error`` for a rotation rate whose ``|omega·dt|²`` overflows, where ``se3_exp_rows`` takes sin(inf)."""
    x, y, z = (w * dt for w in omega)
    if not math.isfinite(x * x + y * y + z * z):
        raise error(f"{context}: {math.hypot(*omega)!r} rad/s overflows |omega * dt|^2 at dt {dt!r} s")


@dataclass(eq=False)
class TrajectorySpec:
    """Piecewise-constant body twists applied from an initial pose.

    A random walk's spec also keeps the poses it checked, as ``(dt, poses)``,
    for the initial pose and segments it was made with.
    """

    initial: np.ndarray
    segments: list[tuple[float, np.ndarray]]
    _path: tuple[float, np.ndarray] | None = field(default=None, init=False, repr=False)

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
        end pose. The poses have shape (steps + 1, 4, 4), the initial pose
        first. A random walk sampled at its own ``dt`` returns the read-only
        poses it checked, which are those. A segment whose rotation rate
        overflows ``|omega·dt|²`` raises ValueError naming its index.
        """
        steps = [_segment_steps(duration, dt) for duration, _ in self.segments]
        twists = [u for (_, u), n in zip(self.segments, steps) for _ in range(n)]
        if self._path is not None and self._path[0] == dt:
            return twists, self._path[1]
        for i, (_, u) in enumerate(self.segments):
            _check_step_angle(twist_coords(u)[:3], dt, f"segment {i}", ValueError)
        poses = np.empty((len(twists) + 1, 4, 4))
        poses[0] = self.initial
        end = 0
        for (_, u), n in zip(self.segments, steps):
            poses[end + 1:end + n + 1] = se3_path(poses[end], u, dt, n)
            end += n
        return twists, poses


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


# Steps per block of simulate's loop, and poses per stacked frobenius_error
# call. One block over the whole run would hold its Python rows, or an
# (N, 4, 4) temporary, beside the trace and raise the peak memory of a run
# by that much.
_ERROR_BLOCK = 256


def pose_strengths(x, landmarks, intrinsics, delta: float, thold: float = 0.0) -> np.ndarray:
    """Measurable mask of all landmarks seen from the pose X, shape (K,).

    ``x`` may also be a stack of poses (N, 4, 4), giving (N, K); each pose
    looks along its own optical axis, one cell of ``axis_strengths``, and
    every row equals the one-pose call bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-2:] != (4, 4) or x.ndim not in (2, 3):
        raise ValueError(f"expected a (4, 4) pose or an (N, 4, 4) stack, got shape {x.shape}")
    poses = x.reshape(-1, 4, 4)
    # the optical axes are the third rows of the world-to-camera rotations
    out = axis_strengths(poses[:, :3, 3], poses[:, None, :3, 2], landmarks, intrinsics, delta, thold)[:, 0]
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
    Each step is ``observer_step``'s, taken on pose rows, with the Gram
    terms of its visible set computed at the set's first step. The steps
    run in blocks of ``_ERROR_BLOCK``, checked as the module docstring
    says; a block that fails is taken again, visibility from the estimate
    included, so only one block of Python rows is held at a time. ``er`` is
    taken after the loop, a block of poses per ``frobenius_error`` call.
    An estimate that diverges past the float range raises
    EstimateDivergedError naming the first step whose ``er`` is not finite.
    """
    plates = Deployment.of(deployment)
    k = len(plates)
    c_h = np.vstack([plates.positions.T, np.ones(k)])
    x_hat = np.array(trajectory.initial if x_hat0 is None else x_hat0, dtype=float)
    if not is_rigid_transform(x_hat, tol=1e-8):
        raise ValueError("initial estimate must be a rigid transform")
    _, xs = trajectory.sample(config.dt)
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
    x_hats[0] = x_hat
    hat_rows = x_hats.reshape(count, 16)
    hat_rows[1:, 12:] = (0.0, 0.0, 0.0, 1.0)
    # the twist rates of every step, taken once per segment
    rates = [r for duration, u in trajectory.segments
             for r in (twist_coords(u),) * _segment_steps(duration, config.dt)]
    grams = {}  # the Gram terms of each distinct visible set, by its mask

    def advance(xh, inverses, start, compose):
        """Take the steps from ``start`` on and write the estimate rows after them into ``x_hats``.

        Returns the (n, 12) view of the rows written, the last of them and
        whether every step was taken: a step whose twist overflows ends it.
        """
        rows = []
        finished = True
        try:
            for i, xi in enumerate(inverses, start):
                if per_step:
                    hat_rows[i, :12] = xh
                    visible[i] = pose_strengths(x_hats[i], *gates)
                key = visible[i].tobytes()
                terms = grams.get(key)
                if terms is None:
                    terms = grams[key] = _gram_terms(c_h[:, visible[i]])
                xh = _estimate_step(xh, xi, rates[i], terms, config, compose)
                rows.append(xh)
        except ValueError:  # sin(inf) in se3_exp_rows: the correction twist overflowed
            finished = False
        block = hat_rows[start + 1:start + 1 + len(rows), :12]
        if rows:  # none when the first step overflowed
            block[...] = rows
        return block, xh, finished

    xh = x_hat[:3].ravel().tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged estimate is raised below
        for start in range(0, len(rates), _ERROR_BLOCK):
            inverses = _inverse_rows(xs[start:min(start + _ERROR_BLOCK, len(rates))])
            block, last, finished = advance(xh, inverses, start, se3_product_rows)
            if not se3_rows_on_group(block):
                block, last, finished = advance(xh, inverses, start, se3_compose_rows)
            if not finished:
                x_hats[start + 1 + len(block):] = math.nan
                break
            xh = last
        else:
            if per_step:
                visible[-1] = pose_strengths(x_hats[-1], *gates)
        er = np.empty(count)
        for start in range(0, count, _ERROR_BLOCK):
            stop = start + _ERROR_BLOCK
            er[start:stop] = frobenius_error(x_hats[start:stop], xs[start:stop])
    qualified = visible.sum(axis=1) >= scene.params.n
    finite = np.isfinite(er)
    if not finite.all():
        i = int(np.argmin(finite))
        raise EstimateDivergedError(f"the observer estimate diverged: its error is {er[i]} at step {i} (t={t[i]:.4f})")
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
    The checked poses are written into one array, which the spec's
    ``sample(dt)`` returns instead of integrating the segments again. An
    ``ang_speed`` whose ``|ang_speed·dt|²`` overflows raises ValueError.
    """
    for name, value in (("duration", duration), ("segment_duration", segment_duration), ("dt", dt)):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    for name, value in (("lin_speed", lin_speed), ("ang_speed", ang_speed)):
        if not (value >= 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
    # the largest rate a segment can draw, checked once for the walk
    _check_step_angle((ang_speed, 0.0, 0.0), dt, "ang_speed", ValueError)
    if not math.isfinite(margin):
        raise ValueError(f"margin must be finite, got {margin!r}")
    rng = np.random.default_rng(_check_seed(seed))
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

    lengths = []  # segment durations, the last one cut to end the walk at duration
    elapsed = 0.0
    while elapsed < duration - 1e-9:
        lengths.append(min(segment_duration, duration - elapsed))
        elapsed += lengths[-1]
    steps = [_segment_steps(seg, dt) for seg in lengths]
    poses = np.empty((sum(steps) + 1, 4, 4))
    poses[0] = x0

    def segment_ok(start, u, n_steps):
        """Integrate ``u`` from ``poses[start]`` into the poses after it; whether they stay inside."""
        path = poses[start + 1:start + n_steps + 1]
        path[...] = se3_path(poses[start], u, dt, n_steps)
        p = path[:, :3, 3]
        return bool(((p >= lo) & (p <= hi)).all())

    segments = []
    start = 0
    for seg, n_steps in zip(lengths, steps):
        chosen = None
        for _ in range(40):
            axis = rng.normal(size=3)
            norm = float(np.linalg.norm(axis))
            omega = (axis / norm) * float(rng.uniform(0.0, ang_speed)) if norm > 0 else np.zeros(3)
            direction = rng.normal(size=3)
            norm = float(np.linalg.norm(direction))
            linear = (direction / norm) * float(rng.uniform(0.0, lin_speed)) if norm > 0 else np.zeros(3)
            u = twist(omega, linear)
            if segment_ok(start, u, n_steps):
                chosen = u
                break
        if chosen is None:
            x = poses[start]
            r_c = x[:3, :3].T
            to_center = scene.center - x[:3, 3]
            dist = float(np.linalg.norm(to_center))
            if dist == 0.0:
                chosen = twist(np.zeros(3), np.zeros(3))
            else:
                speed = min(lin_speed, dist / seg)
                chosen = twist(np.zeros(3), r_c @ (to_center / dist) * speed)
            if not segment_ok(start, chosen, n_steps):
                raise TrajectoryOutOfRegionError("random walk could not stay inside the region")
        segments.append((seg, chosen))
        start += n_steps
    poses.setflags(write=False)
    walk = TrajectorySpec(initial=x0, segments=segments)
    walk._path = (dt, poses)
    return walk


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
        # a walk draws rotation rates up to ang_speed about random axes
        ang_speed = _number(spec.get("ang_speed_rad_s", 0.6), f"{where}.ang_speed_rad_s")
        _check_step_angle((ang_speed, 0.0, 0.0), dt, f"{where}.ang_speed_rad_s")
        with _schema_errors(where):
            walk = random_walk_trajectory(
                scene,
                duration=duration,
                seed=seed,
                segment_duration=segment,
                lin_speed=_number(spec.get("lin_speed_cm_s", 30.0), f"{where}.lin_speed_cm_s"),
                ang_speed=ang_speed,
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
        _check_step_angle(omega.tolist(), dt, f"{where}.omega_rad_s")
        velocity = _numbers(entry.get("velocity_cm_s", [0.0, 0.0, 0.0]), f"{where}.velocity_cm_s", length=3)
        segments.append((duration, twist(omega, velocity)))
    with _schema_errors(context):
        return TrajectorySpec(initial=initial, segments=segments), x_hat0


def load_trajectory(path, scene: Scene, dt: float):
    return trajectory_from_json(_load_json(path, "trajectory"), scene, dt, context=f"trajectory {path}")
