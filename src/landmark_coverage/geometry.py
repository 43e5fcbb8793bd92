"""Frames, rotations, rigid transforms, and the camera/landmark primitives.

Conventions
-----------
* World positions are in centimetres.  Camera optics (focal length, pixel
  pitch, aperture, depths) are in millimetres.  ``cm_to_mm`` is the single
  conversion point between the two.
* A frame is a ``Pose6``: position plus yaw/pitch/roll.  Rotation matrices
  map world coordinates into the frame: ``s_local = R @ (s_world - origin)``.
* At zero angles the local z-axis (a camera's optical axis) points along
  world +y, the local y-axis points along world -z (image "down"), and the
  local x-axis coincides with world +x.  Positive yaw turns the optical
  axis toward world +x, positive pitch tilts it toward world +z, and roll
  spins the image plane without moving the optical axis.
* A plate landmark faces along its unit normal; a landmark with zero
  yaw/pitch faces world +y, like a zero-angle camera.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Axis permutation between the world frame (z up) and the local camera frame
# (z along the optical axis, y down the image).
_AXIS_PERMUTATION = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0],
        [0.0, 1.0, 0.0],
    ]
)


MM_PER_CM = 10.0


def cm_to_mm(value):
    """Convert world lengths (cm) to optical lengths (mm)."""
    return MM_PER_CM * value


def as_vec3(value) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


def wrap_angle(angle: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return (angle + math.pi) % TWO_PI - math.pi


def rotation_from_angles(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """World-to-local rotation for yaw ``alpha``, pitch ``beta``, roll ``gamma``.

    The matrix is the roll/pitch/yaw factor product applied on top of the
    fixed axis permutation, so ``rotation_from_angles(0, 0, 0)`` returns the
    permutation itself.
    """
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    r_yaw = np.array([[ca, 0.0, -sa], [0.0, 1.0, 0.0], [sa, 0.0, ca]])
    r_pitch = np.array([[1.0, 0.0, 0.0], [0.0, cb, sb], [0.0, -sb, cb]])
    r_roll = np.array([[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]])
    return r_roll @ r_pitch @ r_yaw @ _AXIS_PERMUTATION


def apply_rotation(rotation: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Fixed left-to-right accumulation; the batched coverage kernel mirrors
    # this exact ordering so scalar and vector paths agree bitwise.
    x = (rotation[0, 0] * v[0] + rotation[0, 1] * v[1]) + rotation[0, 2] * v[2]
    y = (rotation[1, 0] * v[0] + rotation[1, 1] * v[1]) + rotation[1, 2] * v[2]
    z = (rotation[2, 0] * v[0] + rotation[2, 1] * v[1]) + rotation[2, 2] * v[2]
    return np.array([x, y, z])


@dataclass
class Pose6:
    """A frame origin with yaw/pitch/roll, e.g. a camera pose.

    yaw, roll are in [-pi, pi); pitch is in [-pi/2, pi/2].
    """

    position: np.ndarray
    yaw: float = 0.0
    pitch: float = 0.0
    roll: float = 0.0

    def __post_init__(self):
        self.position = as_vec3(self.position)
        for name in ("yaw", "pitch", "roll"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (-math.pi <= self.yaw < math.pi):
            raise ValueError(f"yaw {self.yaw} outside [-pi, pi)")
        if not (-math.pi / 2 <= self.pitch <= math.pi / 2):
            raise ValueError(f"pitch {self.pitch} outside [-pi/2, pi/2]")
        if not (-math.pi <= self.roll < math.pi):
            raise ValueError(f"roll {self.roll} outside [-pi, pi)")

    def rotation(self) -> np.ndarray:
        return rotation_from_angles(self.yaw, self.pitch, self.roll)


def world_to_local(point, frame: Pose6) -> np.ndarray:
    """Express a world point in ``frame`` coordinates (same units as input)."""
    p = as_vec3(point)
    return apply_rotation(frame.rotation(), p - frame.position)


def local_to_world(point, frame: Pose6) -> np.ndarray:
    p = as_vec3(point)
    return apply_rotation(frame.rotation().T, p) + frame.position


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class Landmark:
    """A flat directional plate at ``position`` (cm).

    rho/eta are the facing yaw/pitch, mu is the plate roll (stored for
    completeness; a flat plate images identically under roll), nu (cm) is
    the plate's virtual diameter used for line-of-sight blocking.  Plates
    are immutable: ``position`` is a read-only copy of the given vector, so
    a ``Deployment``'s plate arrays never go stale.
    """

    position: np.ndarray
    rho: float
    eta: float
    mu: float = 0.0
    nu: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "position", _read_only(as_vec3(self.position).copy()))
        if not (-math.pi <= self.rho < math.pi):
            raise ValueError(f"rho {self.rho} outside [-pi, pi)")
        if not (-math.pi / 2 <= self.eta <= math.pi / 2):
            raise ValueError(f"eta {self.eta} outside [-pi/2, pi/2]")
        if not (-math.pi <= self.mu < math.pi):
            raise ValueError(f"mu {self.mu} outside [-pi, pi)")
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise ValueError(f"nu must be a positive finite diameter, got {self.nu}")


def _facing_normal(rho: float, eta: float) -> tuple[float, float, float]:
    # The one normal expression: libm's cos/sin, which numpy's SIMD
    # versions are not guaranteed to match bit for bit.
    cr, sr = math.cos(rho), math.sin(rho)
    ce, se = math.cos(eta), math.sin(eta)
    return (-sr * ce, cr * ce, -se)


def landmark_normal(landmark: Landmark) -> np.ndarray:
    """Unit facing normal of a plate with yaw ``rho`` and pitch ``eta``."""
    return np.array(_facing_normal(landmark.rho, landmark.eta))


class Deployment:
    """An ordered set of plate landmarks, stored as read-only plate arrays.

    ``positions`` (K, 3), ``normals`` (K, 3) and ``nu`` (K,) are the
    storage. ``Deployment(landmarks)`` derives them from a Landmark sequence;
    ``Deployment.from_arrays`` takes them from plate angles directly, and
    the ``landmarks`` tuple is then built only when something asks for it.
    Either way the normals come from the scalar expression that
    ``landmark_normal`` uses, so the batched kernel sees exactly the values
    the scalar criteria use.
    """

    def __init__(self, landmarks):
        self._landmarks = tuple(landmarks)
        self._angles = None
        k = len(self._landmarks)
        self._store(
            np.array([lm.position for lm in self._landmarks]).reshape(k, 3),
            [(lm.rho, lm.eta) for lm in self._landmarks],
            np.array([lm.nu for lm in self._landmarks], dtype=float),
        )

    @classmethod
    def from_arrays(cls, positions, rho, eta, nu) -> "Deployment":
        """Plates at ``positions`` (K, 3) with facing angles and diameters (K,).

        Plate roll is zero. The values are checked once, with the messages
        ``Landmark`` gives, and copied.
        """
        positions = np.array(positions, dtype=float)
        rho, eta, nu = (np.array(a, dtype=float) for a in (rho, eta, nu))
        if not (positions.ndim == 2 and positions.shape[1] == 3
                and rho.shape == eta.shape == nu.shape == positions.shape[:1]):
            raise ValueError(
                f"plate arrays must be positions (K, 3) and rho, eta, nu (K,), got "
                f"{positions.shape}, {rho.shape}, {eta.shape}, {nu.shape}"
            )
        if not np.isfinite(positions).all():
            raise ValueError("vector components must be finite")
        checks = (
            (rho, (rho >= -math.pi) & (rho < math.pi), "rho {} outside [-pi, pi)"),
            (eta, (eta >= -math.pi / 2) & (eta <= math.pi / 2), "eta {} outside [-pi/2, pi/2]"),
            (nu, (nu > 0) & np.isfinite(nu), "nu must be a positive finite diameter, got {}"),
        )
        for values, ok, message in checks:
            if not ok.all():
                raise ValueError(message.format(float(values[~ok][0])))
        plates = cls.__new__(cls)
        plates._landmarks = None
        plates._angles = list(zip(rho.tolist(), eta.tolist()))
        plates._store(positions, plates._angles, nu)
        return plates

    def _store(self, positions: np.ndarray, angles, nu: np.ndarray):
        self.positions = _read_only(positions)
        self.normals = _read_only(
            np.array([_facing_normal(rho, eta) for rho, eta in angles]).reshape(len(angles), 3)
        )
        self.nu = _read_only(nu)

    @property
    def landmarks(self) -> tuple[Landmark, ...]:
        """The plates as Landmark objects, built on first use."""
        if self._landmarks is None:
            self._landmarks = tuple(
                Landmark(position, rho=rho, eta=eta, mu=0.0, nu=nu)
                for position, (rho, eta), nu in zip(self.positions, self._angles, self.nu.tolist())
            )
        return self._landmarks

    def __len__(self) -> int:
        return self.positions.shape[0]

    @classmethod
    def of(cls, plates) -> "Deployment":
        """``plates`` itself when it is a Deployment, else one built from the sequence."""
        return plates if isinstance(plates, cls) else cls(plates)


def normal_to_angles(normal) -> tuple[float, float]:
    """Recover (rho, eta) from a unit facing normal; inverse of landmark_normal."""
    n = as_vec3(normal)
    norm = math.sqrt(float(n @ n))
    if not math.isclose(norm, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError(f"normal must be unit length, got |n| = {norm}")
    eta = -math.asin(min(1.0, max(-1.0, float(n[2]))))
    if abs(n[0]) == 0.0 and abs(n[1]) == 0.0:
        rho = 0.0
    else:
        rho = math.atan2(-float(n[0]), float(n[1]))
        if rho == math.pi:
            rho = -math.pi
    return rho, eta


@dataclass
class CameraIntrinsics:
    """Pinhole camera parameters; lengths in mm, image sizes in pixels.

    d_s is the focusing distance and may be ``math.inf`` for a lens focused
    at infinity.
    """

    f: float
    s_u: float
    s_v: float
    o_u: float
    o_v: float
    width: int
    height: int
    d_a: float
    d_s: float

    def __post_init__(self):
        for name in ("f", "s_u", "s_v", "d_a"):
            if not (getattr(self, name) > 0 and math.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be positive and finite")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        if not (0 <= self.o_u <= self.width and 0 <= self.o_v <= self.height):
            raise ValueError("principal point must lie on the image")
        if not (self.d_s > self.f):
            raise ValueError("focusing distance must exceed the focal length")
        try:
            self.fov_cos
        except OverflowError:
            raise ValueError("intrinsics: the field-of-view tangent overflows") from None

    @property
    def infinite_focus(self) -> bool:
        return math.isinf(self.d_s)

    @property
    def magnification(self) -> float:
        """Focus-corrected focal factor; reduces to f for an infinity lens."""
        if self.infinite_focus:
            return self.f
        return self.f * self.d_s / (self.d_s - self.f)

    @property
    def half_extents_mm(self) -> tuple[float, float, float, float]:
        """Sensor half extents (top, bottom, left, right) from the principal point."""
        return (
            self.o_v * self.s_v,
            (self.height - self.o_v) * self.s_v,
            self.o_u * self.s_u,
            (self.width - self.o_u) * self.s_u,
        )

    @property
    def min_fov_tan(self) -> float:
        """Tangent of the tightest field-of-view half angle."""
        return min(self.half_extents_mm) / self.f

    @property
    def fov_cos(self) -> float:
        """Cosine of the tightest field-of-view half angle: the FOV cone's bound."""
        return 1.0 / math.sqrt(1.0 + self.min_fov_tan**2)


def fov_half_angles(intrinsics: CameraIntrinsics) -> tuple[float, float, float, float]:
    """Field-of-view half angles (top, bottom, left, right) in radians."""
    top, bottom, left, right = intrinsics.half_extents_mm
    f = intrinsics.f
    return (
        math.atan(top / f),
        math.atan(bottom / f),
        math.atan(left / f),
        math.atan(right / f),
    )


# ---------------------------------------------------------------------------
# Rigid transforms


def se3_matrix(rotation: np.ndarray, translation) -> np.ndarray:
    X = np.eye(4)
    X[:3, :3] = np.asarray(rotation, dtype=float)
    X[:3, 3] = as_vec3(translation)
    return X


def se3_inverse(X: np.ndarray) -> np.ndarray:
    R = X[:3, :3]
    out = np.eye(4)
    out[:3, :3] = R.T
    out[:3, 3] = -(R.T @ X[:3, 3])
    return out


def is_rotation(R: np.ndarray, tol: float = 1e-10) -> bool:
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        return False
    drift = np.abs(R.T @ R - np.eye(3)).max()
    return drift <= tol and abs(np.linalg.det(R) - 1.0) <= tol


def is_rigid_transform(X: np.ndarray, tol: float = 1e-10) -> bool:
    X = np.asarray(X, dtype=float)
    if X.shape != (4, 4):
        return False
    # a matrix exponential can leave ~1e-18 dust on the affine row
    if np.max(np.abs(X[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > tol:
        return False
    return is_rotation(X[:3, :3], tol) and bool(np.all(np.isfinite(X[:3, 3])))


def twist(omega, linear) -> np.ndarray:
    """Body twist matrix from angular rate omega and linear rate."""
    w = as_vec3(omega)
    v = as_vec3(linear)
    U = np.zeros((4, 4))
    U[0, 1], U[0, 2] = -w[2], w[1]
    U[1, 0], U[1, 2] = w[2], -w[0]
    U[2, 0], U[2, 1] = -w[1], w[0]
    U[:3, 3] = v
    return U


def is_twist(U: np.ndarray, tol: float = 1e-12) -> bool:
    U = np.asarray(U, dtype=float)
    if U.shape != (4, 4):
        return False
    if np.abs(U[3]).max() > 0.0:
        return False
    S = U[:3, :3]
    return np.abs(S + S.T).max() <= tol


def project_to_rotation(R: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense."""
    u, _, vt = np.linalg.svd(np.asarray(R, dtype=float))
    out = u @ vt
    if np.linalg.det(out) < 0:
        u[:, -1] = -u[:, -1]
        out = u @ vt
    return out


_ORTHO_DRIFT_TOL = 1e-9
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False

# scipy.linalg.expm, imported by the first se3_path call: importing scipy
# takes longer than most commands run, and only simulate needs it.
_expm = None


def se3_path(X: np.ndarray, U: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """The poses after each of ``steps`` steps of a constant body twist.

    Returns shape (steps, 4, 4); entry i is ``X`` advanced by ``(i + 1)·dt``.
    The exponential ``expm(U·dt)`` is taken once and every step multiplies
    the previous pose by it, re-orthonormalizing the rotation block when
    numerical drift exceeds a small threshold, which keeps long
    integrations on the group.
    """
    global _expm
    if _expm is None:
        from scipy.linalg import expm as _expm
    E = _expm(U * dt)
    out = np.empty((steps, 4, 4))
    for i in range(steps):
        Y = X @ E
        Y[3, :] = (0.0, 0.0, 0.0, 1.0)
        R = Y[:3, :3]
        if np.abs(R.T @ R - _EYE3).max() > _ORTHO_DRIFT_TOL:
            Y[:3, :3] = project_to_rotation(R)
        out[i] = X = Y
    return out


def se3_step(X: np.ndarray, U: np.ndarray, dt: float) -> np.ndarray:
    """Advance a rigid transform by a constant body twist over ``dt``."""
    return se3_path(X, U, dt, 1)[0]


def pose_to_se3(pose: Pose6) -> np.ndarray:
    """Rigid transform carrying local coordinates to world coordinates."""
    return se3_matrix(pose.rotation().T, pose.position)


def frobenius_error(X_hat: np.ndarray, X: np.ndarray) -> float:
    """Squared Frobenius distance between two transforms."""
    d = np.asarray(X_hat, dtype=float) - np.asarray(X, dtype=float)
    return float(np.sum(d * d))
