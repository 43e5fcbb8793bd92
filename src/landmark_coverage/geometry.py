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


# The plate field ranges, one (name, test, message) row per field. A test
# takes a float or an array of them, so Landmark checks its fields and
# Deployment.from_arrays its plate arrays through this one table. mu comes
# last, so that from_arrays can leave out a default zero roll.
_PLATE_FIELDS = (
    ("rho", lambda v: (v >= -math.pi) & (v < math.pi), "rho {} outside [-pi, pi)"),
    ("eta", lambda v: (v >= -math.pi / 2) & (v <= math.pi / 2), "eta {} outside [-pi/2, pi/2]"),
    ("nu", lambda v: (v > 0) & (v < math.inf), "nu must be a positive finite diameter, got {}"),
    ("mu", lambda v: (v >= -math.pi) & (v < math.pi), "mu {} outside [-pi, pi)"),
)


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
        for name, test, message in _PLATE_FIELDS:
            value = getattr(self, name)
            if not test(value):
                raise ValueError(message.format(value))


def landmark_normal(landmark: Landmark) -> np.ndarray:
    """Unit facing normal of a plate with yaw ``rho`` and pitch ``eta``.

    The scalar reference for ``Deployment.normals``, which takes the same
    expression on arrays of libm's cos and sin: numpy's SIMD versions are
    not guaranteed to match libm bit for bit.
    """
    cr, sr = math.cos(landmark.rho), math.sin(landmark.rho)
    ce, se = math.cos(landmark.eta), math.sin(landmark.eta)
    return np.array((-sr * ce, cr * ce, -se))


class Deployment:
    """An ordered set of plates, stored as read-only arrays.

    ``positions`` (K, 3) and ``rho``, ``eta``, ``mu``, ``nu`` (K,) are the
    plates; ``normals`` (K, 3) come from ``landmark_normal``'s expression
    on the same libm values, so the batched kernel sees exactly the values
    the scalar criteria use. ``Deployment(landmarks)`` stacks a Landmark
    sequence and keeps it; for ``from_arrays`` the ``landmarks`` tuple is
    built only when something asks for it.
    """

    def __init__(self, landmarks):
        landmarks = tuple(landmarks)
        self._store(
            np.array([lm.position for lm in landmarks]).reshape(len(landmarks), 3),
            *(np.array([getattr(lm, name) for lm in landmarks], dtype=float)
              for name in ("rho", "eta", "mu", "nu")),
        )
        self._landmarks = landmarks

    @classmethod
    def from_arrays(cls, positions, rho, eta, nu, mu=None) -> "Deployment":
        """Plates at ``positions`` (K, 3) with facing angles, diameters and roll (K,).

        ``mu`` defaults to zero roll. The values are copied and checked
        once, with the messages ``Landmark`` gives, prefixed by the plate
        as ``landmarks[k]``.
        """
        positions = np.array(positions, dtype=float)
        rho, eta, nu = (np.array(a, dtype=float) for a in (rho, eta, nu))
        roll = np.zeros(positions.shape[:1]) if mu is None else np.array(mu, dtype=float)
        if not (positions.ndim == 2 and positions.shape[1] == 3
                and rho.shape == eta.shape == nu.shape == roll.shape == positions.shape[:1]):
            shapes = ", ".join(str(a.shape) for a in (positions, rho, eta, nu, roll))
            raise ValueError(f"plate arrays must be positions (K, 3) and rho, eta, nu, mu (K,), got {shapes}")
        if not np.isfinite(positions).all():
            raise ValueError("vector components must be finite")
        # in _PLATE_FIELDS order; zip stops before mu when it is the default zero
        fields = (rho, eta, nu) if mu is None else (rho, eta, nu, roll)
        for (_, test, message), values in zip(_PLATE_FIELDS, fields):
            ok = test(values)
            if not ok.all():
                k = int(np.argmin(ok))
                raise ValueError(f"landmarks[{k}]: " + message.format(float(values[k])))
        plates = cls.__new__(cls)
        plates._store(positions, rho, eta, roll, nu)
        plates._landmarks = None
        return plates

    def _store(self, positions, rho, eta, mu, nu):
        self.positions, self.rho, self.eta, self.mu, self.nu = map(_read_only, (positions, rho, eta, mu, nu))
        # landmark_normal's expression on libm's values: IEEE products and
        # negations give the same bits in numpy as on Python floats
        cr, sr = (np.array(list(map(f, rho.tolist())), dtype=float) for f in (math.cos, math.sin))
        ce, se = (np.array(list(map(f, eta.tolist())), dtype=float) for f in (math.cos, math.sin))
        self.normals = _read_only(np.stack((-sr * ce, cr * ce, -se), axis=1))

    @property
    def landmarks(self) -> tuple[Landmark, ...]:
        """The plates as Landmark objects, built on first use."""
        if self._landmarks is None:
            fields = zip(*(a.tolist() for a in (self.rho, self.eta, self.mu, self.nu)))
            self._landmarks = tuple(Landmark(p, *f) for p, f in zip(self.positions, fields))
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

# Below this rotation angle A, B and C come from their Taylor series, each to
# theta^6; the first term left out is under 1e-19 there.
_SERIES_THETA = 0.02


# Pose rows: the top three rows of a rigid transform, row-major, as twelve
# Python floats (r00, r01, r02, t0, r10, ..., t2); the bottom row is implied.
# A step on them costs a few microseconds of float arithmetic, less than
# numpy's per-call overhead on the 4×4 product and the 3×3 blocks.


def twist_coords(U: np.ndarray) -> tuple:
    """The angular and linear rates ``(ωx, ωy, ωz, vx, vy, vz)`` of a twist matrix."""
    (_, _, wy, vx), (wz, _, _, vy), (_, wx, _, vz), _ = U.tolist()
    return wx, wy, wz, vx, vy, vz


def se3_exp_rows(wx: float, wy: float, wz: float, vx: float, vy: float, vz: float,
                 dt: float) -> tuple:
    """The pose rows of ``exp(U·dt)`` for the twist with rates ``twist_coords(U)``.

    With ``w`` the rotation vector and ``u`` the linear part of ``U·dt``,
    ``θ = |w|`` and ``W`` the skew matrix of ``w``, the closed form is
    (Murray, Li and Sastry 1994, §2.3; Barfoot 2017, §7.1)::

        R = I + A·W + B·W²,   t = (I + B·W + C·W²)·u,
        A = sin θ/θ,   B = 2·sin²(θ/2)/θ²,   C = (θ − sin θ)/θ³.

    ``W² = w·wᵀ − θ²·I``, so each diagonal entry is ``1 − B`` (or ``C``) times
    the other two squared components, which avoids cancelling against θ².
    Below θ = 0.02, A, B and C come from their Taylor series. A zero twist
    gives the identity exactly.
    """
    x, y, z = wx * dt, wy * dt, wz * dt
    u0, u1, u2 = vx * dt, vy * dt, vz * dt
    xx, yy, zz = x * x, y * y, z * z
    th2 = xx + yy + zz
    if th2 < _SERIES_THETA * _SERIES_THETA:
        a = 1.0 - th2 / 6.0 * (1.0 - th2 / 20.0 * (1.0 - th2 / 42.0))
        b = 0.5 - th2 / 24.0 * (1.0 - th2 / 30.0 * (1.0 - th2 / 56.0))
        c = 1.0 / 6.0 - th2 / 120.0 * (1.0 - th2 / 42.0 * (1.0 - th2 / 72.0))
    else:
        th = math.sqrt(th2)
        s = math.sin(th)
        h = math.sin(0.5 * th)
        a = s / th
        b = 2.0 * h * h / th2
        c = (th - s) / (th2 * th)
    xy, xz, yz = x * y, x * z, y * z
    v00, v11, v22 = 1.0 - c * (yy + zz), 1.0 - c * (xx + zz), 1.0 - c * (xx + yy)
    v01, v10 = c * xy - b * z, c * xy + b * z
    v02, v20 = c * xz + b * y, c * xz - b * y
    v12, v21 = c * yz - b * x, c * yz + b * x
    return (
        1.0 - b * (yy + zz), b * xy - a * z, b * xz + a * y, (v00 * u0 + v01 * u1) + v02 * u2,
        b * xy + a * z, 1.0 - b * (xx + zz), b * yz - a * x, (v10 * u0 + v11 * u1) + v12 * u2,
        b * xz - a * y, b * yz + a * x, 1.0 - b * (xx + yy), (v20 * u0 + v21 * u1) + v22 * u2,
    )


def se3_product_rows(p: tuple, e: tuple) -> tuple:
    """The pose rows of the product ``P·E`` of two rigid transforms, as computed.

    ``se3_compose_rows`` without its orthonormality check: a chain of these
    products is ``se3_compose_rows``' chain, bit for bit, as long as
    ``se3_rows_on_group`` accepts its poses.
    """
    p00, p01, p02, p03, p10, p11, p12, p13, p20, p21, p22, p23 = p
    e00, e01, e02, e03, e10, e11, e12, e13, e20, e21, e22, e23 = e
    return (
        (p00 * e00 + p01 * e10) + p02 * e20,
        (p00 * e01 + p01 * e11) + p02 * e21,
        (p00 * e02 + p01 * e12) + p02 * e22,
        ((p00 * e03 + p01 * e13) + p02 * e23) + p03,
        (p10 * e00 + p11 * e10) + p12 * e20,
        (p10 * e01 + p11 * e11) + p12 * e21,
        (p10 * e02 + p11 * e12) + p12 * e22,
        ((p10 * e03 + p11 * e13) + p12 * e23) + p13,
        (p20 * e00 + p21 * e10) + p22 * e20,
        (p20 * e01 + p21 * e11) + p22 * e21,
        (p20 * e02 + p21 * e12) + p22 * e22,
        ((p20 * e03 + p21 * e13) + p22 * e23) + p23,
    )


def se3_compose_rows(p: tuple, e: tuple) -> tuple:
    """The pose rows of the product ``P·E`` of two rigid transforms.

    It is ``se3_product_rows`` and a check: when the product's rotation
    drifts from orthonormal (an entry of ``RᵀR − I`` above
    ``_ORTHO_DRIFT_TOL``) it is replaced by ``project_to_rotation``, which
    keeps long integrations on the group. A chain that checks its poses a
    block at a time with ``se3_rows_on_group`` takes the same steps.
    """
    r = se3_product_rows(p, e)
    r00, r01, r02, t0, r10, r11, r12, t1, r20, r21, r22, t2 = r
    tol = _ORTHO_DRIFT_TOL
    if (
        abs((r00 * r00 + r10 * r10) + r20 * r20 - 1.0) > tol
        or abs((r01 * r01 + r11 * r11) + r21 * r21 - 1.0) > tol
        or abs((r02 * r02 + r12 * r12) + r22 * r22 - 1.0) > tol
        or abs((r00 * r01 + r10 * r11) + r20 * r21) > tol
        or abs((r00 * r02 + r10 * r12) + r20 * r22) > tol
        or abs((r01 * r02 + r11 * r12) + r21 * r22) > tol
    ):
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = project_to_rotation(
            [[r00, r01, r02], [r10, r11, r12], [r20, r21, r22]]
        ).tolist()
        return (r00, r01, r02, t0, r10, r11, r12, t1, r20, r21, r22, t2)
    return r


# What se3_rows_on_group leaves for the float error of the two evaluations
# of RᵀR − I, relative to 1 + tol: a pose passes when every entry of its
# stacked RᵀR − I is within tol − _GRAM_SLACK·(1 + tol). Proof, with u =
# 2^-53 and c_i the columns of R: an entry of RᵀR is a three-term dot
# product, which in any summation order, with or without FMA, is computed
# within γ3·|c_i|·|c_j| of its value, γ3 = 3u/(1 − 3u) (Higham, Accuracy and
# Stability of Numerical Algorithms, 2002, §3.1; |c_i|·|c_j| bounds the sum
# of the terms' magnitudes), plus 3·2^-1075 from underflow. Where the
# stacked diagonal passed, |c_i|² <= (1 + tol)/(1 − γ3). For tol < 1/2 a
# passing stacked diagonal entry and its scalar twin lie in [1/2, 2], so
# subtracting 1 is exact in both (Sterbenz), and abs is exact; a stacked
# entry outside [1/2, 2] still differs from 1 by 1/2 or more after rounding,
# so it fails. The scalar check in se3_compose_rows and the stacked one thus
# differ by at most 2γ3(1 + tol)/(1 − γ3) + 6·2^-1075 < 6.1u(1 + tol) per
# entry, and the computed threshold is within u·tol of its value: 8u(1 +
# tol) covers both. A tol of a few u makes the threshold negative, so every
# pose fails and every block is taken step by step.
_GRAM_SLACK = 8 * 2.0**-53


def se3_rows_on_group(rows: np.ndarray) -> bool:
    """Whether ``se3_compose_rows`` would keep every pose of ``rows`` as it is.

    ``rows`` is an (n, 12) array of pose rows, each one
    ``se3_product_rows``' product. One stacked ``RᵀR − I`` over their
    rotations is tested against ``_ORTHO_DRIFT_TOL`` less ``_GRAM_SLACK``'s
    allowance, so True means that no pose would be projected, whatever
    the summation order of either evaluation. False may be wrong, and is
    the answer for a rotation that is not a number.
    """
    r = rows.reshape(-1, 3, 4)[:, :, :3]
    drift = r.transpose(0, 2, 1) @ r
    drift.reshape(-1, 9)[:, ::4] -= 1.0  # RᵀR − I
    np.abs(drift, out=drift)
    tol = _ORTHO_DRIFT_TOL
    return bool(drift.max(initial=0.0) <= tol - _GRAM_SLACK * (1.0 + tol))


def se3_exp(U: np.ndarray, dt: float) -> np.ndarray:
    """The group exponential ``exp(U·dt)`` of a twist ``U``, as a 4×4 array."""
    e = se3_exp_rows(*twist_coords(U), dt)
    return np.array([e[0:4], e[4:8], e[8:12], (0.0, 0.0, 0.0, 1.0)])


# Poses that se3_path takes and checks as one block.
_PATH_CHUNK = 64


def _chain(x: tuple, e: tuple, steps: int, compose) -> list:
    """The pose rows after each of ``steps`` products ``x ← compose(x, e)``."""
    rows = []
    for _ in range(steps):
        x = compose(x, e)
        rows.append(x)
    return rows


def se3_path(X: np.ndarray, U: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """The poses after each of ``steps`` steps of a constant body twist.

    Returns shape (steps, 4, 4); entry i is ``X`` advanced by ``(i + 1)·dt``.
    The exponential of ``U·dt`` is taken once and every step multiplies the
    previous pose by it, on Python floats, as ``se3_compose_rows`` does. A
    block of ``_PATH_CHUNK`` poses is taken with ``se3_product_rows`` alone,
    written into the output and checked at once by ``se3_rows_on_group``;
    a block that fails is taken again with ``se3_compose_rows``, so every
    pose is the checked chain's, bit for bit.
    """
    e = se3_exp_rows(*twist_coords(U), dt)
    out = np.empty((steps, 4, 4))
    flat = out.reshape(steps, 16)
    flat[:, 12:] = (0.0, 0.0, 0.0, 1.0)
    x = X[:3].ravel().tolist()
    for start in range(0, steps, _PATH_CHUNK):
        n = min(_PATH_CHUNK, steps - start)
        block = flat[start:start + n, :12]
        rows = _chain(x, e, n, se3_product_rows)
        block[...] = rows
        if not se3_rows_on_group(block):
            rows = _chain(x, e, n, se3_compose_rows)
            block[...] = rows
        x = rows[-1]
    return out


def se3_step(X: np.ndarray, U: np.ndarray, dt: float) -> np.ndarray:
    """Advance a rigid transform by a constant body twist over ``dt``."""
    return se3_path(X, U, dt, 1)[0]


def pose_to_se3(pose: Pose6) -> np.ndarray:
    """Rigid transform carrying local coordinates to world coordinates."""
    return se3_matrix(pose.rotation().T, pose.position)


def frobenius_error(X_hat: np.ndarray, X: np.ndarray):
    """Squared Frobenius distance between two transforms, as a float.

    Given (N, 4, 4) stacks it returns the (N,) distances, each equal bit for
    bit to the one-pose call: every pose's squares are summed by one
    reduction over the last axis either way.
    """
    d = np.asarray(X_hat, dtype=float) - np.asarray(X, dtype=float)
    d *= d
    sums = d.reshape(*d.shape[:-2], -1).sum(axis=-1)
    return float(sums) if d.ndim == 2 else sums
