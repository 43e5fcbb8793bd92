"""Visibility criteria, coverage strength, and multiple-coverage probability.

A landmark is covered by a camera pose when four criteria hold at once:
adequate image resolution, containment in the field of view, containment in
the depth-of-field, and an unobstructed front-side line of sight.  Coverage
strength is the product of the four terms (the binary ones gate the
resolution value).  Sweeping the camera orientation over a yaw/pitch grid
turns per-landmark coverage into spherical caps, and integrating an
orientation density over the cells where at least ``n`` caps overlap gives
the n-fold coverage probability of a position.

The scalar criteria are the reference semantics.  Every gate bounds the
plate's camera depth ``z``, so the batched kernel at the bottom computes
only ``z`` and the plate ranges, with the same expressions and operation
ordering, and returns the thresholded mask bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    CameraIntrinsics,
    Deployment,
    Landmark,
    MM_PER_CM,
    Pose6,
    cm_to_mm,
    landmark_normal,
    rotation_from_angles,
    world_to_local,
)


@dataclass
class CoverageParams:
    """Coverage thresholds: strength cutoff, blur tolerance (px), fold count."""

    thold: float
    delta: float
    n: int

    def __post_init__(self):
        if not (self.thold >= 0 and math.isfinite(self.thold)):
            raise ValueError("thold must be finite and non-negative")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError("delta must be a positive pixel count")
        if self.n < 0:
            raise ValueError("n must be non-negative")


# ---------------------------------------------------------------------------
# Orientation grid and orientation density


@dataclass(eq=False)
class OrientationGrid:
    """Discrete camera orientations: yaw samples x pitch samples.

    Yaw samples are cell left edges starting at -pi; pitch samples are cell
    centers inside [-pi/2, pi/2].  Cell (i, j) has flat index
    ``i * n_pitch + j``.
    """

    yaw: np.ndarray
    pitch: np.ndarray

    def __post_init__(self):
        self.yaw = np.asarray(self.yaw, dtype=float)
        self.pitch = np.asarray(self.pitch, dtype=float)
        if self.yaw.ndim != 1 or self.yaw.size == 0:
            raise ValueError("yaw samples must be a non-empty 1-d array")
        if self.pitch.ndim != 1 or self.pitch.size == 0:
            raise ValueError("pitch samples must be a non-empty 1-d array")
        if np.any(np.diff(self.yaw) <= 0) or np.any(np.diff(self.pitch) <= 0):
            raise ValueError("orientation samples must be strictly increasing")
        if self.yaw[0] < -math.pi or self.yaw[-1] >= math.pi:
            raise ValueError("yaw samples must lie in [-pi, pi)")
        if self.pitch[0] < -math.pi / 2 or self.pitch[-1] > math.pi / 2:
            raise ValueError("pitch samples must lie in [-pi/2, pi/2]")
        self._rotations = None

    @classmethod
    def from_cells(cls, n_yaw: int, n_pitch: int) -> "OrientationGrid":
        if n_yaw < 1 or n_pitch < 1:
            raise ValueError("cell counts must be at least 1")
        yaw = -math.pi + np.arange(n_yaw) * (2.0 * math.pi / n_yaw)
        pitch = -math.pi / 2 + (np.arange(n_pitch) + 0.5) * (math.pi / n_pitch)
        return cls(yaw, pitch)

    @classmethod
    def from_steps(cls, yaw_step: float, pitch_step: float) -> "OrientationGrid":
        n_yaw = round(2.0 * math.pi / yaw_step)
        n_pitch = round(math.pi / pitch_step)
        return cls.from_cells(n_yaw, n_pitch)

    @property
    def n_yaw(self) -> int:
        return self.yaw.size

    @property
    def n_pitch(self) -> int:
        return self.pitch.size

    @property
    def n_cells(self) -> int:
        return self.yaw.size * self.pitch.size

    def cell_angles(self, index: int) -> tuple[float, float]:
        i, j = divmod(index, self.n_pitch)
        return float(self.yaw[i]), float(self.pitch[j])

    def rotations(self) -> np.ndarray:
        """World-to-camera rotations for every cell, shape (n_cells, 3, 3)."""
        if self._rotations is None:
            mats = np.empty((self.n_cells, 3, 3))
            for g in range(self.n_cells):
                a, b = self.cell_angles(g)
                mats[g] = rotation_from_angles(a, b, 0.0)
            self._rotations = mats
        return self._rotations


_WEIGHT_SUM_TOL = 1e-9


@dataclass(eq=False)
class OrientationPdf:
    """Probability mass per orientation cell, flat-indexed like the grid."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("weights must be a non-empty 1-d array")
        if not np.all(self.weights >= 0):
            raise ValueError("weights must be non-negative")
        total = math.fsum(self.weights.tolist())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {total}")

    @classmethod
    def uniform(cls, grid: OrientationGrid) -> "OrientationPdf":
        g = grid.n_cells
        return cls(np.full(g, 1.0 / g))

    @classmethod
    def solid_angle(cls, grid: OrientationGrid) -> "OrientationPdf":
        """Weights proportional to each cell's solid angle on the sphere."""
        cos_pitch = np.cos(grid.pitch)
        w = np.repeat(cos_pitch[None, :], grid.n_yaw, axis=0).ravel()
        return cls(w / w.sum())


# ---------------------------------------------------------------------------
# Scalar visibility criteria


def focus_depths(intrinsics: CameraIntrinsics, delta: float) -> tuple[float, float]:
    """Near and far in-focus depths (mm) for a blur tolerance of ``delta`` px.

    The far depth is infinite when the denominator is non-positive
    (everything beyond the near depth stays sharp), which always happens for
    a lens focused at infinity.
    """
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError("delta must be a positive pixel count")
    coc = delta * min(intrinsics.s_u, intrinsics.s_v)
    f, d_a, d_s = intrinsics.f, intrinsics.d_a, intrinsics.d_s
    if intrinsics.infinite_focus:
        return d_a * f / coc, math.inf
    near = d_a * d_s * f / (d_a * f + coc * (d_s - f))
    denom_far = d_a * f - coc * (d_s - f)
    if denom_far <= 0:
        return near, math.inf
    return near, d_a * d_s * f / denom_far


def resolution_criterion(
    landmark: Landmark, camera_pose: Pose6, intrinsics: CameraIntrinsics
) -> float:
    """Image resolution of the landmark in px/mm; requires positive depth."""
    z = cm_to_mm(world_to_local(landmark.position, camera_pose)[2])
    if z <= 0:
        raise ValueError("resolution undefined for non-positive camera depth")
    return intrinsics.magnification / (z * max(intrinsics.s_u, intrinsics.s_v))


def fov_criterion(
    landmark: Landmark, camera_pose: Pose6, intrinsics: CameraIntrinsics
) -> int:
    """1 when the landmark's depth reaches ``range * cos(half angle)``.

    That is a circular cone at the tightest image half angle (34.8 deg for
    the Table 3 camera, 42.9 deg horizontally), not the image rectangle.
    """
    z = float(world_to_local(landmark.position, camera_pose)[2])
    if z <= 0:
        return 0
    dx, dy, dz = landmark.position - camera_pose.position
    r = math.sqrt((dx * dx + dy * dy) + dz * dz)
    return 1 if z >= r * intrinsics.fov_cos else 0


def focus_criterion(
    landmark: Landmark,
    camera_pose: Pose6,
    intrinsics: CameraIntrinsics,
    delta: float,
) -> int:
    """1 when the landmark depth falls inside the depth-of-field."""
    z = cm_to_mm(world_to_local(landmark.position, camera_pose)[2])
    near, far = focus_depths(intrinsics, delta)
    return 1 if near <= z <= far else 0


def occlusion_criterion(k: int, landmarks: Sequence[Landmark], camera_position) -> int:
    """1 when landmark ``k`` shows its front side and no other plate blocks it.

    A plate ``j`` blocks when it sits strictly between camera and target and
    the sight line passes within the target's virtual diameter ``nu`` of it.
    Plates behind the target or at identical range never block.
    """
    target = landmarks[k]
    p = np.asarray(camera_position, dtype=float)
    wx = p[0] - target.position[0]
    wy = p[1] - target.position[1]
    wz = p[2] - target.position[2]
    nk = math.sqrt((wx * wx + wy * wy) + wz * wz)
    if nk == 0.0:
        raise ValueError("camera position coincides with the landmark")
    n = landmark_normal(target)
    facing = (n[0] * wx + n[1] * wy) + n[2] * wz
    if facing <= 0:
        return 0
    akx, aky, akz = -wx, -wy, -wz
    for j, other in enumerate(landmarks):
        if j == k:
            continue
        ajx = other.position[0] - p[0]
        ajy = other.position[1] - p[1]
        ajz = other.position[2] - p[2]
        dot = (ajx * akx + ajy * aky) + ajz * akz
        if dot <= 0:
            continue
        nj = math.sqrt((ajx * ajx + ajy * ajy) + ajz * ajz)
        if not nj < nk:
            continue
        c = dot / (nj * nk)
        s2 = 1.0 - c * c
        if s2 < 0.0:
            s2 = 0.0
        if nj * math.sqrt(s2) <= target.nu:
            return 0
    return 1


def coverage_strength(
    k: int,
    landmarks: Sequence[Landmark],
    camera_pose: Pose6,
    intrinsics: CameraIntrinsics,
    delta: float,
) -> float:
    """Product of the four criteria for landmark ``k``; 0 when any gate fails.

    The field-of-view gate runs first so the resolution term is only
    evaluated at positive depth.  Roll leaves every factor unchanged.
    """
    if fov_criterion(landmarks[k], camera_pose, intrinsics) == 0:
        return 0.0
    if focus_criterion(landmarks[k], camera_pose, intrinsics, delta) == 0:
        return 0.0
    if occlusion_criterion(k, landmarks, camera_pose.position) == 0:
        return 0.0
    return resolution_criterion(landmarks[k], camera_pose, intrinsics)


# ---------------------------------------------------------------------------
# Caps and coverage probability


@dataclass(eq=False)
class CapSet:
    """Per-landmark orientation masks at one camera position.

    ``masks[k, g]`` is True when landmark k's coverage strength at cell g
    reaches the threshold; ``nple`` marks cells where at least ``n`` masks
    overlap.
    """

    masks: np.ndarray
    n: int
    nple: np.ndarray

    def __post_init__(self):
        self.masks = np.asarray(self.masks, dtype=bool)
        self.nple = np.asarray(self.nple, dtype=bool)
        if self.masks.ndim != 2:
            raise ValueError("masks must be a (landmark, cell) matrix")
        if self.nple.shape != (self.masks.shape[1],):
            raise ValueError("nple mask length must match the cell count")
        if self.n < 0:
            raise ValueError("n must be non-negative")

    @property
    def counts(self) -> np.ndarray:
        return self.masks.sum(axis=0)


# glibc raises its mmap threshold to the size of a freed mmapped block of up
# to 32 MiB, and its trim threshold to twice that. Allocating and freeing one
# untouched 8 MiB block here keeps the kernel's float temporaries on the
# heap, rather than handed back to the OS and faulted in again on every
# call; importing scipy used to do this by accident. Untouched pages add no
# resident memory. deployment._CHUNK_ELEMENTS sizes its blocks to stay under
# these thresholds.
np.empty(1 << 20)


def strengths_grid(
    points: np.ndarray,
    rotations: np.ndarray,
    landmarks: Deployment | Sequence[Landmark],
    intrinsics: CameraIntrinsics,
    delta: float,
    thold: float = 0.0,
) -> np.ndarray:
    """Measurable mask for every (position, rotation, landmark) triple.

    ``points`` is (B, 3) in cm, ``rotations`` is (G, 3, 3) world-to-camera,
    ``landmarks`` a Deployment or a Landmark sequence.  Returns a (B, G, K)
    bool array: True where the coverage strength is positive and reaches
    ``thold``, so ``thold == 0`` keeps the gates alone.  Expressions and
    operation order mirror the scalar criteria exactly; a camera position
    coinciding with a landmark is never measurable instead of the scalar
    path's error.
    """
    return axis_strengths(points, rotations[None, :, 2, :], landmarks, intrinsics, delta, thold)


def axis_strengths(
    points: np.ndarray,
    axes: np.ndarray,
    landmarks: Deployment | Sequence[Landmark],
    intrinsics: CameraIntrinsics,
    delta: float,
    thold: float = 0.0,
) -> np.ndarray:
    """Measurable mask for positions looking along given optical axes.

    ``axes`` holds optical-axis rows (the third row of a world-to-camera
    rotation), broadcastable as (B or 1, G, 3): one set of G rows shared by
    all B positions, as ``strengths_grid`` passes, or one row per position,
    (B, 1, 3), for a stack of poses.  Otherwise as ``strengths_grid``, whose
    (B, G, K) mask this is, bit for bit.
    """
    points = np.asarray(points, dtype=float)
    plates = Deployment.of(landmarks)
    if len(plates) == 0:
        return np.zeros((points.shape[0], axes.shape[1], 0), dtype=bool)

    d = plates.positions[None, :, :] - points[:, None, :]  # (B, K, 3) landmark - camera
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    ranges = np.sqrt((dx * dx + dy * dy) + dz * dz)  # (B, K)
    r = axes[..., None]  # (B or 1, G, 3, 1)
    z, scratch = np.empty((2, d.shape[0], r.shape[1], d.shape[1]))
    np.multiply(r[:, :, 0], dx[:, None, :], z)
    z += np.multiply(r[:, :, 1], dy[:, None, :], scratch)
    z += np.multiply(r[:, :, 2], dz[:, None, :], scratch)

    visible = (z > 0) & (z >= (ranges * intrinsics.fov_cos)[:, None, :])
    np.multiply(MM_PER_CM, z, z)  # cm_to_mm in place
    near, far = focus_depths(intrinsics, delta)
    visible &= (z >= near) & (z <= far)
    if thold > 0:
        resolution = np.multiply(z, max(intrinsics.s_u, intrinsics.s_v), scratch)
        with np.errstate(divide="ignore"):
            np.divide(intrinsics.magnification, resolution, resolution)
        visible &= resolution >= thold
    visible &= _occlusion_grid(d, ranges, plates)[:, None, :]
    return visible


def _occlusion_grid(d: np.ndarray, ranges: np.ndarray, plates: Deployment) -> np.ndarray:
    """Orientation-independent occlusion pass for every (position, landmark).

    ``d`` is landmark - camera with norms ``ranges``; the scalar ``facing > 0``
    on camera - landmark is exactly ``n . d < 0`` here, as negation is exact.
    """
    normals = plates.normals
    ax, ay, az = d[..., 0], d[..., 1], d[..., 2]
    facing = (normals[None, :, 0] * ax + normals[None, :, 1] * ay) + normals[None, :, 2] * az

    dots = (
        (ax[:, :, None] * ax[:, None, :] + ay[:, :, None] * ay[:, None, :])
        + az[:, :, None] * az[:, None, :]
    )  # (B, j, k)
    nj = ranges[:, :, None]
    nk = ranges[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = dots / (nj * nk)
    s2 = 1.0 - c * c
    s2 = np.maximum(s2, 0.0)
    with np.errstate(invalid="ignore"):
        perp = nj * np.sqrt(s2)
    blocked_pair = (dots > 0) & (nj < nk) & (perp <= plates.nu[None, None, :])
    k_idx = np.arange(len(plates))
    blocked_pair[:, k_idx, k_idx] = False
    blocked = blocked_pair.any(axis=1)
    return (facing < 0) & ~blocked


def coverage_caps(
    point,
    landmarks: Deployment | Sequence[Landmark],
    grid: OrientationGrid,
    intrinsics: CameraIntrinsics,
    params: CoverageParams,
) -> CapSet:
    """Spherical-cap masks for one camera position over the orientation grid."""
    p = np.asarray(point, dtype=float).reshape(1, 3)
    masks = strengths_grid(
        p, grid.rotations(), landmarks, intrinsics, params.delta, params.thold
    )[0].T  # (K, G)
    counts = masks.sum(axis=0)
    return CapSet(masks=masks, n=params.n, nple=counts >= params.n)


def nple_probability(caps: CapSet, pdf: OrientationPdf) -> float:
    """Probability that a random orientation covers at least n landmarks."""
    if pdf.weights.size != caps.nple.size:
        raise ValueError(
            f"pdf has {pdf.weights.size} cells but cap set has {caps.nple.size}"
        )
    return math.fsum(pdf.weights[caps.nple].tolist())


def cell_counts(
    points: np.ndarray,
    landmarks: Deployment | Sequence[Landmark],
    grid: OrientationGrid,
    intrinsics: CameraIntrinsics,
    params: CoverageParams,
) -> np.ndarray:
    """Covered-landmark counts per (position, cell), shape (B, G)."""
    return strengths_grid(
        points, grid.rotations(), landmarks, intrinsics, params.delta, params.thold
    ).sum(axis=2)


def coverage_probabilities(
    points: np.ndarray,
    landmarks: Deployment | Sequence[Landmark],
    grid: OrientationGrid,
    pdf: OrientationPdf,
    intrinsics: CameraIntrinsics,
    params: CoverageParams,
) -> np.ndarray:
    """n-fold coverage probability for a batch of positions.

    Each row is the ``fsum`` of the weights of the cells with at least ``n``
    covered plates, as ``nple_probability`` takes it. When every weight is
    the same ``w``, that sum of ``c`` copies is the exact ``c * w`` rounded
    once, which is the float product ``c * w``, so the uniform case reduces
    with one count per row.
    """
    counts = cell_counts(points, landmarks, grid, intrinsics, params)
    weights = pdf.weights
    if (weights == weights[0]).all():
        return np.count_nonzero(counts >= params.n, axis=1) * weights[0]
    out = np.empty(counts.shape[0])
    for b in range(counts.shape[0]):
        out[b] = math.fsum(weights[counts[b] >= params.n].tolist())
    return out
