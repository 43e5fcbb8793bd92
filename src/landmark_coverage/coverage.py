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
plate's camera depth ``z``, and each bound is monotone in ``z``, so the
batched kernel at the bottom turns near focus, far focus and resolution
into exact float cuts on ``z`` and tests ``lo <= z <= hi`` per (position,
cell, plate).  It runs the occlusion pass only on the (position, plate)
pairs that face the camera and whose window is not empty, and computes
``z`` only for the unblocked ones, with the scalar path's expressions and
operation order.  The mask (``strengths_grid``, ``axis_strengths``) and
the per-cell counts (``cell_counts``) come from that one core and equal
the scalar criteria bit for bit.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    CameraIntrinsics,
    Deployment,
    Landmark,
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
    ``thold``, so ``thold == 0`` keeps the gates alone.  The mask equals the
    scalar criteria's bit for bit; a camera position coinciding with a
    landmark is never measurable instead of the scalar path's error.
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
    out = np.zeros((points.shape[0], axes.shape[1], len(plates)), dtype=bool)
    b, k, gate = _live_gates(points, axes, plates, intrinsics, delta, thold)
    out[b, :, k] = gate.T
    return out


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


_INF_BITS = struct.unpack("<q", struct.pack("<d", math.inf))[0]


def _last_positive(holds) -> float:
    """The largest float in (0, inf] where ``holds``, or 0.0 where it holds nowhere.

    ``holds`` must hold on an initial stretch of the positive floats, whose
    bit patterns order as their values do, so a bisection on the pattern
    finds the last float where it holds.
    """
    good, bad = 0, _INF_BITS + 1  # 0.0 stands for "none"; bad is one past inf
    while bad - good > 1:
        mid = (good + bad) // 2
        if holds(_bits_float(mid)):
            good = mid
        else:
            bad = mid
    return _bits_float(good)


@functools.lru_cache(maxsize=256)
def _depth_cuts(
    near: float, far: float, magnification: float, s: float, thold: float
) -> tuple[float, float, float]:
    """Exact float cuts (z_near, z_far, z_res) on a plate's camera depth z in cm.

    For positive z, with the kernel's float expressions: ``cm_to_mm(z) >=
    near`` exactly when ``z >= z_near``, ``cm_to_mm(z) <= far`` exactly when
    ``z <= z_far``, and the resolution ``magnification / (cm_to_mm(z) * s)``
    reaches ``thold`` exactly when ``z <= z_res``.  Each expression is
    monotone in z, since float rounding is, so each gate is one interval of
    the float line.  A resolution divided by a product that underflows to 0
    is infinite, as numpy gives it.  ``z_near`` is positive, so a depth that
    passes it is positive too.
    """
    z_near = math.nextafter(_last_positive(lambda z: cm_to_mm(z) < near), math.inf)
    z_far = _last_positive(lambda z: cm_to_mm(z) <= far)

    def resolved(z):
        product = cm_to_mm(z) * s
        return (magnification / product if product else math.inf) >= thold

    return z_near, z_far, _last_positive(resolved)


def _live_gates(
    points: np.ndarray,
    axes: np.ndarray,
    plates: Deployment,
    intrinsics: CameraIntrinsics,
    delta: float,
    thold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gate core: pair indices ``b``, ``k`` (L,) and their (G, L) mask.

    Every gate bounds the camera depth z = axis . (landmark - camera): z
    passes when ``lo <= z <= hi``, where ``lo = max(range * fov_cos,
    z_near)`` per (position, plate) and ``hi = min(z_far, z_res)`` is one
    scalar from ``_depth_cuts``.  Only the pairs that face the camera and
    have ``lo <= hi`` go to the occlusion pass, and only the unblocked ones
    get a z, so the returned pairs are the live ones, in position order.
    """
    z_near, z_far, z_res = _depth_cuts(
        *focus_depths(intrinsics, delta),
        intrinsics.magnification,
        max(intrinsics.s_u, intrinsics.s_v),
        thold,
    )
    hi = min(z_far, z_res)
    # landmark - camera, one (B, K) array per coordinate
    dx, dy, dz = (plates.positions[None, :, i] - points[:, i, None] for i in range(3))
    ranges = np.sqrt((dx * dx + dy * dy) + dz * dz)
    lo = np.maximum(ranges * intrinsics.fov_cos, z_near)
    # The scalar facing > 0 on camera - landmark is exactly n . d < 0 here,
    # as negation is exact.
    n = plates.normals
    facing = (n[None, :, 0] * dx + n[None, :, 1] * dy) + n[None, :, 2] * dz
    b, k = np.nonzero((facing < 0) & (lo <= hi))

    # Occlusion: plate j blocks live pair (b, k) when it is nearer along a
    # sight line that passes within nu_k of it. j == k never blocks, as
    # nj < nk fails there. One (L, K) block per coordinate column.
    px, py, pz, nk = (a[b, k] for a in (dx, dy, dz, ranges))
    nj = ranges[b]
    dots = dx[b]
    dots *= px[:, None]
    scratch = dy[b]
    scratch *= py[:, None]
    dots += scratch
    np.take(dz, b, axis=0, out=scratch)
    scratch *= pz[:, None]
    dots += scratch
    blocked = (dots > 0) & (nj < nk[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.divide(dots, np.multiply(nj, nk[:, None], out=scratch), out=scratch)
        s2 = np.subtract(1.0, np.multiply(c, c, out=c), out=c)
        perp = np.multiply(nj, np.sqrt(np.maximum(s2, 0.0, out=s2), out=s2), out=s2)
    blocked &= perp <= plates.nu[k][:, None]
    clear = ~blocked.any(axis=1)
    b, k, px, py, pz = (a[clear] for a in (b, k, px, py, pz))

    # z = (a0 dx + a1 dy) + a2 dz for the unblocked pairs, (G, L). Axis
    # component rows are (G, 1) when shared, or gathered per pair.
    rows = axes[0].T[:, :, None] if axes.shape[0] == 1 else axes[b].transpose(2, 1, 0)
    z = rows[0] * px
    scratch = rows[1] * py
    z += scratch
    z += np.multiply(rows[2], pz, out=scratch)
    gate = z >= lo[b, k]
    gate &= z <= hi
    return b, k, gate


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
    """Covered-landmark counts per (position, cell), shape (B, G).

    The same gate core as ``strengths_grid``, whose mask summed over plates
    these counts are, but summed per position over its live pairs only.
    """
    points = np.asarray(points, dtype=float)
    plates = Deployment.of(landmarks)
    b, _, gate = _live_gates(
        points, grid.rotations()[None, :, 2, :], plates, intrinsics, params.delta, params.thold
    )
    counts = np.zeros((points.shape[0], grid.n_cells), dtype=np.intp)
    if b.size:
        first = np.flatnonzero(np.diff(b, prepend=-1))  # each position's first pair
        dtype = np.uint8 if len(plates) < 256 else np.intp
        counts[b[first]] = np.add.reduceat(gate.view(np.uint8), first, axis=1, dtype=dtype).T
    return counts


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
