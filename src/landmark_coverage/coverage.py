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
batched kernel at the bottom turns near focus, far focus and resolution into
exact float cuts on ``z`` and tests ``lo <= z <= hi`` per (row, cell,
plate).  A row is a camera position with its own plates (``PlateRows``): one
deployment shares its plates across all rows, and a stack of deployments,
such as a search generation, scores each deployment's run of rows against
its own plates, so a plate only ever occludes plates of its own row.  A
call of more than one row builds an occluder table from the box of its
camera positions: a plate is left out only where a ray-box bound, proven
against the test's float rounding, shows it blocks no camera in the box.
Once per call, every entry the table keeps is tested against every row of
its set in the scalar operation order, which gives the call's blocked
(row, plate) mask; a plate that fails its own gates still blocks in the
scalar rule.  Every entry point runs the core through ``_run_passes``,
which finds the depth cuts, the blocked mask and the shared axes' scaling
once per call, then cuts the rows into ``gate_passes``' passes, whose
temporaries stay small (``_CHUNK_ELEMENTS`` bounds the per-call arrays),
and reduces each pass before the next.  A pass tests the window of the
(plate, row) pairs that face the camera, have a non-empty window and are
not blocked, taken by flat index.  Shared axes rank each cell of a pair's
window as surely inside or surely outside by one float32 matrix product,
with a margin wider than a proven bound on its float error
(``_DEPTH_MARGIN``); only the cells within the margin get ``z``, in
float64 with the scalar path's expressions and operation order, which
per-row axes (a stack of poses) get for every pair.  A one-row call
has no table, and tests its pairs with a passing cell against every plate
of its row, a (targets, plates) broadcast.  Each pair's row
is copied once into a dense plate-major (plate, row, cell) mask:
``strengths_grid`` and ``axis_strengths`` return a (row, cell, plate) view
of it and ``cell_counts`` its sum over plates, so both equal the scalar
criteria bit for bit.
``masked_fsum`` turns the counts into P_n: an exact integer-limb product per
pass, rounded once per row, as ``math.fsum`` rounds.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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

# Cap on orientation cells, checked before a grid or a histogram over it is
# built; the packaged configs use at most 288.
MAX_CELLS = 1_000_000


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
        self._axes = None

    @classmethod
    def from_cells(cls, n_yaw: int, n_pitch: int) -> "OrientationGrid":
        if n_yaw < 1 or n_pitch < 1:
            raise ValueError("cell counts must be at least 1")
        if n_yaw * n_pitch > MAX_CELLS:
            raise ValueError(f"n_yaw x n_pitch = {n_yaw} x {n_pitch} cells, above the cap of {MAX_CELLS}")
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

    def axes(self) -> np.ndarray:
        """Optical axes for every cell, shape (n_cells, 3): ``rotations()[:, 2]``, bit for bit.

        Row 2 of ``rotation_from_angles(yaw, pitch, 0)`` is (cos p sin y,
        cos p cos y, sin p) with the other terms exact zeros, so one libm
        sine and cosine per sample and their outer products give it.
        """
        if self._axes is None:
            sin_y, cos_y = (np.array([f(y) for y in self.yaw.tolist()]) for f in (math.sin, math.cos))
            sin_p, cos_p = (np.array([f(p) for p in self.pitch.tolist()]) for f in (math.sin, math.cos))
            axes = np.empty((self.n_yaw, self.n_pitch, 3))
            axes[..., 0] = cos_p * sin_y[:, None]
            axes[..., 1] = cos_p * cos_y[:, None]
            axes[..., 2] = sin_p
            self._axes = axes.reshape(-1, 3)
        return self._axes


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

    @functools.cached_property
    def masked_fsum(self) -> "_MaskedFsum":
        """``masked_fsum`` over these weights, split into limbs once, on first use."""
        return _MaskedFsum(self.weights)


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
# resident memory.
np.empty(1 << 20)

# Cap on rows x max(cells, plates) x plates per gate-core pass. A pass's
# float temporaries are blocks over the L <= rows x plates (plate, row)
# pairs with a non-empty depth window, chiefly the float32 (L, cells)
# product that classifies the window; a one-row call's occlusion test adds
# a few float blocks over (targets, plates). No block then exceeds 2^18
# elements, 2 MiB at float64 and 1 MiB for the product, so one pass stays
# under the thresholds set above and reuses heap memory rather than
# faulting it in anew. The pass's (plates, rows, cells) bool mask is at
# most 2^18 bytes. The occluder table's build takes its elements in blocks
# of at most 2^18, and the call's blocked step, which holds about a dozen
# floats per element, in blocks of at most 2^13. Outside this budget lie
# two per-call bool arrays: the (B, K) blocked mask, bounded by the
# callers' row and plate caps (MAX_POSITIONS or MAX_STEPS rows, MAX_PLATES
# plates), and the (R·K, K) occluder table, at most 16 MiB for one set of
# MAX_PLATES and 64 MiB for a generation (ega.MAX_GENERATION_PAIRS).
_CHUNK_ELEMENTS = 262_144


def gate_passes(rows: int, cells: int, plates: int) -> list[slice]:
    """The passes that cut the rows ``[0, rows)``, as row slices in order.

    A pass holds at most ``_CHUNK_ELEMENTS // (max(cells, K) * K)`` rows,
    K = max(1, plates), and at least one.
    """
    k = max(1, plates)
    size = max(1, _CHUNK_ELEMENTS // (max(cells, k) * k))
    return [slice(start, min(start + size, rows)) for start in range(0, rows, size)]


class PlateRows(NamedTuple):
    """Plates per kernel row: ``positions`` and ``normals`` (R, K, 3), ``nu`` (R, K).

    The R sets score a call's B rows in R equal consecutive runs: R = 1
    shares one set among all rows, R = B gives each row its own, and R = m
    is m deployments at B / m positions each.
    """

    positions: np.ndarray
    normals: np.ndarray
    nu: np.ndarray

    @classmethod
    def of(cls, landmarks) -> "PlateRows":
        """``landmarks`` itself when it is PlateRows, else its plates shared by every row."""
        if isinstance(landmarks, cls):
            return landmarks
        plates = Deployment.of(landmarks)
        return cls(plates.positions[None], plates.normals[None], plates.nu[None])


def _run_passes(points, axes, plates: PlateRows, intrinsics, delta, thold, out, reduce):
    """The gate core over the B rows of ``points``: ``out[rows] = reduce(mask)`` per pass, in order.

    Once per call, before the passes, it finds the depth window's
    ``(fov_cos, z_near, hi)`` cuts, one ``_window_axes`` block for shared
    ``axes`` (1, G, 3), and, when B > 1, the (B, K) blocked mask from an
    occluder table over the box of the points: one row tests every plate
    in its pass, as a table would cost it more than it saves. Each pass
    takes its rows' sets of ``plates``, as ``PlateRows`` says, and mask rows.
    """
    points = np.asarray(points, dtype=float)
    n_rows, sets = len(points), len(plates.nu)
    if sets != 1 and n_rows != sets * (n_rows // max(sets, 1)):
        raise ValueError(f"{sets} plate sets do not split {n_rows} rows into equal runs")
    near, far = focus_depths(intrinsics, delta)
    z_near, z_far, z_res = _depth_cuts(near, far, intrinsics.magnification, max(intrinsics.s_u, intrinsics.s_v), thold)
    cuts = intrinsics.fov_cos, z_near, min(z_far, z_res)
    blocked = None
    if n_rows > 1:
        blocked = _blocked_mask(points, plates, _occluder_table(plates.positions, plates.nu, points))
    shared = axes.shape[0] == 1
    window = _window_axes(axes[0]) if shared else None
    for rows in gate_passes(n_rows, axes.shape[1], plates.nu.shape[-1]):
        run = None if sets == 1 else np.arange(rows.start, rows.stop) // (n_rows // sets)
        out[rows] = reduce(_live_gates(
            points[rows], axes if shared else axes[rows],
            plates if run is None else PlateRows(*(a.take(run, axis=0) for a in plates)),
            cuts, window, None if blocked is None else blocked[rows],
        ))
    return out


def strengths_grid(
    points: np.ndarray,
    rotations: np.ndarray,
    landmarks: Deployment | Sequence[Landmark] | PlateRows,
    intrinsics: CameraIntrinsics,
    delta: float,
    thold: float = 0.0,
) -> np.ndarray:
    """Measurable mask for every (position, rotation, landmark) triple.

    ``points`` is (B, 3) in cm, ``rotations`` is (G, 3, 3) world-to-camera,
    ``landmarks`` a Deployment, a Landmark sequence or per-position
    ``PlateRows``.  Returns a (B, G, K)
    bool array: True where the coverage strength is positive and reaches
    ``thold``, so ``thold == 0`` keeps the gates alone.  The mask equals the
    scalar criteria's bit for bit; a camera position coinciding with a
    landmark is never measurable instead of the scalar path's error.
    """
    return axis_strengths(points, rotations[None, :, 2, :], landmarks, intrinsics, delta, thold)


def axis_strengths(
    points: np.ndarray,
    axes: np.ndarray,
    landmarks: Deployment | Sequence[Landmark] | PlateRows,
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
    plates = PlateRows.of(landmarks)
    out = np.empty((plates.nu.shape[-1], len(points), axes.shape[1]), dtype=bool).transpose(1, 2, 0)
    return _run_passes(points, axes, plates, intrinsics, delta, thold, out, lambda mask: mask.transpose(1, 2, 0))


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


def _live_gates(points, axes, plates: PlateRows, cuts, window, blocked) -> np.ndarray:
    """The gate core: the (K, B, G) bool mask of measurable (plate, row, cell) triples.

    Every gate bounds the camera depth z = axis . (landmark - camera): z
    passes when ``lo <= z <= hi``, where ``lo = max(range * fov_cos,
    z_near)`` per (plate, row) and ``cuts`` is the call's ``(fov_cos,
    z_near, hi)``, ``hi = min(z_far, z_res)`` from ``_depth_cuts``. The L
    pairs that face the camera, have ``lo <= hi`` and are clear in
    ``blocked``, the pass's (B, K) rows of ``_blocked_mask``, are taken by
    flat index into the plate-major (K, B) arrays, which is their row of the
    mask. Their (L, G) window is tested by ``_classify_window`` when
    ``window``, the shared axes' ``_window_axes``, is given, and by
    ``_in_window`` with each pair's own row of ``axes`` when it is None.
    Without ``blocked`` (a one-row call) ``_occluded`` then tests the pairs
    with a passing cell against every plate. Each pair's row is copied once
    into the mask.
    """
    fov_cos, z_near, hi = cuts
    # landmark - camera, one plate-major (K, B) array per coordinate
    dx, dy, dz = (np.subtract(plates.positions[:, :, i].T, points[:, i], order="C") for i in range(3))
    ranges = np.sqrt((dx * dx + dy * dy) + dz * dz)
    lo = np.maximum(ranges * fov_cos, z_near)
    # The scalar facing > 0 on camera - landmark is exactly n . d < 0 here,
    # as negation is exact.
    n = plates.normals.T
    live = ((n[0] * dx + n[1] * dy) + n[2] * dz < 0) & (lo <= hi)
    if blocked is not None:
        live &= ~blocked.T
    live = np.flatnonzero(live)
    n_plates, n_rows = dx.shape
    px, py, pz, lo = (a.ravel()[live] for a in (dx, dy, dz, lo))
    if window is not None:
        gate = _classify_window(axes[0], px, py, pz, lo, hi, window)
    else:  # the pair's own row's axes, gathered per pair: (3, L, G)
        pair_axes = axes.take(live % n_rows, axis=0).transpose(2, 0, 1)
        gate = _in_window(pair_axes, px[:, None], py[:, None], pz[:, None], lo[:, None], hi)
    if blocked is None:
        # a pair with no passing cell adds nothing to the mask
        seen = np.flatnonzero(gate.any(axis=1))
        live, gate = live.take(seen), gate.take(seen, axis=0)
        gate[_occluded(dx, dy, dz, ranges, plates.nu, live)] = False
    mask = np.zeros((n_plates, n_rows, axes.shape[1]), dtype=bool)
    mask.reshape(n_plates * n_rows, axes.shape[1])[live] = gate
    return mask


def _in_window(a, px, py, pz, lo, hi) -> np.ndarray:
    """``lo <= z <= hi`` for the depth z = (a0 dx + a1 dy) + a2 dz, in the scalar order.

    ``a`` holds the three axis components, each broadcasting against the
    pair arrays ``px``, ``py``, ``pz`` and ``lo``.
    """
    z = (a[0] * px + a[1] * py) + a[2] * pz
    return (z >= lo) & (z <= hi)


# The depth-window classifier's margin, relative to t = s1·reach + mid +
# half. A pair's window lo <= z <= hi is |z - mid| <= half, with mid = 0.5
# lo + 0.5 hi and half = 0.5 hi - 0.5 lo, where reach = max(|dx|, |dy|,
# |dz|) and s is the largest 1-norm of the call's axes, as computed. Every
# window is two-sided: the classifier first caps each pair's hi at C =
# (reach·s)·(1 + 2^-40) + 2^-1022, in float64. No depth z of the pair
# exceeds C, so the cap moves no bit. Proof, for any finite input, with u
# = 2^-53: rounding is monotone and odd, so |z| is at most the
# scalar-order depth Z of |a| along (reach, reach, reach). Each product
# rounds to at most (1 + u) times its value plus 2^-1075 (underflow), each
# sum of non-negative floats to at most (1 + u) times its value (a sum
# that underflows is exact), and S = |a0| + |a1| + |a2| <= s/(1 - u)^2, so
# Z <= S·reach·(1 + u)^3 + 3·2^-1075·(1 + u)^2 < s·reach·(1 + 6u) +
# 2^-1073. The computed C is at least (s·reach·(1 - u)^2·(1 + 2^-40) -
# 2^-1073 + 2^-1022)·(1 - u), which is larger, as 2^-40 = 2^13·u; a step
# that overflows makes C infinite, a bound too. Let s1 = max(s, 1), 2^p
# the power of two with s1·2^-p in [1/2, 1), and 2^q the one with t·2^-q
# in [1/2, 1), per pair. The classifier takes c = [a·2^-p  1] .
# [d·2^(p-q); -mid·2^-q] in float32, from a matrix product of inputs
# rounded to float32 once each, so every scaled input is below 2 in
# magnitude (|d_i| <= reach and 2^p <= 2 s1) and no float32 overflows;
# with e = |c| - half·2^-q a cell surely passes where e < -m·2^-q and
# surely fails where e > m·2^-q. It compares |c| with the float32
# roundings of (half -/+ m)·2^-q. The bound, in units of 2^q, with v =
# 2^-24: let P = sum |a_i d_i|·2^-q <= s·reach·2^-q and M = mid·2^-q. The
# float32 roundings of the axes and of d add 2v P, that of mid v M; the
# four-term float32 dot product, in any summation order, with or without
# FMA, adds 4v (P + M) (Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, §3.1); the scalar-order float64 z is within 3u P of
# a.d; the float64 roundings of mid, half, t and half -/+ m add a few u t;
# the float32 roundings of the thresholds add v (half + m)·2^-q. So e is
# within 6v t + v m·2^-q + 8u t of the exact |z - mid| - half, to first
# order, as P + M + half·2^-q <= t. Float32 underflow, of a scaled input,
# a product or a threshold, adds at most 2^-146 absolutely, below 2^-145 t
# as t·2^-q >= 1/2; float64 underflow adds at most 2^-1071·2^-q. The
# margin 2^-18 = 64v leaves a factor 10 of slack for these terms and the
# second-order ones, and the floor 2^-1022 covers the float64 absolute
# errors. A t that is not finite, from a cap that overflows, gives an
# infinite margin: its cells all fall in the band. The scaling is np.ldexp's,
# bit for bit: a product with a power of two 2^e, -1074 <= e <= 1023,
# rounds once, as ldexp does. As p >= 1 and q <= 1024 (q = 0 where t is
# not finite), 2^(p-q) is such a power unless t < 2^(p-1024), and 2^-q is
# then 2^(p-q)·2^-p, exactly; in that corner the classifier calls ldexp.
# Two steps would not do: (d·2^p)·2^-q overflows where t nears the largest
# float, and (d·2^-q)·2^p rounds twice where d·2^-q is subnormal.
_DEPTH_MARGIN = 2.0**-18


def _window_axes(axes) -> tuple:
    """What ``_classify_window`` needs of G shared axis rows ``axes`` (G, 3).

    With s, s1 and p as in ``_DEPTH_MARGIN``'s comment, returns ``(s, s1,
    p, a)``, where ``a`` is the read-only (4, G) float32 block whose first
    three rows are the axes scaled by 2^-p and whose last row is ones.
    """
    s = float(np.abs(axes).sum(axis=1).max(initial=0.0))
    s1 = max(s, 1.0)
    p = math.frexp(s1)[1]
    a = np.ones((4, axes.shape[0]), dtype=np.float32)
    a[:3] = np.ldexp(axes.T, -p)
    a.setflags(write=False)
    return s, s1, p, a


def _classify_window(axes, px, py, pz, lo, hi, window) -> np.ndarray:
    """``_in_window``'s (L, G) mask for G shared axis rows ``axes`` (G, 3), from one float32 product.

    ``window`` is ``_window_axes(axes)``. With C, c, e and m as in
    ``_DEPTH_MARGIN``'s comment, each pair's far cut ``hi`` is capped at C;
    then a cell surely passes where ``e < -m`` and surely fails where ``e >
    m``. The cells between, or with e not a number, get ``_in_window``.
    """
    rows, lower, upper, hi = _window_rows(px, py, pz, lo, hi, window)
    c = rows @ window[3]
    np.abs(c, out=c)  # e + half·2^-q
    gate = c < lower
    # neither surely in nor surely out: c > upper and gate are never both set
    band = np.flatnonzero(np.equal(c > upper, gate))
    if band.size:
        l, g = np.divmod(band, axes.shape[0])
        gate[l, g] = _in_window(axes[g].T, px[l], py[l], pz[l], lo[l], hi[l])
    return gate


def _window_rows(px, py, pz, lo, hi, window) -> tuple:
    """``_classify_window``'s float32 (L, 4) rows, (L, 1) float32 cuts lower and upper, and capped hi.

    Rows [d·2^(p-q)  -mid·2^-q] and cuts (half -/+ m)·2^-q, as in
    ``_DEPTH_MARGIN``'s comment, scaled as ``np.ldexp`` scales them.
    """
    reach = np.maximum(np.maximum(np.abs(px), np.abs(py)), np.abs(pz))
    s, s1, p, _ = window
    rows = np.empty((px.size, 4), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):  # only where C or t is not finite
        hi = np.minimum((reach * s) * (1.0 + 2.0**-40) + 2.0**-1022, hi)
        mid = 0.5 * lo + 0.5 * hi
        half = 0.5 * hi - 0.5 * lo
        t = s1 * reach + mid + half
        m = _DEPTH_MARGIN * t + 2.0**-1022
        grow = np.ldexp(1.0, p - np.frexp(t)[1])  # 2^(p-q), infinite only where t < 2^(p-1024)
        scale = grow * 2.0**-p  # 2^-q
        for i, d in enumerate((px, py, pz)):
            np.multiply(d, grow, out=rows[:, i])
        np.multiply(-mid, scale, out=rows[:, 3])
        lower = ((half - m) * scale).astype(np.float32)[:, None]
        upper = ((half + m) * scale).astype(np.float32)[:, None]
    if grow.max(initial=0.0) == math.inf:  # the corner where 2^(p-q) is no float
        at = np.flatnonzero(grow == math.inf)
        minus_q = -np.frexp(t[at])[1][:, None]
        rows[at] = np.ldexp(np.stack((px, py, pz, -mid), axis=1)[at], minus_q + [p, p, p, 0])
        lower[at], upper[at] = (np.ldexp(x[at, None], minus_q) for x in (half - m, half + m))
    return rows, lower, upper, hi


def _sight_blocks(dots, nj, nk, nu) -> np.ndarray:
    """The scalar rule's test that plate j blocks target k, from their ranges, dot product and k's nu."""
    with np.errstate(divide="ignore", invalid="ignore"):
        c = dots / (nj * nk)
        perp = nj * np.sqrt(np.maximum(1.0 - c * c, 0.0))
    return (dots > 0) & (nj < nk) & (perp <= nu)


def _occluded(dx, dy, dz, ranges, nu, live) -> np.ndarray:
    """Whether another plate of the one row blocks each target plate in ``live``, shape (L,).

    A one-row call's test, without a table: ``dx``, ``dy``, ``dz`` and
    ``ranges`` are the row's (K, 1) arrays and ``nu`` its (1, K) radii.
    Every plate is tested against each target, as in the scalar rule (the
    target itself fails nj < nk), in (targets, K) blocks of at most
    ``_CHUNK_ELEMENTS`` elements.
    """
    dx, dy, dz, ranges, nu = (a.ravel() for a in (dx, dy, dz, ranges, nu))
    blocked = np.empty(live.size, dtype=bool)
    step = max(1, _CHUNK_ELEMENTS // max(1, dx.size))
    for start in range(0, live.size, step):
        k = live[start:start + step, None]  # (targets, 1) against the (K,) blockers
        dots = (dx * dx[k] + dy * dy[k]) + dz * dz[k]
        blocked[start:start + step] = _sight_blocks(dots, ranges, ranges[k], nu[k]).any(axis=1)
    return blocked


def _blocked_mask(points, plates: PlateRows, table) -> np.ndarray:
    """The (B, K) mask of the (row, plate) pairs that another plate of the row's set blocks.

    Each entry (set r, target k, blocker j) that the occluder ``table`` keeps
    is tested from every row of set r's run of the B ``points``, in the
    scalar order, in blocks of at most ``_CHUNK_ELEMENTS // 32`` elements.
    """
    n_rows, (sets, n_plates) = len(points), plates.nu.shape
    run = n_rows // max(sets, 1)
    blocked = np.zeros((n_rows, n_plates), dtype=bool)
    r, k, j = np.nonzero(table)
    at_k, at_j = r * n_plates + k, r * n_plates + j  # flat plate indices
    coords, nu = plates.positions.reshape(-1, 3).T, plates.nu.ravel()
    cameras = points.T.reshape(3, max(sets, 1), run)
    width = max(1, min(run, _CHUNK_ELEMENTS // 32))
    count = max(1, _CHUNK_ELEMENTS // 32 // width)
    for first, o in ((first, o) for first in range(0, r.size, count) for o in range(0, run, width)):
        e = slice(first, first + count)
        x = cameras[:, r[e] if sets > 1 else [0], o:o + width]  # (3, entries or 1, rows)
        ak, aj = coords[0, at_k[e], None] - x[0], coords[0, at_j[e], None] - x[0]
        nk2, nj2, dots = ak * ak, aj * aj, aj * ak
        for i in (1, 2):  # summed in the scalar order, one coordinate at a time
            ak, aj = coords[i, at_k[e], None] - x[i], coords[i, at_j[e], None] - x[i]
            nk2, nj2, dots = nk2 + ak * ak, nj2 + aj * aj, dots + aj * ak
        hit = np.flatnonzero(_sight_blocks(dots, np.sqrt(nj2), np.sqrt(nk2), nu[at_k[e], None]))
        entry, row = np.divmod(hit, x.shape[2])
        blocked[r[e][entry] * run + o + row, k[e][entry]] = True
    return blocked


# The occluder table's margin. Plate j is left out of plate k's row of the
# table only if the occlusion test above fails for it in float arithmetic
# from every camera X in the box [lo, hi] of the table's points. Proof, with
# u = 2^-53, S the largest magnitude of a plate or box coordinate, L = 4S,
# which bounds every distance between such points, m = margin·L and nu' =
# nu_k·(1 + margin) + m. The kernel rounds a_j = P_j - X and a_k = P_k - X
# per component, so they are the exact vectors from X to points P'_j and
# P'_k within u·L of P_j and P_k; let nj, nk, c and the distance be those of
# these vectors, exactly. The scalar-order dot is within γ3·nj·nk of a_j·a_k
# (Higham 2002, §3.1, with Cauchy–Schwarz), each range within 2.6u
# relatively and c within 11u, so 1 - c² is within 25u absolutely: near c =
# 1 this cancels, and its square root is within 5√u < 2^-24 of the exact
# sine. A test that blocks therefore means nj < nk(1 + 6u), a_j·a_k >
# -γ3·nj·nk, and a distance from P'_j to the sight line through X and P'_k
# of at most nu_k·(1 + 5u) + 2^-24·nj <= nu'. Put P'_k at 0, v = P'_j with
# s = |v|, and θ the angle between v and X, so that distance is s·sin θ <=
# nu'; take s > nu' (the other case is below). The range test gives v·X > s²/2 - 7u·nk² > 0, as s >= m =
# 2^-20·L and nk <= L, so θ < π/2; the dot test gives s·cos θ < nk(1 + 4u),
# so t = nk·cos θ >= s·cos²θ·(1 - 4u) >= s - nu' - 4u·s. X then lies within
# nk·sin θ <= (T + uL)·nu'/s of the point t·v/s, where T is P_k's distance
# to the farthest corner of the box, and t <= T + uL. Moving P' back to P
# moves s by 2uL, v/s by at most 2^-31 and that point by 2^-31·L + uL;
# rounding s, T, the radius, the segment ends and the slab bounds adds under
# 40u·L. So the table keeps j where the segment P_k + τ·v, τ in [(s - nu'
# - 2m)/s, (T + 2m)/s], meets the box inflated by ρ = (T + m)·nu'/s + 2m in
# every axis, which holds a ball of radius ρ around it: its radius and ends
# exceed the bounds above by more than m. Where s <= nu' for P', ρ exceeds T
# + m and τ = 0 is in range, so P_k itself, within T of every point of the
# box, keeps j: a plate that close to its target needs no test of its own.
# The slab test divides each axis's bounds by v_i. A zero v_i gives
# infinite bounds whose signs leave τ free where P_k's coordinate lies
# inside the inflated slab and leave no τ outside it, and 0/0 on its edge
# gives not a number; a bound that overflows is infinite, which only widens
# the box, and every comparison with not a number keeps j. Where S <=
# 2^-400, S >= 2^500 or S is not a number, every plate is kept: between
# them no square of the kernel overflows, every range the proof divides by
# exceeds 2^-420, and where nj <= nu' the distance is at most nj whatever
# underflow does.
_OCCLUDER_MARGIN = 2.0**-20


def _occluder_table(positions, nu, points) -> np.ndarray:
    """The (R, K, K) occluder table of plates ``positions`` (R, K, 3) and ``nu`` (R, K) seen from ``points``.

    ``[r, k, j]`` is False on the diagonal and where, by the bound in
    ``_OCCLUDER_MARGIN``'s comment, plate j of row r blocks plate k from no
    camera in the box of ``points`` (B, 3). The target rows go in blocks
    whose (3, K, targets) arrays hold at most ``_CHUNK_ELEMENTS`` elements.
    """
    n = nu.shape[-1]
    ends = np.ascontiguousarray(points.T)  # min and max along (3, B) take a tenth of their time along (B, 3)
    lo, hi = ends.min(axis=1, initial=math.inf), ends.max(axis=1, initial=-math.inf)
    flat = positions.reshape(-1, 3)
    scale = np.abs(np.concatenate((flat, (lo, hi)))).max()
    table = np.ones((nu.size, n), dtype=bool)
    if 2.0**-400 < scale < 2.0**500:
        m = _OCCLUDER_MARGIN * 4.0 * scale
        coords, targets = np.ascontiguousarray(positions.transpose(2, 1, 0)), np.ascontiguousarray(flat.T)
        box = np.stack((lo, hi))[:, :, None, None]
        step = max(1, _CHUNK_ELEMENTS // (3 * max(1, n)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # see the margin's comment
            reach = nu.ravel() * (1.0 + _OCCLUDER_MARGIN) + m
            far = np.sqrt(np.square(np.maximum(flat - lo, hi - flat)).sum(axis=1))
            for start in range(0, nu.size, step):
                t = slice(start, min(start + step, nu.size))  # target rows r·K + k
                p = targets[:, None, t]  # (3, 1, targets)
                v = coords.take(np.arange(start, t.stop) // n, axis=2) - p  # P_j - P_k, (3, K, targets)
                s, r, f = np.sqrt(np.square(v).sum(axis=0)), reach[t], far[t]
                inv = 1.0 / s
                rho = ((f + m) * r) * inv + 2.0 * m
                a, b = (box[0] - p - rho) / v, (box[1] - p + rho) / v
                enter = np.maximum(np.minimum(a, b).max(axis=0), (s - r - 2.0 * m) * inv)
                leave = np.minimum(np.maximum(a, b).min(axis=0), (f + 2.0 * m) * inv)
                table[t] = ~(enter > leave).T
    table = table.reshape(nu.shape[0], n, n)
    table[:, np.arange(n), np.arange(n)] = False
    return table


def coverage_caps(
    point,
    landmarks: Deployment | Sequence[Landmark],
    grid: OrientationGrid,
    intrinsics: CameraIntrinsics,
    params: CoverageParams,
) -> CapSet:
    """Spherical-cap masks for one camera position over the orientation grid."""
    p = np.asarray(point, dtype=float).reshape(1, 3)
    masks = axis_strengths(
        p, grid.axes()[None], landmarks, intrinsics, params.delta, params.thold
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
    landmarks: Deployment | Sequence[Landmark] | PlateRows,
    grid: OrientationGrid,
    intrinsics: CameraIntrinsics,
    params: CoverageParams,
) -> np.ndarray:
    """Covered-landmark counts per (position, cell), shape (B, G).

    The gate core's (K, B, G) mask, the one ``strengths_grid`` views,
    summed over its K plates. The counts are ``uint8`` below 256 plates,
    which no row can exceed, and ``np.intp`` from 256 plates up.
    """
    return _grid_passes(points, landmarks, grid, intrinsics, params, None)


def coverage_probabilities(
    points: np.ndarray,
    landmarks: Deployment | Sequence[Landmark] | PlateRows,
    grid: OrientationGrid,
    pdf: OrientationPdf,
    intrinsics: CameraIntrinsics,
    params: CoverageParams,
) -> np.ndarray:
    """n-fold coverage probability for a batch of positions: ``nple_probability``'s sum per row."""
    return _grid_passes(points, landmarks, grid, intrinsics, params, pdf)


def _grid_passes(points, landmarks, grid, intrinsics, params, pdf):
    """``cell_counts``, or with a ``pdf`` ``coverage_probabilities``, per pass of ``_run_passes``."""
    plates = PlateRows.of(landmarks)
    dtype = np.uint8 if plates.nu.shape[-1] < 256 else np.intp  # a row counts at most its own K plates
    out = np.empty((len(points), grid.n_cells), dtype) if pdf is None else np.empty(len(points))
    finish = (lambda counts: counts) if pdf is None else (lambda counts: pdf.masked_fsum(counts >= params.n))
    return _run_passes(
        points, grid.axes()[None], plates, intrinsics, params.delta, params.thold, out,
        lambda mask: finish(mask.view(np.uint8).sum(axis=0, dtype=dtype)),
    )


def masked_fsum(mask: np.ndarray, weights: np.ndarray):
    """Per row of a boolean (..., N) ``mask``, the ``math.fsum`` of the ``weights``
    where it is set, bit for bit; a float for a 1-D mask.
    """
    return _MaskedFsum(weights)(mask)


def split_weights(weights: np.ndarray) -> "_MaskedFsum":
    """``weights`` split into integer limbs once: a callable that takes a
    mask to ``masked_fsum(mask, weights)``, for weights summed many times.
    """
    return _MaskedFsum(weights)


class _MaskedFsum:
    """``masked_fsum`` over one weight vector, split into integer limbs once.

    Weights that are finite, not negative and not -0.0 are split at one
    binary exponent 2^E, E = min(frexp exponent) - 53, so that each is an
    integer W < 2^(e_max - E) times 2^E. With N weights and limbs of b = 53
    - ceil(log2(N + 1)) bits, W = W1·2^b + W0 whenever e_max - E <= 2b,
    which equal weights meet for any N < 2^26. A row's limb sums S0 and S1, from one
    float64 product of the mask with the (N, 2) limbs, are sums of at most
    N integers below 2^b, so every partial sum is an integer below 2^53
    and the product is exact in any order, with or without FMA. S1·2^b +
    S0 is then the row's exact sum over 2^E, rounded once to float64 as
    fsum rounds it, and its scaling by 2^E is exact: above 2^-1022 it stays
    normal, and below, the exact sum is a multiple of 2^-1074 under
    2^-1022, a subnormal, so neither step rounds. e_max + bit_length(N) <=
    1023 rules out overflow. Wider spans take one ``math.fsum`` per row.
    """

    def __init__(self, weights):
        self.weights = weights
        self.limbs = None
        width = 53 - len(weights).bit_length()
        if width < 1 or not np.isfinite(weights).all() or np.signbit(weights).any():
            return
        exponents = np.frexp(weights[weights > 0] if weights.any() else 1.0)[1]  # zero weights: zero limbs
        low, high = int(exponents.min()) - 53, int(exponents.max())
        if high - low <= 2 * width and high + len(weights).bit_length() <= 1023:
            whole = np.ldexp(weights, -low)
            top = np.floor(np.ldexp(whole, -width))
            self.limbs = np.stack((whole - np.ldexp(top, width), top), axis=1), 2.0**width, low

    def __call__(self, mask: np.ndarray):
        if self.limbs is not None:
            limbs, scale, low = self.limbs
            sums = mask @ limbs
            return np.ldexp(sums[..., 1] * scale + sums[..., 0], low)[()]
        out = np.empty(mask.shape[:-1])
        for row in np.ndindex(out.shape):
            out[row] = math.fsum(self.weights[mask[row]].tolist())
        return out[()]
