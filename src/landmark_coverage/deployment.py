"""Rooms, reachable-region grids, deployments, and coverage evaluation.

A scene is a rectangular room whose walls can carry plate landmarks, plus a
centered reachable cuboid discretized into camera positions, an orientation
grid with a density over it, camera intrinsics, and coverage thresholds.
Deployments are evaluated by the n-fold coverage probability at every
reachable position; the deployment cost is the relevance-weighted count of
positions whose probability reaches the qualification threshold.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .coverage import (
    MAX_CELLS,
    CoverageParams,
    OrientationGrid,
    OrientationPdf,
    PlateRows,
    coverage_probabilities,
    split_weights,
)
from .errors import (
    SCHEMA_VERSION,
    SchemaError,
    check_schema as _check_schema,
    check_seed as _check_seed,
    integer as _integer,
    load_json as _load_json,
    number as _number,
    numbers as _numbers,
    require as _require,
    schema_errors as _schema_errors,
)
from .geometry import CameraIntrinsics, Deployment, as_vec3, normal_to_angles

WALL_NAMES = ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max")

# Size caps checked before any array is built, so that a mistyped count
# exits 2 instead of getting the process killed for memory or running for
# days. The packaged configs use at most 1040 positions and 288 cells; the
# Table 3 analysis with 90 plates is 27M gate evaluations, of which the
# kernel computes a depth only for the live (position, plate) pairs (about
# 0.08 s on 2 vCPUs). A simulation keeps several arrays per step, 30 s at
# 0.01 s being 3000 steps; the packaged configs deploy at most 90 plates.
# Every occlusion block holds at most 2^18 elements, the gate core's block
# cap: at 4096 plates a one-pose pose_strengths call and a one-position
# evaluate_coverage each peak at about 9 MB of traced memory, and from two
# positions up the (4096, 4096) occluder table brings it to about 31 MB.
# The table and the call's (rows, plates) blocked mask lie outside the
# block cap, bounded by these caps; a search generation's table, one
# (plates, plates) block per chromosome, by ega.MAX_GENERATION_PAIRS.
# MAX_CELLS, the orientation-cell cap, is OrientationGrid.from_cells's.
MAX_POSITIONS = 1_000_000
MAX_GATE_EVALUATIONS = 10**10
MAX_STEPS = 1_000_000
MAX_PLATES = 4096


@dataclass(eq=False)
class Wall:
    """An axis-aligned rectangular wall patch with an inward normal."""

    name: str
    origin: np.ndarray
    u_dir: np.ndarray
    v_dir: np.ndarray
    u_len: float
    v_len: float
    normal: np.ndarray

    @property
    def area(self) -> float:
        return self.u_len * self.v_len

    def point(self, u: float, v: float) -> np.ndarray:
        return self.origin + (u * self.u_len) * self.u_dir + (v * self.v_len) * self.v_dir

    def locate(self, position, tol: float = 1e-6):
        """(u, v) of a position on this wall, or None when off the plane."""
        p = as_vec3(position)
        rel = p - self.origin
        if abs(float(rel @ self.normal)) > tol:
            return None
        u = float(rel @ self.u_dir) / self.u_len
        v = float(rel @ self.v_dir) / self.v_len
        if -1e-9 <= u <= 1 + 1e-9 and -1e-9 <= v <= 1 + 1e-9:
            return min(1.0, max(0.0, u)), min(1.0, max(0.0, v))
        return None


def standard_walls(length: float, width: float, height: float) -> list[Wall]:
    ex = np.array([1.0, 0.0, 0.0])
    ey = np.array([0.0, 1.0, 0.0])
    ez = np.array([0.0, 0.0, 1.0])
    zero = np.zeros(3)
    return [
        Wall("x_min", zero, ey, ez, width, height, ex),
        Wall("x_max", np.array([length, 0.0, 0.0]), ey, ez, width, height, -ex),
        Wall("y_min", zero, ex, ez, length, height, ey),
        Wall("y_max", np.array([0.0, width, 0.0]), ex, ez, length, height, -ey),
        Wall("z_min", zero, ex, ey, length, width, ez),
        Wall("z_max", np.array([0.0, 0.0, height]), ex, ey, length, width, -ez),
    ]


@dataclass(eq=False)
class Scene:
    """A room, its reachable-position grid, and all evaluation settings."""

    room: np.ndarray
    reachable: np.ndarray
    grid_shape: tuple[int, int, int]
    points: np.ndarray
    rel: np.ndarray
    grid: OrientationGrid
    pdf: OrientationPdf
    intrinsics: CameraIntrinsics
    params: CoverageParams
    thold_p: float
    nu_default: float
    walls: list[Wall]

    def __post_init__(self):
        # the one thold_p check, for make_scene and with_coverage alike
        if not (0.0 <= self.thold_p <= 1.0):
            raise ValueError(f"thold_p must lie in [0, 1], got {self.thold_p}")

    @property
    def center(self) -> np.ndarray:
        return self.room / 2.0

    @functools.cached_property
    def rel_fsum(self):
        """``masked_fsum`` over the ``rel`` weights, split into limbs once, on first use."""
        return split_weights(self.rel)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def reachable_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = self.center - self.reachable / 2.0
        return lo, lo + self.reachable

    def contains_reachable(self, position) -> np.ndarray:
        """Whether each position of a (..., 3) array lies in the reachable box."""
        lo, hi = self.reachable_bounds()
        p = np.asarray(position, dtype=float)
        return np.all((p >= lo) & (p <= hi), axis=-1)

    def with_coverage(self, n=None, thold_p=None, thold=None) -> "Scene":
        """A copy sharing all arrays, with coverage settings overridden."""
        params = replace(
            self.params,
            n=self.params.n if n is None else n,
            thold=self.params.thold if thold is None else thold,
        )
        return replace(
            self, params=params, thold_p=self.thold_p if thold_p is None else thold_p
        )

    def check_evaluation_size(self, plates: int) -> None:
        """Raise ValueError when positions x cells x plates exceeds MAX_GATE_EVALUATIONS."""
        count = self.n_points * self.grid.n_cells * plates
        if count > MAX_GATE_EVALUATIONS:
            raise ValueError(
                f"grid.nx x grid.ny x grid.nz positions ({self.n_points}) x orientation cells "
                f"({self.grid.n_cells}) x plates ({plates}) is {count} gate evaluations, "
                f"above the cap of {MAX_GATE_EVALUATIONS}"
            )


def make_scene(
    room_cm,
    reachable_cm,
    grid_shape,
    intrinsics,
    params: CoverageParams,
    thold_p: float,
    nu_default: float = 10.0,
    n_yaw: int = 24,
    n_pitch: int = 12,
    pdf="uniform",
    rel=None,
    wall_names: Sequence[str] | None = None,
) -> Scene:
    room = as_vec3(room_cm)
    reachable = as_vec3(reachable_cm)
    if np.any(room <= 0):
        raise ValueError("room extents must be positive")
    if np.any(reachable <= 0) or np.any(reachable > room):
        raise ValueError("reachable extents must be positive and fit inside the room")
    if not (nu_default > 0):
        raise ValueError("nu_default must be positive")

    try:
        shape = tuple(int(s) for s in grid_shape)
    except (ValueError, OverflowError):  # nan, inf
        shape = None
    # int() truncates, so a count that changes under it (2.7) is refused too
    if shape is None or len(shape) != 3 or shape != tuple(grid_shape) or any(s < 1 for s in shape):
        raise ValueError(f"grid shape must be three positive whole counts, got {tuple(grid_shape)}")
    if math.prod(shape) > MAX_POSITIONS:
        raise ValueError(
            f"grid.nx x grid.ny x grid.nz = {' x '.join(map(str, shape))} "
            f"positions, above the cap of {MAX_POSITIONS}"
        )
    lo = room / 2.0 - reachable / 2.0
    spacing = reachable / np.asarray(shape, dtype=float)
    axes = [lo[i] + (np.arange(shape[i]) + 0.5) * spacing[i] for i in range(3)]
    xs, ys, zs = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])

    grid = OrientationGrid.from_cells(n_yaw, n_pitch)
    if isinstance(pdf, str):
        if pdf not in ("uniform", "solid-angle"):
            raise ValueError(f"pdf must be 'uniform', 'solid-angle' or cell weights, got {pdf!r}")
        density = OrientationPdf.uniform(grid) if pdf == "uniform" else OrientationPdf.solid_angle(grid)
    elif isinstance(pdf, OrientationPdf):
        density = pdf
    else:
        density = OrientationPdf(np.asarray(pdf, dtype=float).ravel())
    if density.weights.size != grid.n_cells:
        raise ValueError("orientation density size must match the grid")

    if rel is None:
        rel_arr = np.ones(points.shape[0])
    else:
        rel_arr = np.asarray(rel, dtype=float).ravel()
        if rel_arr.shape != (points.shape[0],):
            raise ValueError("rel weights must match the position grid")
        with np.errstate(over="ignore"):  # every cost is a sum of rel weights: it must not overflow
            if not (np.all(rel_arr >= 0) and np.isfinite(rel_arr.sum())):
                raise ValueError("rel weights must be non-negative with a finite sum")

    names = tuple(wall_names) if wall_names is not None else WALL_NAMES
    bad = [n for n in names if n not in WALL_NAMES]
    if bad:
        raise ValueError(f"unknown wall names: {bad}")
    walls = [w for w in standard_walls(*room) if w.name in names]
    if not walls:
        raise ValueError("at least one wall must be active")

    return Scene(
        room=room,
        reachable=reachable,
        grid_shape=shape,
        points=points,
        rel=rel_arr,
        grid=grid,
        pdf=density,
        intrinsics=intrinsics,
        params=params,
        thold_p=thold_p,
        nu_default=nu_default,
        walls=walls,
    )


# ---------------------------------------------------------------------------
# Coverage evaluation


@dataclass(eq=False)
class CoverageMap:
    """n-fold coverage probability per reachable position, and whether it qualifies.

    ``p_n`` is (positions,), or (m, positions) for a stack of m deployments;
    ``qualified`` is derived, ``p_n >= thold_p``: the one place it is decided.
    ``rel_fsum`` is ``masked_fsum`` over ``rel`` with the weights split
    once, as a scene's ``rel_fsum`` gives it; a map built without it
    splits ``rel`` itself.
    """

    points: np.ndarray
    p_n: np.ndarray
    rel: np.ndarray
    n: int
    thold_p: float
    rel_fsum: Callable | None = field(default=None, repr=False)
    qualified: np.ndarray = field(init=False)

    def __post_init__(self):
        if np.any(self.p_n < 0) or np.any(self.p_n > 1 + 1e-9):
            raise ValueError("coverage probabilities must lie in [0, 1]")
        self.qualified = self.p_n >= self.thold_p
        if self.rel_fsum is None:
            self.rel_fsum = split_weights(self.rel)

    @property
    def cost(self):
        """Relevance-weighted count of qualified positions: a float, or (m,) for a stack."""
        return self.rel_fsum(self.qualified)

    def with_threshold(self, thold_p: float) -> "CoverageMap":
        return replace(self, thold_p=thold_p)


@dataclass
class DeploymentMetrics:
    qualified_ratio: float
    average_cp: float
    maximum_cp: float

    def __post_init__(self):
        if self.average_cp > self.maximum_cp + 1e-12:
            raise ValueError("average coverage cannot exceed the maximum")


def evaluate_coverages(scene: Scene, plates: Deployment, m: int) -> CoverageMap:
    """One coverage map of ``m`` deployments of equal size, stacked in ``plates``.

    Deployment i is plates ``[i * K, (i + 1) * K)``, K = len(plates) / m, and
    row i of the map: one ``coverage_probabilities`` call scores the scene's
    positions m times over, each run against its own deployment's plates,
    so row i equals deployment i's own ``evaluate_coverage``, ``cost`` included.
    """
    k = len(plates) // m if m else 0
    if len(plates) != m * k:
        raise ValueError(f"{len(plates)} plates do not split into {m} deployments of equal size")
    p_n = coverage_probabilities(
        np.tile(scene.points, (m, 1)),
        PlateRows(plates.positions.reshape(m, k, 3), plates.normals.reshape(m, k, 3), plates.nu.reshape(m, k)),
        scene.grid, scene.pdf, scene.intrinsics, scene.params,
    )
    return CoverageMap(
        points=scene.points, p_n=p_n.reshape(m, scene.n_points), rel=scene.rel, n=scene.params.n, thold_p=scene.thold_p,
        rel_fsum=scene.rel_fsum,
    )


def evaluate_coverage(scene: Scene, deployment) -> CoverageMap:
    """n-fold coverage probability at every reachable grid position: ``evaluate_coverages``' row at m = 1."""
    stack = evaluate_coverages(scene, Deployment.of(deployment), 1)
    return replace(stack, p_n=stack.p_n[0])


def cost(scene: Scene, deployment) -> float:
    """Relevance-weighted count of qualified positions (higher is better)."""
    return evaluate_coverage(scene, deployment).cost


def metrics(coverage_map: CoverageMap) -> DeploymentMetrics:
    """Qualified ratio plus average/maximum coverage probability of one deployment's map."""
    if coverage_map.p_n.ndim != 1 or coverage_map.p_n.size == 0:
        raise ValueError(f"metrics take one deployment's non-empty map, got shape {coverage_map.p_n.shape}")
    total = math.fsum(coverage_map.rel.tolist())
    if total <= 0:
        raise ValueError("total relevance must be positive")
    return DeploymentMetrics(
        qualified_ratio=coverage_map.cost / total,
        average_cp=float(np.mean(coverage_map.p_n)),
        maximum_cp=float(np.max(coverage_map.p_n)),
    )


# ---------------------------------------------------------------------------
# Deployment generators


def _wall_quotas(walls: Sequence[Wall], count: int) -> list[int]:
    total_area = sum(w.area for w in walls)
    quotas = [count * w.area / total_area for w in walls]
    base = [int(math.floor(q)) for q in quotas]
    leftover = count - sum(base)
    order = sorted(range(len(walls)), key=lambda i: (-walls[i].area, i))
    for i in range(leftover):
        base[order[i % len(order)]] += 1
    return base


def _near_square_layout(count: int, aspect: float) -> tuple[int, int]:
    cols = max(1, round(math.sqrt(count * aspect)))
    rows = math.ceil(count / cols)
    return rows, cols


def check_plate_count(count: int) -> None:
    """Raise ValueError unless a deployment of ``count`` plates is from 1 to MAX_PLATES."""
    if not 1 <= count <= MAX_PLATES:
        raise ValueError(f"count must be from 1 to {MAX_PLATES} plates, got {count}")


def generate_uniform(scene: Scene, count: int) -> Deployment:
    """Evenly spread landmarks over the active walls, facing inward.

    Wall quotas follow wall areas (remainders go to the largest walls) and
    each wall gets a near-square grid of plates at cell centers, filled row
    by row.
    """
    check_plate_count(count)
    positions, angles = [], []
    for wall, quota in zip(scene.walls, _wall_quotas(scene.walls, count)):
        rows, cols = _near_square_layout(quota, wall.u_len / wall.v_len)
        positions += [wall.point((n % cols + 0.5) / cols, (n // cols + 0.5) / rows) for n in range(quota)]
        angles += [normal_to_angles(wall.normal)] * quota
    return _plates_on_walls(scene, positions, angles)


def generate_random(scene: Scene, count: int, seed: int) -> Deployment:
    """Landmarks uniform over the active wall surfaces with random facing."""
    check_plate_count(count)
    rng = np.random.default_rng(_check_seed(seed))
    areas = np.array([w.area for w in scene.walls])
    probs = areas / areas.sum()
    positions, angles = [], []
    for _ in range(count):  # each plate draws its wall, u, v, rho and eta in turn
        wall = scene.walls[int(rng.choice(len(scene.walls), p=probs))]
        positions.append(wall.point(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
        angles.append((rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2)))
    return _plates_on_walls(scene, positions, angles)


def _plates_on_walls(scene: Scene, positions: list, angles: list) -> Deployment:
    """Plates of the scene's default radius at wall points with (rho, eta) facings."""
    rho, eta = np.array(angles).reshape(-1, 2).T
    return Deployment.from_arrays(np.array(positions), rho, eta, np.full(len(angles), scene.nu_default))


# ---------------------------------------------------------------------------
# File formats


def scene_from_config(doc: dict, context: str = "scene") -> Scene:
    _check_schema(doc, context)
    room = _require(doc, "room", context)
    reach = _require(doc, "reachable", context)
    grid = _require(doc, "grid", context)
    optics = _require(doc, "intrinsics", context)
    cov = _require(doc, "coverage", context)
    orientation = doc.get("orientation", {})
    if not isinstance(orientation, dict):
        raise SchemaError(f"{context}.orientation: expected an object, got {orientation!r}")
    walls = doc.get("walls")
    if walls is not None and not (isinstance(walls, list) and all(isinstance(w, str) for w in walls)):
        raise SchemaError(f"{context}.walls: expected an array of wall names, got {walls!r}")

    room_cm = [_number(_require(room, k, f"{context}.room"), f"{context}.room.{k}") for k in ("length_cm", "width_cm", "height_cm")]
    reach_cm = [_number(_require(reach, k, f"{context}.reachable"), f"{context}.reachable.{k}") for k in ("length_cm", "width_cm", "height_cm")]
    shape = [_integer(_require(grid, k, f"{context}.grid"), f"{context}.grid.{k}", positive=True) for k in ("nx", "ny", "nz")]

    yaw_step = _number(orientation.get("yaw_step_rad", math.pi / 12), f"{context}.orientation.yaw_step_rad", positive=True)
    pitch_step = _number(orientation.get("pitch_step_rad", math.pi / 12), f"{context}.orientation.pitch_step_rad", positive=True)
    # The cell counts OrientationGrid.from_steps rounds to, bounded per axis
    # first so that rounding never meets an overflowed step ratio, and then
    # refused per field where one rounds to no cell.
    n_yaw, n_pitch = 2.0 * math.pi / yaw_step, math.pi / pitch_step
    if not (n_yaw <= MAX_CELLS and n_pitch <= MAX_CELLS and round(n_yaw) * round(n_pitch) <= MAX_CELLS):
        raise SchemaError(
            f"{context}.orientation: yaw_step_rad {yaw_step!r} and pitch_step_rad {pitch_step!r} "
            f"give more than {MAX_CELLS} orientation cells"
        )
    for name, step, cells in (("yaw_step_rad", yaw_step, n_yaw), ("pitch_step_rad", pitch_step, n_pitch)):
        if round(cells) < 1:
            raise SchemaError(f"{context}.orientation.{name}: {step!r} is too coarse to give one orientation cell")

    pdf = doc.get("pdf", "uniform")
    if not isinstance(pdf, str):
        with _schema_errors(f"{context}.pdf"):
            pdf = OrientationPdf(_numbers(_require(pdf, "weights", f"{context}.pdf"), f"{context}.pdf.weights"))
    rel = doc.get("rel", "uniform")
    if rel == "uniform":
        rel = None
    else:
        rel = _numbers(_require(rel, "values", f"{context}.rel"), f"{context}.rel.values")

    with _schema_errors(context):
        intr = CameraIntrinsics(
            f=_number(_require(optics, "f_mm", f"{context}.intrinsics"), f"{context}.intrinsics.f_mm"),
            s_u=_number(_require(optics, "s_u_mm", f"{context}.intrinsics"), f"{context}.intrinsics.s_u_mm"),
            s_v=_number(_require(optics, "s_v_mm", f"{context}.intrinsics"), f"{context}.intrinsics.s_v_mm"),
            o_u=_number(_require(optics, "o_u_px", f"{context}.intrinsics"), f"{context}.intrinsics.o_u_px"),
            o_v=_number(_require(optics, "o_v_px", f"{context}.intrinsics"), f"{context}.intrinsics.o_v_px"),
            width=_integer(_require(optics, "width_px", f"{context}.intrinsics"), f"{context}.intrinsics.width_px"),
            height=_integer(_require(optics, "height_px", f"{context}.intrinsics"), f"{context}.intrinsics.height_px"),
            d_a=_number(_require(optics, "d_a_mm", f"{context}.intrinsics"), f"{context}.intrinsics.d_a_mm"),
            d_s=_number(optics.get("d_s_mm"), f"{context}.intrinsics.d_s_mm", null_is_inf=True),
        )
        params = CoverageParams(
            thold=_number(_require(cov, "thold", f"{context}.coverage"), f"{context}.coverage.thold"),
            delta=_number(_require(cov, "delta_px", f"{context}.coverage"), f"{context}.coverage.delta_px"),
            n=_integer(_require(cov, "n", f"{context}.coverage"), f"{context}.coverage.n"),
        )
        cells = OrientationGrid.from_steps(yaw_step, pitch_step)
        return make_scene(
            room_cm,
            reach_cm,
            shape,
            intrinsics=intr,
            params=params,
            thold_p=_number(_require(cov, "thold_p", f"{context}.coverage"), f"{context}.coverage.thold_p"),
            nu_default=_number(cov.get("nu_cm", 10.0), f"{context}.coverage.nu_cm"),
            n_yaw=cells.n_yaw,
            n_pitch=cells.n_pitch,
            pdf=pdf,
            rel=rel,
            wall_names=walls,
        )


def load_scene(path) -> Scene:
    return scene_from_config(_load_json(path, "scene"), context=f"scene {path}")


_PLATE_KEYS = ("x", "y", "z", "rho", "eta", "mu", "nu")


def deployment_to_json(deployment: Deployment) -> dict:
    columns = (*deployment.positions.T, deployment.rho, deployment.eta, deployment.mu, deployment.nu)
    return {
        "schema": SCHEMA_VERSION,
        "landmarks": [dict(zip(_PLATE_KEYS, row)) for row in zip(*(c.tolist() for c in columns))],
    }


def deployment_from_json(doc: dict, context: str = "deployment") -> Deployment:
    _check_schema(doc, context)
    entries = _require(doc, "landmarks", context)
    if not isinstance(entries, list):
        raise SchemaError(f"{context}: 'landmarks' must be an array")
    if len(entries) > MAX_PLATES:
        raise SchemaError(f"{context}.landmarks: {len(entries)} plates, above the cap of {MAX_PLATES}")
    rows = np.empty((len(entries), len(_PLATE_KEYS)))
    for i, entry in enumerate(entries):
        where = f"{context}.landmarks[{i}]"
        # mu is optional; "x" is read first, so entry is an object by then
        rows[i] = [
            _number(entry.get(key, 0.0) if key == "mu" else _require(entry, key, where), f"{where}.{key}")
            for key in _PLATE_KEYS
        ]
    with _schema_errors(context):
        return Deployment.from_arrays(rows[:, :3], rows[:, 3], rows[:, 4], rows[:, 6], mu=rows[:, 5])


def load_deployment(path) -> Deployment:
    return deployment_from_json(_load_json(path, "deployment"), context=f"deployment {path}")


def save_deployment(path, deployment: Deployment):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(deployment_to_json(deployment), fh, indent=2, sort_keys=True)
        fh.write("\n")
