"""Elitist genetic search over landmark deployments.

Chromosomes are flat float vectors, five genes per landmark. In wall
encoding the genes are (wall index, u, v, rho, eta) with u and v fractional
wall coordinates; in free encoding they are (x, y, z, rho, eta). Fitness is
the deployment cost: the relevance-weighted count of qualified reachable
positions.

Each generation keeps an exact copy of the best chromosome, replaces the Q
worst of the rest with fresh random chromosomes, recombines the remainder in
shuffled pairs by swapping a contiguous gene segment, and mutates every
non-elite chromosome genewise with probability psi. Q = 0 gives the plain
elitist variant with no replacement step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace as _dc_replace

import numpy as np

from .deployment import Deployment, Scene, cost

logger = logging.getLogger(__name__)

GENES_PER_LANDMARK = 5


@dataclass(eq=False)
class GeneSpace:
    """Bounds and coding for chromosomes of a fixed landmark count."""

    scene: Scene
    count: int
    encoding: str
    draw_lo: np.ndarray = field(init=False)
    draw_hi: np.ndarray = field(init=False)
    clamp_lo: np.ndarray = field(init=False)
    clamp_hi: np.ndarray = field(init=False)
    _walls: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _nu: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("landmark count must be at least 1")
        if self.encoding not in ("wall", "free"):
            raise ValueError("encoding must be 'wall' or 'free'")
        half_pi = math.pi / 2
        rho_hi = math.nextafter(math.pi, 0.0)
        if self.encoding == "wall":
            n_w = len(self.scene.walls)
            lo = [0.0, 0.0, 0.0, -math.pi, -half_pi]
            draw_hi = [float(n_w), 1.0, 1.0, math.pi, half_pi]
            clamp_hi = [math.nextafter(float(n_w), 0.0), 1.0, 1.0, rho_hi, half_pi]
        else:
            room = self.scene.room
            lo = [0.0, 0.0, 0.0, -math.pi, -half_pi]
            draw_hi = [float(room[0]), float(room[1]), float(room[2]), math.pi, half_pi]
            clamp_hi = [float(room[0]), float(room[1]), float(room[2]), rho_hi, half_pi]
        self.draw_lo = np.tile(np.asarray(lo), self.count)
        self.draw_hi = np.tile(np.asarray(draw_hi), self.count)
        self.clamp_lo = self.draw_lo.copy()
        self.clamp_hi = np.tile(np.asarray(clamp_hi), self.count)
        walls = self.scene.walls
        # Per-wall tables: origin, u_dir, v_dir (W, 3) and u_len, v_len (W,).
        self._walls = tuple(
            np.array([getattr(w, name) for w in walls], dtype=float)
            for name in ("origin", "u_dir", "v_dir", "u_len", "v_len")
        )
        self._nu = np.full(self.count, float(self.scene.nu_default))

    @property
    def length(self) -> int:
        return GENES_PER_LANDMARK * self.count

    def random(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.draw_lo, self.draw_hi)

    def clamp_inplace(self, genes: np.ndarray):
        np.clip(genes, self.clamp_lo, self.clamp_hi, out=genes)

    def decode(self, genes) -> Deployment:
        """Deployment for a chromosome; out-of-range genes are clamped.

        Plate roll is fixed to zero and the occlusion radius to the scene
        default; neither is encoded.
        """
        raw = np.asarray(genes, dtype=float).ravel()
        if raw.shape != (self.length,):
            raise ValueError(f"chromosome must have {self.length} genes")
        clipped = np.clip(raw, self.clamp_lo, self.clamp_hi)
        repaired = int(np.count_nonzero(clipped != raw))
        if repaired:
            logger.debug("clamped %d out-of-range genes", repaired)
        g = clipped.reshape(self.count, GENES_PER_LANDMARK)
        if self.encoding == "wall":
            origin, u_dir, v_dir, u_len, v_len = self._walls
            idx = np.minimum(g[:, 0].astype(np.intp), len(origin) - 1)
            # Wall.point's operation order, so positions match it bit for bit.
            positions = (
                origin[idx]
                + (g[:, 1] * u_len[idx])[:, None] * u_dir[idx]
                + (g[:, 2] * v_len[idx])[:, None] * v_dir[idx]
            )
        else:
            positions = g[:, :3]
        return Deployment.from_arrays(positions, g[:, 3], g[:, 4], self._nu)

    def encode(self, deployment: Deployment) -> np.ndarray:
        genes = np.empty(self.length)
        if len(deployment) != self.count:
            raise ValueError("deployment size does not match the gene space")
        for i, lm in enumerate(deployment.landmarks):
            block = genes[GENES_PER_LANDMARK * i : GENES_PER_LANDMARK * (i + 1)]
            if self.encoding == "wall":
                for idx, wall in enumerate(self.scene.walls):
                    uv = wall.locate(lm.position)
                    if uv is not None:
                        block[:3] = (idx + 0.5, uv[0], uv[1])
                        break
                else:
                    raise ValueError(
                        f"landmark {i} does not lie on an active wall"
                    )
            else:
                block[:3] = lm.position
            block[3] = lm.rho
            block[4] = lm.eta
        self.clamp_inplace(genes)
        return genes


@dataclass
class EgaParams:
    """Search settings. q is the per-generation replacement count."""

    m: int = 30
    q: int = 7
    upsilon_min: int = 1
    upsilon_max: int = 1
    psi: float = 0.1
    iterations: int = 400
    seed: int = 0
    plateau: int | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("population size M must be at least 1")
        if self.q < 0:
            raise ValueError("replacement count Q must be non-negative")
        if self.q + 1 > self.m:
            raise ValueError("population parameters require Q + 1 <= M")
        if not (1 <= self.upsilon_min <= self.upsilon_max):
            raise ValueError("crossover lengths require 1 <= upsilon_min <= upsilon_max")
        if not (0.0 <= self.psi <= 1.0):
            raise ValueError("mutation rate psi must lie in [0, 1]")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.plateau is not None and self.plateau < 1:
            raise ValueError("plateau must be a positive generation count")


@dataclass
class GenStats:
    generation: int
    best: float
    mean: float
    worst: float


def _next_generation(
    genes: np.ndarray,
    fits: np.ndarray,
    space: GeneSpace,
    params: EgaParams,
    rng: np.random.Generator,
) -> np.ndarray:
    m, length = genes.shape
    elite = int(np.argmax(fits))
    others = [i for i in range(m) if i != elite]
    by_fitness = sorted(others, key=lambda i: (fits[i], i))
    dropped = set(by_fitness[: params.q])
    pool = [i for i in others if i not in dropped]

    replacements = [space.random(rng) for _ in range(params.q)]

    children = [genes[i].copy() for i in pool]
    if children:
        perm = rng.permutation(len(children))
        children = [children[int(j)] for j in perm]
        for a in range(0, len(children) - 1, 2):
            seg = int(rng.integers(params.upsilon_min, params.upsilon_max + 1))
            offset = int(rng.integers(0, length - seg + 1))
            left = children[a][offset : offset + seg].copy()
            children[a][offset : offset + seg] = children[a + 1][offset : offset + seg]
            children[a + 1][offset : offset + seg] = left

    rows = [genes[elite].copy()] + children + replacements
    for chrom in rows[1:]:
        mask = rng.random(length) < params.psi
        draws = space.random(rng)
        chrom[mask] = draws[mask]
        space.clamp_inplace(chrom)
    return np.stack(rows)


class _Memo:
    """Cost cache keyed by chromosome bytes; evaluations are pure.

    threads is handed to every cost call, where it sets the worker threads
    for that evaluation's position spans.
    """

    def __init__(self, scene: Scene, space: GeneSpace, threads: int):
        self.scene = scene
        self.space = space
        self.threads = threads
        self.table: dict[bytes, float] = {}

    def fitnesses(self, genes: np.ndarray) -> np.ndarray:
        keys = [row.tobytes() for row in genes]
        for key, row in zip(keys, genes):
            if key not in self.table:
                self.table[key] = cost(self.scene, self.space.decode(row), threads=self.threads)
        return np.array([self.table[key] for key in keys])


def default_segment_bounds(length: int) -> tuple[int, int]:
    """Crossover segment bounds scaled to the chromosome length."""
    lo = max(1, round(2 * length / 9))
    hi = max(lo, min(length, round(2 * length / 3)))
    return lo, hi


def run(
    scene: Scene,
    params: EgaParams,
    count: int | None = None,
    mode: str = "ega",
    encoding: str = "wall",
    initial: Deployment | None = None,
    threads: int = 1,
) -> tuple[Deployment, list[GenStats]]:
    """Search for a high-cost deployment.

    mode 'sga' runs the same loop with the replacement count forced to zero.
    When an initial deployment is given it seeds the first chromosome and
    fixes the landmark count. history[0] describes the initial population.
    threads sets the worker threads for the position spans of each coverage
    evaluation; the search itself runs serially, so results do not depend on it.
    """
    if mode not in ("ega", "sga"):
        raise ValueError("mode must be 'ega' or 'sga'")
    if mode == "sga":
        params = _dc_replace(params, q=0)
    if initial is not None:
        count = len(initial)
    if count is None:
        raise ValueError("either a landmark count or an initial deployment is required")
    space = GeneSpace(scene, count, encoding)
    if params.upsilon_max > space.length:
        raise ValueError(
            f"crossover segment bound {params.upsilon_max} exceeds chromosome length {space.length}"
        )

    rng = np.random.default_rng(params.seed)
    rows = []
    if initial is not None:
        rows.append(space.encode(initial))
    while len(rows) < params.m:
        rows.append(space.random(rng))
    genes = np.stack(rows)

    memo = _Memo(scene, space, threads)
    fits = memo.fitnesses(genes)
    history = [GenStats(0, float(np.max(fits)), float(np.mean(fits)), float(np.min(fits)))]
    since_improve = 0
    for gen in range(1, params.iterations + 1):
        genes = _next_generation(genes, fits, space, params, rng)
        new_fits = memo.fitnesses(genes)
        if float(np.max(new_fits)) > float(np.max(fits)):
            since_improve = 0
        else:
            since_improve += 1
        fits = new_fits
        history.append(
            GenStats(gen, float(np.max(fits)), float(np.mean(fits)), float(np.min(fits)))
        )
        if params.plateau is not None and since_improve >= params.plateau:
            break
    best = int(np.argmax(fits))
    return space.decode(genes[best]), history
