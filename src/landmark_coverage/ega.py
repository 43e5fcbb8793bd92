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

from .deployment import MAX_POSITIONS, Deployment, Scene, evaluate_coverages
from .errors import check_seed

logger = logging.getLogger(__name__)

GENES_PER_LANDMARK = 5

# Caps on one generation: M x positions rows <= MAX_POSITIONS, M x plates
# stacked <= MAX_GENERATION_PLATES, which keeps its gene block within 40 MB,
# and M x plates^2 (target, blocker) pairs <= MAX_GENERATION_PAIRS, which
# keeps its (M x plates, plates) bool occluder table within 64 MiB.
MAX_GENERATION_PLATES = 1 << 20
MAX_GENERATION_PAIRS = 1 << 26


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

    @property
    def length(self) -> int:
        return GENES_PER_LANDMARK * self.count

    def random(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.draw_lo, self.draw_hi)

    def decode(self, genes) -> Deployment:
        """Deployment for a chromosome; out-of-range genes are clamped.

        ``genes`` is one chromosome, giving ``count`` plates, or an (M,
        length) block, giving its M deployments stacked in row order as one
        Deployment of M x ``count`` plates, checked once. Plate roll is
        fixed to zero and the occlusion radius to the scene default;
        neither is encoded.
        """
        raw = np.asarray(genes, dtype=float)
        if raw.ndim > 2 or raw.shape[-1:] != (self.length,):
            raise ValueError(f"chromosome must have {self.length} genes")
        clipped = np.clip(raw, self.clamp_lo, self.clamp_hi)
        repaired = int(np.count_nonzero(clipped != raw))
        if repaired:
            logger.debug("clamped %d out-of-range genes", repaired)
        g = clipped.reshape(-1, GENES_PER_LANDMARK)
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
        return Deployment.from_arrays(positions, g[:, 3], g[:, 4], np.full(len(g), self.scene.nu_default))

    def encode(self, deployment: Deployment) -> np.ndarray:
        if len(deployment) != self.count:
            raise ValueError("deployment size does not match the gene space")
        genes = np.empty((self.count, GENES_PER_LANDMARK))
        genes[:, 3] = deployment.rho
        genes[:, 4] = deployment.eta
        if self.encoding == "free":
            genes[:, :3] = deployment.positions
        else:
            for i, position in enumerate(deployment.positions):
                for idx, wall in enumerate(self.scene.walls):
                    uv = wall.locate(position)
                    if uv is not None:
                        genes[i, :3] = (idx + 0.5, *uv)
                        break
                else:
                    raise ValueError(f"landmark {i} does not lie on an active wall")
        return np.clip(genes.ravel(), self.clamp_lo, self.clamp_hi)


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
        check_seed(self.seed)


@dataclass
class GenStats:
    """One generation's fitness summary.

    ``max_p_n`` is the highest P_n of the maps the generation scored; from
    generation 1 on that leaves out the elite copy, which is not scored again.
    """

    generation: int
    best: float
    mean: float
    worst: float
    max_p_n: float


def _next_generation(
    genes: np.ndarray,
    fits: np.ndarray,
    space: GeneSpace,
    params: EgaParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """The next population, with an unmutated copy of the fittest row in row 0.

    On ties the first fittest row is kept. run relies on row 0 being that
    copy: it takes row 0's fitness as max(fits) instead of scoring it again.
    The population stays one (M, length) array: the Q least fit other rows,
    ties broken by row, give way to one block of fresh draws, and every
    non-elite row's mutation mask and redraw come from one (M - 1, 2,
    length) block, in the order row-by-row draws would take them.
    """
    m, length = genes.shape
    elite = int(np.argmax(fits))
    keep = np.arange(m) != elite
    others = np.flatnonzero(keep)
    keep[others[np.lexsort((others, fits[others]))[: params.q]]] = False
    pool = np.flatnonzero(keep)

    replacements = rng.uniform(space.draw_lo, space.draw_hi, size=(params.q, length))

    children = genes[pool]
    if len(pool):
        children = children[rng.permutation(len(pool))]
        for a in range(0, len(children) - 1, 2):
            seg = int(rng.integers(params.upsilon_min, params.upsilon_max + 1))
            offset = int(rng.integers(0, length - seg + 1))
            cut = slice(offset, offset + seg)
            children[[a, a + 1], cut] = children[[a + 1, a], cut]

    rows = np.concatenate((genes[elite : elite + 1], children, replacements))
    u = rng.random((m - 1, 2, length))
    # Generator.uniform's own low + range * next_double, on the redraw half.
    redraws = space.draw_lo + (space.draw_hi - space.draw_lo) * u[:, 1]
    np.copyto(rows[1:], redraws, where=u[:, 0] < params.psi)
    np.clip(rows[1:], space.clamp_lo, space.clamp_hi, out=rows[1:])
    return rows


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
) -> tuple[Deployment, list[GenStats]]:
    """Search for a high-cost deployment.

    mode 'sga' runs the same loop with the replacement count forced to zero.
    When an initial deployment is given it seeds the first chromosome and
    fixes the landmark count. Generation 0 is that encoded row, if any,
    followed by one block of uniform draws; history[0] describes it.
    Each generation is scored as one stacked ``evaluate_coverages`` map,
    whose (m,) ``cost`` holds the chromosomes' fitnesses. A larger
    generation than the caps allow is refused before it is drawn.
    """
    if mode not in ("ega", "sga"):
        raise ValueError("mode must be 'ega' or 'sga'")
    if mode == "sga":
        params = _dc_replace(params, q=0)
    if initial is not None:
        count = len(initial)
    if count is None:
        raise ValueError("either a landmark count or an initial deployment is required")
    for size, per, cap in ((scene.n_points, "positions", MAX_POSITIONS), (count, "plates", MAX_GENERATION_PLATES),
                           (count * count, "plate pairs", MAX_GENERATION_PAIRS)):
        if params.m * size > cap:
            raise ValueError(
                f"population size --m {params.m} x {size} {per} is {params.m * size} {per} "
                f"per generation, above the cap of {cap}"
            )
    space = GeneSpace(scene, count, encoding)
    if params.upsilon_max > space.length:
        raise ValueError(
            f"crossover segment bound {params.upsilon_max} exceeds chromosome length {space.length}"
        )

    rng = np.random.default_rng(params.seed)
    seeded = [] if initial is None else [space.encode(initial)]
    drawn = rng.uniform(space.draw_lo, space.draw_hi, size=(params.m - len(seeded), space.length))
    genes = np.vstack(seeded + [drawn])

    def scored(gen: int, rows: np.ndarray, elite=()) -> tuple[np.ndarray, GenStats]:
        coverage = evaluate_coverages(scene, space.decode(rows), len(rows))
        fits = np.concatenate((elite, coverage.cost))
        peak = float(coverage.p_n.max(initial=0.0))
        return fits, GenStats(gen, float(np.max(fits)), float(np.mean(fits)), float(np.min(fits)), peak)

    fits, stats = scored(0, genes)
    history = [stats]
    since_improve = 0
    for gen in range(1, params.iterations + 1):
        genes = _next_generation(genes, fits, space, params, rng)
        new_fits, stats = scored(gen, genes[1:], [np.max(fits)])
        if float(np.max(new_fits)) > float(np.max(fits)):
            since_improve = 0
        else:
            since_improve += 1
        fits = new_fits
        history.append(stats)
        if params.plateau is not None and since_improve >= params.plateau:
            break
    best = int(np.argmax(fits))
    return space.decode(genes[best]), history
