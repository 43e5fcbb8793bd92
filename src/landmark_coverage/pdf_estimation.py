"""Estimating the camera orientation density from logged yaw/pitch samples.

Logged orientation traces are strongly autocorrelated, so they are first
thinned at exponentially distributed time intervals. The thinned yaw and
pitch samples then go through a contingency-table independence test and
per-axis uniformity tests; when nothing rejects the independent-uniform
model the estimate is the exact uniform cell density, otherwise it is the
normalized joint histogram at the orientation-grid resolution.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .coverage import OrientationGrid, OrientationPdf
from .errors import (
    SCHEMA_VERSION,
    MissingDependencyError,
    SchemaError,
    check_schema as _check_schema,
    check_seed as _check_seed,
    integer as _integer,
    numbers as _numbers,
    require as _require,
    schema_errors as _schema_errors,
)

_HALF_PI = math.pi / 2
_MIN_EXPECTED = 5.0
# The yaw and pitch ranges the histograms span, and the p-value below which
# a test rejects independence or uniformity.
_RANGES = ((-math.pi, math.pi), (-_HALF_PI, _HALF_PI))
_P_THRESHOLD = 0.05


def _scipy_stats():
    """``scipy.stats``, imported on first use.

    Importing scipy costs more than most runs, and only this module's two
    statistical tests need it, so scipy is the optional ``pdf`` extra.
    """
    try:
        from scipy import stats
    except ImportError:
        raise MissingDependencyError(
            "estimate-pdf needs scipy: pip install 'landmark-coverage[pdf]'"
        ) from None
    return stats


@dataclass(eq=False)
class AngleSamples:
    """Time-stamped yaw/pitch samples; yaw wraps into [-pi, pi)."""

    t: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float).ravel()
        self.alpha = np.asarray(self.alpha, dtype=float).ravel()
        self.beta = np.asarray(self.beta, dtype=float).ravel()
        if self.t.size == 0:
            raise ValueError("samples are empty")
        if self.alpha.shape != self.t.shape or self.beta.shape != self.t.shape:
            raise ValueError("t, alpha, and beta must have equal lengths")
        if self.t.size > 1 and np.any(np.diff(self.t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if np.any(~np.isfinite(self.alpha)) or np.any(~np.isfinite(self.beta)):
            raise ValueError("angles must be finite")
        self.alpha = np.mod(self.alpha + math.pi, 2.0 * math.pi) - math.pi
        if np.any(self.beta < -_HALF_PI) or np.any(self.beta > _HALF_PI):
            raise ValueError("pitch samples must lie in [-pi/2, pi/2]")

    def __len__(self) -> int:
        return int(self.t.size)


def _default_mean_gap(samples: AngleSamples) -> float:
    """Default thinning gap: 50 raw median sampling periods."""
    if len(samples) < 2:
        raise ValueError("resampling needs at least two samples")
    return 50.0 * float(np.median(np.diff(samples.t)))


def random_interval_resample(
    samples: AngleSamples, seed: int, mean_gap: float | None = None
) -> AngleSamples:
    """Thin a trace by keeping samples at exponential time increments.

    The first sample is always kept; each next kept sample is the first one
    at or past a target time that advances by Exp(mean_gap) draws. The
    default mean gap is 50 raw median periods.
    """
    if len(samples) < 2:
        raise ValueError("resampling needs at least two samples")
    if mean_gap is None:
        mean_gap = _default_mean_gap(samples)
    if not (mean_gap > 0 and math.isfinite(mean_gap)):
        raise ValueError("mean gap must be positive")
    rng = np.random.default_rng(_check_seed(seed))
    keep = [0]
    target = samples.t[0] + rng.exponential(mean_gap)
    for i in range(1, len(samples)):
        if samples.t[i] >= target:
            keep.append(i)
            target = samples.t[i] + rng.exponential(mean_gap)
    idx = np.array(keep)
    return AngleSamples(samples.t[idx], samples.alpha[idx], samples.beta[idx])


@dataclass(eq=False)
class DiscretePdf1D:
    edges: np.ndarray
    masses: np.ndarray
    n_samples: int

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if self.edges.size != self.masses.size + 1:
            raise ValueError("edge count must be one more than the bin count")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if abs(math.fsum(self.masses.tolist()) - 1.0) > 1e-9:
            raise ValueError("masses must sum to 1")


def histogram_density(values, bins: int, value_range) -> DiscretePdf1D:
    values = np.asarray(values, dtype=float).ravel()
    counts, edges = np.histogram(values, bins=bins, range=value_range)
    total = int(counts.sum())
    if total == 0:
        raise ValueError("no samples fall inside the histogram range")
    return DiscretePdf1D(edges=edges, masses=counts / total, n_samples=total)


@dataclass
class IndependenceResult:
    statistic: float
    p_value: float
    independent: bool
    bins: tuple[int, int]


def independence_test(alpha, beta, bins: tuple[int, int] = (24, 12)) -> IndependenceResult:
    """Chi-squared contingency test of yaw/pitch independence at p = 0.05.

    Bins are halved until every expected cell count reaches 5; if that never
    happens the sample is too small and the test raises.
    """
    stats = _scipy_stats()
    alpha = np.asarray(alpha, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float).ravel()
    bx, by = bins
    while True:
        counts, _, _ = np.histogram2d(alpha, beta, bins=[bx, by], range=_RANGES)
        rows = counts.sum(axis=1) > 0
        cols = counts.sum(axis=0) > 0
        table = counts[rows][:, cols]
        if table.shape[0] >= 2 and table.shape[1] >= 2:
            result = stats.chi2_contingency(table)
            if result.expected_freq.min() >= _MIN_EXPECTED:
                return IndependenceResult(
                    statistic=float(result.statistic),
                    p_value=float(result.pvalue),
                    independent=bool(result.pvalue >= _P_THRESHOLD),
                    bins=(bx, by),
                )
        if bx <= 2 and by <= 2:
            raise ValueError(
                "too few samples: expected cell counts stay below 5 even at 2x2 bins"
            )
        bx = max(2, bx // 2)
        by = max(2, by // 2)


def fit_uniform(pdf: DiscretePdf1D) -> tuple[float, float]:
    """(uniform density, goodness-of-fit p-value) for a 1-D histogram."""
    stats = _scipy_stats()
    counts = pdf.masses * pdf.n_samples
    result = stats.chisquare(counts)
    density = 1.0 / (pdf.edges[-1] - pdf.edges[0])
    return float(density), float(result.pvalue)


@dataclass
class EstimationReport:
    n_raw: int
    n_kept: int
    mean_gap: float
    independence_statistic: float
    independence_p: float
    independence_bins: tuple[int, int]
    independent: bool
    yaw_uniform_p: float
    pitch_uniform_p: float
    uniform_adopted: bool

    def to_json(self) -> dict:
        doc = asdict(self)
        doc["independence_bins"] = list(doc["independence_bins"])
        return doc


def estimate_orientation_pdf(
    samples: AngleSamples,
    n_yaw: int = 24,
    n_pitch: int = 12,
    seed: int = 0,
    mean_gap: float | None = None,
) -> tuple[OrientationPdf, EstimationReport]:
    """Orientation-cell density estimated from a logged yaw/pitch trace."""
    grid = OrientationGrid.from_cells(n_yaw, n_pitch)  # checks the cell cap first
    if mean_gap is None:
        mean_gap = _default_mean_gap(samples)
    kept = random_interval_resample(samples, seed=seed, mean_gap=mean_gap)
    indep = independence_test(kept.alpha, kept.beta, bins=(n_yaw, n_pitch))
    yaw_pdf = histogram_density(kept.alpha, n_yaw, _RANGES[0])
    pitch_pdf = histogram_density(kept.beta, n_pitch, _RANGES[1])
    _, yaw_p = fit_uniform(yaw_pdf)
    _, pitch_p = fit_uniform(pitch_pdf)
    uniform = indep.independent and yaw_p >= _P_THRESHOLD and pitch_p >= _P_THRESHOLD
    if uniform:
        pdf = OrientationPdf.uniform(grid)
    else:
        counts, _, _ = np.histogram2d(kept.alpha, kept.beta, bins=[n_yaw, n_pitch], range=_RANGES)
        total = counts.sum()
        if total == 0:
            raise ValueError("no samples fall inside the orientation ranges")
        pdf = OrientationPdf((counts / total).ravel())
    report = EstimationReport(
        n_raw=len(samples),
        n_kept=len(kept),
        mean_gap=float(mean_gap),
        independence_statistic=indep.statistic,
        independence_p=indep.p_value,
        independence_bins=indep.bins,
        independent=indep.independent,
        yaw_uniform_p=float(yaw_p),
        pitch_uniform_p=float(pitch_p),
        uniform_adopted=bool(uniform),
    )
    return pdf, report


# ---------------------------------------------------------------------------
# File formats


def load_samples_csv(path) -> AngleSamples:
    """Samples from a CSV with header t,alpha,beta (seconds, radians)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            # np.loadtxt skips lines that are empty once a '#' comment is cut,
            # and warns when no line is left; such a file has no sample rows.
            rows = [line for line in fh if line.split("#", 1)[0].rstrip("\r\n")]
    except (OSError, ValueError) as exc:  # ValueError: text that is not UTF-8, a NUL in the path
        raise SchemaError(f"samples {path}: cannot read: {exc}") from exc
    if [c.strip() for c in header.strip().split(",")] != ["t", "alpha", "beta"]:
        raise SchemaError(f"samples {path}: header must be 't,alpha,beta', got {header.strip()!r}")
    if not rows:
        raise SchemaError(f"samples {path}: no sample rows after the 't,alpha,beta' header")
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise SchemaError(f"samples {path}: malformed numeric row: {exc}") from exc
    if data.shape[1] != 3:
        raise SchemaError(f"samples {path}: expected 3 columns, got {data.shape[1]}")
    with _schema_errors(f"samples {path}"):
        return AngleSamples(data[:, 0], data[:, 1], data[:, 2])


def pdf_to_json(pdf: OrientationPdf, n_yaw: int, n_pitch: int) -> dict:
    if pdf.weights.size != n_yaw * n_pitch:
        raise ValueError("weight count does not match the grid shape")
    return {
        "schema": SCHEMA_VERSION,
        "n_yaw": int(n_yaw),
        "n_pitch": int(n_pitch),
        "weights": [float(w) for w in pdf.weights],
    }


def pdf_from_json(doc: dict, context: str = "pdf") -> tuple[OrientationPdf, int, int]:
    _check_schema(doc, context)
    n_yaw = _integer(_require(doc, "n_yaw", context), f"{context}.n_yaw", positive=True)
    n_pitch = _integer(_require(doc, "n_pitch", context), f"{context}.n_pitch", positive=True)
    weights = _numbers(_require(doc, "weights", context), f"{context}.weights")
    if weights.size != n_yaw * n_pitch:
        raise SchemaError(f"{context}: 'weights' must be an array of n_yaw * n_pitch numbers")
    with _schema_errors(context):
        return OrientationPdf(weights), n_yaw, n_pitch
