"""Orientation-density estimation: thinning, tests, and the adoption rule."""

import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import landmark_coverage.deployment as dep
import landmark_coverage.pdf_estimation as pdfmod
from landmark_coverage.cli import main
from landmark_coverage.errors import SchemaError

from conftest import CONFIG_DIR, mutated, run_quietly


def uniform_trace(n, seed, dt=0.01):
    rng = np.random.default_rng(seed)
    return pdfmod.AngleSamples(
        np.arange(n) * dt,
        rng.uniform(-math.pi, math.pi, n),
        rng.uniform(-math.pi / 2, math.pi / 2, n),
    )


def test_angle_samples_wrap_and_validate():
    s = pdfmod.AngleSamples(
        [0.0, 1.0, 2.0],
        [3 * math.pi / 2, math.pi, -3 * math.pi / 2],
        [0.0, 0.1, -0.1],
    )
    assert math.isclose(s.alpha[0], -math.pi / 2, abs_tol=1e-12)
    assert s.alpha[1] == -math.pi
    assert math.isclose(s.alpha[2], math.pi / 2, abs_tol=1e-12)
    with pytest.raises(ValueError, match="strictly increasing"):
        pdfmod.AngleSamples([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="pitch"):
        pdfmod.AngleSamples([0.0], [0.0], [2.0])
    with pytest.raises(ValueError, match="finite"):
        pdfmod.AngleSamples([0.0], [math.nan], [0.0])
    with pytest.raises(ValueError, match="equal lengths"):
        pdfmod.AngleSamples([0.0, 1.0], [0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="empty"):
        pdfmod.AngleSamples([], [], [])


def test_resample_keeps_first_and_is_deterministic():
    samples = uniform_trace(5000, seed=0)
    kept1 = pdfmod.random_interval_resample(samples, seed=4, mean_gap=0.1)
    kept2 = pdfmod.random_interval_resample(samples, seed=4, mean_gap=0.1)
    assert kept1.t[0] == samples.t[0]
    assert np.array_equal(kept1.t, kept2.t)
    assert np.array_equal(kept1.alpha, kept2.alpha)
    assert len(kept1) < len(samples)
    assert np.all(np.diff(kept1.t) > 0)
    kept3 = pdfmod.random_interval_resample(samples, seed=5, mean_gap=0.1)
    assert len(kept3) != len(kept1) or not np.array_equal(kept3.t, kept1.t)


def test_resample_default_gap_is_fifty_periods():
    samples = uniform_trace(2000, seed=1, dt=0.1)
    kept = pdfmod.random_interval_resample(samples, seed=0)
    # mean gap 5.0 over a 200 s trace keeps a few dozen samples
    assert 10 <= len(kept) <= 120


def test_resample_validation():
    single = pdfmod.AngleSamples([0.0], [0.0], [0.0])
    with pytest.raises(ValueError, match="at least two samples"):
        pdfmod.random_interval_resample(single, seed=0)
    samples = uniform_trace(100, seed=0)
    with pytest.raises(ValueError, match="mean gap"):
        pdfmod.random_interval_resample(samples, seed=0, mean_gap=0.0)


def test_histogram_density_masses():
    values = np.array([0.1, 0.2, 0.3, 0.9])
    pdf = pdfmod.histogram_density(values, bins=4, value_range=(0.0, 1.0))
    assert pdf.n_samples == 4
    assert math.isclose(math.fsum(pdf.masses.tolist()), 1.0, abs_tol=1e-12)
    assert pdf.masses[0] == 0.5  # 0.1 and 0.2 share the first quarter
    with pytest.raises(ValueError, match="no samples"):
        pdfmod.histogram_density(np.array([5.0]), bins=4, value_range=(0.0, 1.0))


def test_discrete_pdf_validation():
    with pytest.raises(ValueError):
        pdfmod.DiscretePdf1D(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 10)
    with pytest.raises(ValueError):
        pdfmod.DiscretePdf1D(np.array([0.0, 0.5, 1.0]), np.array([0.7, 0.7]), 10)
    with pytest.raises(ValueError):
        pdfmod.DiscretePdf1D(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.5]), 0)


def test_independence_uniform_accepts():
    samples = uniform_trace(4000, seed=2)
    result = pdfmod.independence_test(samples.alpha, samples.beta, bins=(24, 12))
    assert result.independent
    assert result.p_value >= 0.05


def test_independence_correlated_rejects():
    rng = np.random.default_rng(3)
    alpha = rng.uniform(-math.pi, math.pi, 4000)
    beta = alpha / 2.0 + rng.normal(0.0, 0.05, 4000)
    beta = np.clip(beta, -math.pi / 2, math.pi / 2)
    result = pdfmod.independence_test(alpha, beta)
    assert not result.independent
    assert result.p_value < 1e-6


def test_independence_halves_bins_when_sparse():
    samples = uniform_trace(400, seed=4)
    result = pdfmod.independence_test(samples.alpha, samples.beta, bins=(24, 12))
    assert result.bins < (24, 12)


def test_independence_too_few_samples_raises():
    samples = uniform_trace(8, seed=5)
    with pytest.raises(ValueError, match="too few samples"):
        pdfmod.independence_test(samples.alpha, samples.beta)


def test_fit_uniform_density_and_pvalue():
    samples = uniform_trace(4000, seed=6)
    yaw_pdf = pdfmod.histogram_density(samples.alpha, 24, (-math.pi, math.pi))
    density, p = pdfmod.fit_uniform(yaw_pdf)
    assert density == 1.0 / (2.0 * math.pi)
    assert p >= 0.05
    lumpy = pdfmod.histogram_density(np.zeros(100) + 0.1, 24, (-math.pi, math.pi))
    _, p_bad = pdfmod.fit_uniform(lumpy)
    assert p_bad < 1e-10


def test_estimate_uniform_trace_adopts_exact_uniform():
    samples = uniform_trace(20000, seed=7)
    pdf, report = pdfmod.estimate_orientation_pdf(samples, seed=12, mean_gap=0.05)
    assert report.uniform_adopted
    assert np.all(pdf.weights == 1.0 / 288.0)
    assert report.n_raw == 20000
    assert report.n_kept < 20000
    assert report.independence_bins == (24, 12)
    assert report.independent
    assert report.yaw_uniform_p >= 0.05 and report.pitch_uniform_p >= 0.05


def test_estimate_correlated_trace_falls_back_to_histogram():
    rng = np.random.default_rng(8)
    n = 20000
    alpha = rng.uniform(-math.pi, math.pi, n)
    beta = np.clip(alpha / 2.0 + rng.normal(0.0, 0.05, n), -math.pi / 2, math.pi / 2)
    samples = pdfmod.AngleSamples(np.arange(n) * 0.01, alpha, beta)
    pdf, report = pdfmod.estimate_orientation_pdf(samples, seed=12, mean_gap=0.05)
    assert not report.uniform_adopted
    assert not report.independent
    assert math.isclose(math.fsum(pdf.weights.tolist()), 1.0, abs_tol=1e-9)
    # The histogram follows the kept samples exactly.
    kept = pdfmod.random_interval_resample(samples, seed=12, mean_gap=0.05)
    counts, _, _ = np.histogram2d(
        kept.alpha, kept.beta, bins=[24, 12],
        range=((-math.pi, math.pi), (-math.pi / 2, math.pi / 2)),
    )
    assert np.array_equal(pdf.weights, (counts / counts.sum()).ravel())


def test_report_json_shape():
    samples = uniform_trace(5000, seed=9)
    _, report = pdfmod.estimate_orientation_pdf(samples, seed=0, mean_gap=0.1)
    doc = report.to_json()
    assert doc["n_raw"] == 5000
    assert isinstance(doc["independence_bins"], list)
    assert set(doc) == {
        "n_raw", "n_kept", "mean_gap", "independence_statistic", "independence_p",
        "independence_bins", "independent", "yaw_uniform_p", "pitch_uniform_p",
        "uniform_adopted",
    }


def test_load_samples_csv(tmp_path):
    path = tmp_path / "angles.csv"
    path.write_text("t,alpha,beta\n0.0,0.1,0.2\n1.0,-0.4,0.0\n2.0,3.0,-0.3\n")
    samples = pdfmod.load_samples_csv(path)
    assert len(samples) == 3
    # The wrap adds and removes pi, so only near-exactness survives.
    assert math.isclose(samples.alpha[2], 3.0, abs_tol=1e-12)
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("time,yaw,pitch\n0.0,0.0,0.0\n")
    with pytest.raises(SchemaError, match="header"):
        pdfmod.load_samples_csv(bad_header)
    bad_row = tmp_path / "row.csv"
    bad_row.write_text("t,alpha,beta\n0.0,oops,0.0\n")
    with pytest.raises(SchemaError, match="malformed"):
        pdfmod.load_samples_csv(bad_row)
    wide = tmp_path / "wide.csv"
    wide.write_text("t,alpha,beta\n0.0,0.0,0.0,9.0\n")
    with pytest.raises(SchemaError):
        pdfmod.load_samples_csv(wide)
    with pytest.raises(SchemaError, match="cannot read"):
        pdfmod.load_samples_csv(tmp_path / "absent.csv")
    out_of_range = tmp_path / "pitch.csv"
    out_of_range.write_text("t,alpha,beta\n0.0,0.0,3.0\n")
    with pytest.raises(SchemaError, match="pitch"):
        pdfmod.load_samples_csv(out_of_range)


def test_wrong_samples_header_is_reported_once(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("time,yaw,pitch\n0.0,0.0,0.0\n")
    code = main(["estimate-pdf", "--samples", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: samples {path}: header must be 't,alpha,beta', got 'time,yaw,pitch'\n"
    assert err.count(str(path)) == 1 and "numeric row" not in err


@pytest.mark.parametrize("text", [b"t,alpha,beta\n", b"t,alpha,beta", b"t,alpha,beta\n\n\r\n# none\n"])
def test_samples_without_rows_exit_2_without_a_warning(tmp_path, capsys, text):
    path = tmp_path / "samples.csv"
    path.write_bytes(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match="no sample rows"):
            pdfmod.load_samples_csv(path)
        code = main(["estimate-pdf", "--samples", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: samples {path}: no sample rows after the 't,alpha,beta' header\n"
    )
    assert not (tmp_path / "out").exists()


def test_pdf_json_round_trip():
    from landmark_coverage.coverage import OrientationGrid, OrientationPdf

    grid = OrientationGrid.from_cells(6, 3)
    pdf = OrientationPdf.solid_angle(grid)
    doc = pdfmod.pdf_to_json(pdf, 6, 3)
    loaded, n_yaw, n_pitch = pdfmod.pdf_from_json(doc)
    assert (n_yaw, n_pitch) == (6, 3)
    assert np.array_equal(loaded.weights, pdf.weights)
    with pytest.raises(ValueError):
        pdfmod.pdf_to_json(pdf, 6, 4)
    with pytest.raises(SchemaError, match="schema version"):
        pdfmod.pdf_from_json({"schema": 0})
    with pytest.raises(SchemaError, match="missing required key"):
        pdfmod.pdf_from_json({"schema": 1, "n_yaw": 6, "n_pitch": 3})
    bad = dict(doc)
    bad["weights"] = doc["weights"][:-1]
    with pytest.raises(SchemaError, match="n_yaw \\* n_pitch"):
        pdfmod.pdf_from_json(bad)
    unnorm = dict(doc)
    unnorm["weights"] = [0.5] * 18
    with pytest.raises(SchemaError, match="sum to 1"):
        pdfmod.pdf_from_json(unnorm)


# ---------------------------------------------------------------------------
# Fuzzed density and sample files


@pytest.fixture(scope="module")
def coarse_desk(tmp_path_factory):
    """The desk on a 4 x 2 orientation grid, and six uniform plates."""
    work = tmp_path_factory.mktemp("coarse")
    doc = json.loads((CONFIG_DIR / "desk_room.json").read_text())
    doc["orientation"] = {"yaw_step_rad": math.pi / 2, "pitch_step_rad": math.pi / 2}
    (work / "scene.json").write_text(json.dumps(doc))
    scene = dep.load_scene(work / "scene.json")
    dep.save_deployment(work / "deployment.json", dep.generate_uniform(scene, 6))
    return work


def pdf_documents():
    """Well-formed densities on a 4 x 2 grid, or on another grid."""
    shape = st.sampled_from([(4, 2), (4, 2), (2, 4), (8, 1)])
    counts = st.lists(st.integers(1, 4), min_size=8, max_size=8)
    return st.builds(
        lambda s, c: {"schema": 1, "n_yaw": s[0], "n_pitch": s[1], "weights": [x / sum(c) for x in c]},
        shape, counts,
    )


@settings(max_examples=100, deadline=None, database=None)
@seed(20225)
@given(doc=mutated(pdf_documents()))
def test_fuzzed_pdfs_load_or_fail_as_schema_errors(coarse_desk, doc):
    try:
        _, n_yaw, n_pitch = pdfmod.pdf_from_json(doc)
        matches = (n_yaw, n_pitch) == (4, 2)
    except ValueError:  # SchemaError is a ValueError; both exit 2
        matches = False
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "pdf.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = run_quietly(["analyze", "--scene", str(coarse_desk / "scene.json"),
                            "--deployment", str(coarse_desk / "deployment.json"),
                            "--pdf", path, "--out-dir", f"{work}/out"])
    assert code == (0 if matches else 2)


BAD_CELLS = ["", " ", "x", "nan", "inf", "-inf", "1e400", "0x10", "1;2", "4", "-4", "\udcff"]


@st.composite
def samples_files(draw):
    """A t,alpha,beta CSV of a random trace of up to 200 samples, perhaps spoiled.

    Each spoiling edit replaces a cell (or the header) with one of
    ``BAD_CELLS``, drops or adds a column, or swaps two rows; the text is
    then encoded as UTF-8 with a lone surrogate written as an invalid byte.
    """
    n = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = [c.tolist() for c in (np.cumsum(rng.uniform(1e-3, 1.0, n)),
                                    rng.uniform(-math.pi, math.pi, n),
                                    rng.uniform(-math.pi / 2, math.pi / 2, n))]
    rows = [["t", "alpha", "beta"]] + [[repr(v) for v in row] for row in zip(*columns)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["cell", "drop", "add", "swap"]))
        if edit == "cell":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(BAD_CELLS))
        elif edit == "drop" and rows[i]:
            rows[i].pop()
        elif edit == "add":
            rows[i].append("0.5")
        elif edit == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
    text = "".join(",".join(row) + "\n" for row in rows)
    return text.encode("utf-8", errors="surrogateescape")


@settings(max_examples=100, deadline=None, database=None)
@seed(20226)
@given(data=samples_files())
def test_fuzzed_samples_load_or_fail_as_schema_errors(data):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "samples.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            pdfmod.load_samples_csv(path)
            loads = True
        except ValueError:
            loads = False
        code = run_quietly(["estimate-pdf", "--samples", path, "--n-yaw", "4", "--n-pitch", "2",
                            "--mean-gap", "1e-9", "--out-dir", f"{work}/out"])
    # a loaded trace may still be too short to estimate from, which also exits 2
    assert code in ((0, 2) if loads else (2,))
