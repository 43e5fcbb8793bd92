"""The benchmark's workloads: inputs from a seed, CLI arguments, output checks.

Every workload is one CLI command run in process through
``landmark_coverage.cli.main``.  ``prepare`` writes the command's input
files into a work directory from the workload seed alone; the program sees
only those files, under fixed relative names, so ``manifest.json`` (which
records input paths) stays the same from run to run.

``check`` returns a list of problems with one run's outputs:

* invariants that hold for every seed (row counts, thresholds, summaries
  that must agree with the per-row data);
* for ``REFERENCE_SEED``, agreement with the outputs kept under
  ``reference/`` (exact for the integer and history columns, a tight
  tolerance for other floats);
* the scalar-reference spot check: P_n recomputed with
  ``coverage_strength`` and ``nple_probability`` at a few positions must
  equal the output exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import shutil
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SEED = 0
FLOAT_RTOL = 1e-12
FLOAT_ATOL = 1e-15


@dataclasses.dataclass
class Workload:
    name: str
    scene: str
    outputs: tuple[str, ...]
    takes_threads: bool
    prepare: Callable
    argv: Callable
    check: Callable
    work: Callable
    exact_columns: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Shared helpers


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def column(rows, header, name, kind=float) -> list:
    i = header.index(name)
    return [kind(r[i]) for r in rows]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= FLOAT_ATOL + FLOAT_RTOL * max(abs(a), abs(b))


def _compare_json(got, want, where: str, problems: list[str]):
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            problems.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
            return
        for key in want:
            _compare_json(got[key], want[key], f"{where}.{key}", problems)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            problems.append(f"{where}: length {len(got)} != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]", problems)
    elif isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not _close(float(got), want):
            problems.append(f"{where}: {got!r} != {want!r}")
    elif got != want or type(got) is not type(want):
        problems.append(f"{where}: {got!r} != {want!r}")


def compare_to_reference(workload: Workload, out_dir: str) -> list[str]:
    """Compare every output with the stored reference for REFERENCE_SEED."""
    problems: list[str] = []
    ref_dir = os.path.join(REFERENCE_DIR, workload.name)
    if not os.path.isdir(ref_dir):
        return [f"no reference outputs under {ref_dir}"]
    for name in workload.outputs:
        got_path = os.path.join(out_dir, name)
        want_path = os.path.join(ref_dir, name)
        if name.endswith(".json"):
            _compare_json(read_json(got_path), read_json(want_path), name, problems)
            continue
        got_header, got_rows = read_csv(got_path)
        want_header, want_rows = read_csv(want_path)
        if got_header != want_header or len(got_rows) != len(want_rows):
            problems.append(f"{name}: header or row count differs from the reference")
            continue
        for j, col in enumerate(want_header):
            exact = col in workload.exact_columns
            for i, (g, w) in enumerate(zip(got_rows, want_rows)):
                same = g[j] == w[j] if exact else _close(float(g[j]), float(w[j]))
                if not same:
                    problems.append(f"{name} row {i} column {col}: {g[j]} != {w[j]}")
                    break
    return problems


def _copy_scene(repo_root: str, workload: Workload, workdir: str):
    shutil.copyfile(os.path.join(repo_root, "configs", workload.scene), os.path.join(workdir, "scene.json"))


def _generate(cli_main, workdir: str, kind: str, count: int, seed: int):
    gen_dir = os.path.join(workdir, "generate")
    argv = ["generate", "--scene", os.path.join(workdir, "scene.json"), "--count", str(count),
            "--kind", kind, "--seed", str(seed), "--out-dir", gen_dir]
    if cli_main(argv) != 0:
        raise RuntimeError(f"generate failed: {argv}")
    shutil.copyfile(os.path.join(gen_dir, "deployment.json"), os.path.join(workdir, "deployment.json"))
    shutil.rmtree(gen_dir)


def _write_json(path: str, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def scalar_p_n(lc, scene, landmarks, point) -> float:
    """P_n at one position from the scalar criteria, cell by cell."""
    grid = scene.grid
    thold = scene.params.thold
    masks = np.zeros((len(landmarks), grid.n_cells), dtype=bool)
    for g in range(grid.n_cells):
        yaw, pitch = grid.cell_angles(g)
        pose = lc.Pose6(point, yaw=yaw, pitch=pitch)
        for k in range(len(landmarks)):
            strength = lc.coverage_strength(k, landmarks, pose, scene.intrinsics, scene.params.delta)
            masks[k, g] = strength >= thold if thold > 0 else strength > 0
    counts = masks.sum(axis=0)
    caps = lc.CapSet(masks=masks, n=scene.params.n, nple=counts >= scene.params.n)
    return lc.nple_probability(caps, scene.pdf)


def _manifest_problems(out_dir: str, command: str, outputs) -> list[str]:
    manifest = read_json(os.path.join(out_dir, "manifest.json"))
    problems = []
    if manifest.get("command") != command:
        problems.append(f"manifest command {manifest.get('command')!r} != {command!r}")
    if manifest.get("outputs") != sorted(outputs):
        problems.append(f"manifest outputs {manifest.get('outputs')!r} != {sorted(outputs)!r}")
    return problems


# ---------------------------------------------------------------------------
# table3-analyze: 1040 positions x 288 cells x 90 plates, solid-angle pdf

ANALYZE_PLATES = 90
ANALYZE_SPOT_POSITIONS = 2


def _analyze_prepare(lc, cli_main, repo_root, workdir, seed):
    wl = WORKLOADS["table3-analyze"]
    _copy_scene(repo_root, wl, workdir)
    _generate(cli_main, workdir, "random", ANALYZE_PLATES, seed)
    scene = lc.load_scene(os.path.join(workdir, "scene.json"))
    pitch = -math.pi / 2 + (np.arange(scene.grid.n_pitch) + 0.5) * (math.pi / scene.grid.n_pitch)
    weights = np.tile(np.cos(pitch), scene.grid.n_yaw)
    weights = weights / weights.sum()
    _write_json(
        os.path.join(workdir, "pdf.json"),
        {"schema": 1, "n_yaw": scene.grid.n_yaw, "n_pitch": scene.grid.n_pitch,
         "weights": [float(w) for w in weights]},
    )


def _analyze_argv(seed, out_dir, threads):
    return ["analyze", "--scene", "scene.json", "--deployment", "deployment.json",
            "--pdf", "pdf.json", "--threads", str(threads), "--out-dir", out_dir]


def _analyze_scene(lc, workdir):
    scene = lc.load_scene(os.path.join(workdir, "scene.json"))
    pdf, _, _ = lc.pdf_estimation.pdf_from_json(read_json(os.path.join(workdir, "pdf.json")))
    return dataclasses.replace(scene, pdf=pdf)


def _analyze_work(lc, workdir, out_dir):
    scene = lc.load_scene(os.path.join(workdir, "scene.json"))
    return {"triples": scene.n_points * scene.grid.n_cells * ANALYZE_PLATES}


def _analyze_check(lc, workdir, out_dir, seed):
    scene = _analyze_scene(lc, workdir)
    header, rows = read_csv(os.path.join(out_dir, "coverage.csv"))
    problems = _manifest_problems(out_dir, "analyze", WORKLOADS["table3-analyze"].outputs)
    if header != ["x", "y", "z", "p_n", "qualified"] or len(rows) != scene.n_points:
        return problems + ["coverage.csv: unexpected header or row count"]
    xyz = np.array([[float(v) for v in r[:3]] for r in rows])
    p_n = np.array(column(rows, header, "p_n"))
    qualified = np.array(column(rows, header, "qualified", int))
    if not np.array_equal(xyz, scene.points):
        problems.append("coverage.csv: positions differ from the scene grid")
    if np.any(p_n < 0) or np.any(p_n > 1 + 1e-9):
        problems.append("coverage.csv: p_n outside [0, 1]")
    if not np.array_equal(qualified, (p_n >= scene.thold_p).astype(int)):
        problems.append("coverage.csv: qualified disagrees with p_n >= thold_p")
    met = read_json(os.path.join(out_dir, "metrics.json"))
    if met["cost"] != float(qualified.sum()) or met["qualified_ratio"] != qualified.sum() / len(rows):
        problems.append("metrics.json: cost or qualified_ratio disagrees with coverage.csv")
    if met["maximum_cp"] != float(p_n.max()) or not _close(met["average_cp"], float(p_n.mean())):
        problems.append("metrics.json: maximum_cp or average_cp disagrees with coverage.csv")
    if met["n"] != scene.params.n or met["thold_p"] != scene.thold_p:
        problems.append("metrics.json: n or thold_p differ from the scene")

    landmarks = lc.load_deployment(os.path.join(workdir, "deployment.json")).landmarks
    rng = np.random.default_rng(seed)
    spots = [int(np.argmax(p_n))] + [int(i) for i in rng.choice(len(rows), ANALYZE_SPOT_POSITIONS - 1, replace=False)]
    for b in spots:
        scalar = scalar_p_n(lc, scene, landmarks, scene.points[b])
        if scalar != p_n[b]:
            problems.append(f"spot check: position {b} scalar P_n {scalar!r} != output {p_n[b]!r}")
    return problems


# ---------------------------------------------------------------------------
# desk-optimize: 12 plates, m=30, 30 generations

OPTIMIZE_COUNT = 12
OPTIMIZE_M = 30
OPTIMIZE_ITERATIONS = 30
OPTIMIZE_SPOT_POSITIONS = 3


def _optimize_prepare(lc, cli_main, repo_root, workdir, seed):
    _copy_scene(repo_root, WORKLOADS["desk-optimize"], workdir)


def _optimize_argv(seed, out_dir, threads):
    return ["optimize", "--scene", "scene.json", "--count", str(OPTIMIZE_COUNT),
            "--m", str(OPTIMIZE_M), "--iterations", str(OPTIMIZE_ITERATIONS),
            "--seed", str(seed), "--threads", str(threads), "--out-dir", out_dir]


def _optimize_work(lc, workdir, out_dir):
    _, rows = read_csv(os.path.join(out_dir, "history.csv"))
    return {"chromosomes_scored": OPTIMIZE_M * len(rows)}


def _optimize_check(lc, workdir, out_dir, seed):
    scene = lc.load_scene(os.path.join(workdir, "scene.json"))
    problems = _manifest_problems(out_dir, "optimize", WORKLOADS["desk-optimize"].outputs)
    header, rows = read_csv(os.path.join(out_dir, "history.csv"))
    if header != ["generation", "best", "mean", "worst"] or len(rows) != OPTIMIZE_ITERATIONS + 1:
        return problems + ["history.csv: unexpected header or row count"]
    generations = column(rows, header, "generation", int)
    best = column(rows, header, "best")
    mean = column(rows, header, "mean")
    worst = column(rows, header, "worst")
    if generations != list(range(OPTIMIZE_ITERATIONS + 1)):
        problems.append("history.csv: generations are not 0..iterations")
    if any(b2 < b1 for b1, b2 in zip(best, best[1:])):
        problems.append("history.csv: best fitness decreased (the elite was lost)")
    if any(not (w <= m <= b) for w, m, b in zip(worst, mean, best)):
        problems.append("history.csv: worst <= mean <= best does not hold")

    found = lc.load_deployment(os.path.join(out_dir, "deployment.json"))
    if len(found) != OPTIMIZE_COUNT:
        return problems + [f"deployment.json: {len(found)} plates, expected {OPTIMIZE_COUNT}"]
    coverage = lc.evaluate_coverage(scene, found)
    if math.fsum(coverage.rel[coverage.qualified].tolist()) != best[-1]:
        problems.append("deployment.json: its cost differs from the final best fitness")
    rng = np.random.default_rng(seed)
    for b in rng.choice(scene.n_points, OPTIMIZE_SPOT_POSITIONS, replace=False):
        scalar = scalar_p_n(lc, scene, found.landmarks, scene.points[b])
        if scalar != coverage.p_n[b]:
            problems.append(f"spot check: position {b} scalar P_n {scalar!r} != batched {coverage.p_n[b]!r}")
    return problems


# ---------------------------------------------------------------------------
# desk-simulate: 24 uniform plates, 30 s camera-model random walk

SIMULATE_PLATES = 24
SIMULATE_DURATION_S = 30.0
SIMULATE_DT_S = 0.01


def _wrap_angle(angle: float) -> float:
    return (angle + math.pi) % (2 * math.pi) - math.pi


def _simulate_prepare(lc, cli_main, repo_root, workdir, seed):
    _copy_scene(repo_root, WORKLOADS["desk-simulate"], workdir)
    _generate(cli_main, workdir, "uniform", SIMULATE_PLATES, seed)
    scene = lc.load_scene(os.path.join(workdir, "scene.json"))
    rng = np.random.default_rng(seed)
    position = scene.center + rng.uniform(-1.0, 1.0, 3) * np.array([30.0, 30.0, 10.0])
    yaw = float(rng.uniform(-math.pi, math.pi))
    pitch = float(rng.uniform(-0.5, 0.5))
    initial = {"position": [float(v) for v in position], "yaw": yaw, "pitch": pitch}
    estimate = {
        "position": [float(v) for v in position + np.array([3.0, -2.0, 2.0])],
        "yaw": _wrap_angle(yaw + 0.15),
        "pitch": pitch - 0.1,
        "roll": 0.1,
    }
    _write_json(
        os.path.join(workdir, "trajectory.json"),
        {
            "schema": 1,
            "random_walk": {
                "duration_s": SIMULATE_DURATION_S, "seed": seed, "segment_duration_s": 0.5,
                "lin_speed_cm_s": 40.0, "ang_speed_rad_s": 2.0, "margin_cm": 10.0,
                "dt_s": SIMULATE_DT_S, "initial": initial,
            },
            "initial_estimate": estimate,
        },
    )


def _simulate_argv(seed, out_dir, threads):
    return ["simulate", "--scene", "scene.json", "--deployment", "deployment.json",
            "--trajectory", "trajectory.json", "--k-i", "2e-5", "--dt", str(SIMULATE_DT_S),
            "--visibility", "camera-model", "--out-dir", out_dir]


def _simulate_work(lc, workdir, out_dir):
    summary = read_json(os.path.join(out_dir, "summary.json"))
    return {"steps": summary["steps"], "qualified_time_ratio": summary["qualified_time_ratio"]}


def _simulate_check(lc, workdir, out_dir, seed):
    scene = lc.load_scene(os.path.join(workdir, "scene.json"))
    problems = _manifest_problems(out_dir, "simulate", WORKLOADS["desk-simulate"].outputs)
    steps = round(SIMULATE_DURATION_S / SIMULATE_DT_S)
    header, rows = read_csv(os.path.join(out_dir, "trace.csv"))
    if header != ["t", "er", "visible_count", "qualified"] or len(rows) != steps + 1:
        return problems + ["trace.csv: unexpected header or row count"]
    t = column(rows, header, "t")
    er = column(rows, header, "er")
    visible = np.array(column(rows, header, "visible_count", int))
    qualified = np.array(column(rows, header, "qualified", int))
    if t != [i * SIMULATE_DT_S for i in range(steps + 1)]:
        problems.append("trace.csv: time column is not i * dt")
    if min(er) < 0:
        problems.append("trace.csv: negative error")
    if np.any(visible < 0) or np.any(visible > SIMULATE_PLATES):
        problems.append("trace.csv: visible_count outside [0, plates]")
    if not np.array_equal(qualified, (visible >= scene.params.n).astype(int)):
        problems.append("trace.csv: qualified disagrees with visible_count >= n")
    summary = read_json(os.path.join(out_dir, "summary.json"))
    if summary["steps"] != steps or summary["duration"] != t[-1]:
        problems.append("summary.json: steps or duration disagree with trace.csv")
    if summary["initial_error"] != er[0] or summary["final_error"] != er[-1]:
        problems.append("summary.json: errors disagree with trace.csv")
    if summary["qualified_time_ratio"] != float(np.mean(qualified.astype(bool))):
        problems.append("summary.json: qualified_time_ratio disagrees with trace.csv")
    return problems


WORKLOADS: dict[str, Workload] = {
    "table3-analyze": Workload(
        name="table3-analyze",
        scene="table3_room.json",
        outputs=("coverage.csv", "metrics.json", "manifest.json"),
        takes_threads=True,
        prepare=_analyze_prepare,
        argv=_analyze_argv,
        check=_analyze_check,
        work=_analyze_work,
        exact_columns=("qualified",),
    ),
    "desk-optimize": Workload(
        name="desk-optimize",
        scene="desk_room.json",
        outputs=("deployment.json", "history.csv", "manifest.json"),
        takes_threads=True,
        prepare=_optimize_prepare,
        argv=_optimize_argv,
        check=_optimize_check,
        work=_optimize_work,
        exact_columns=("generation", "best", "mean", "worst"),
    ),
    "desk-simulate": Workload(
        name="desk-simulate",
        scene="desk_room.json",
        outputs=("trace.csv", "summary.json", "manifest.json"),
        takes_threads=False,
        prepare=_simulate_prepare,
        argv=_simulate_argv,
        check=_simulate_check,
        work=_simulate_work,
        exact_columns=("visible_count", "qualified"),
    ),
}


def check_outputs(lc, workload: Workload, workdir: str, out_dir: str, seed: int) -> list[str]:
    problems = [
        f"missing output {name}" for name in workload.outputs
        if not os.path.isfile(os.path.join(out_dir, name))
    ]
    if problems:
        return problems
    problems = workload.check(lc, workdir, out_dir, seed)
    if seed == REFERENCE_SEED:
        problems += compare_to_reference(workload, out_dir)
    return problems
