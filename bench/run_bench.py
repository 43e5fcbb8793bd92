"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run_bench.py --workload table3-analyze --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; paths are taken relative to this
file.  The run

1. writes the workload's inputs from ``--seed`` into ``bench/.work/``;
2. times set-up: fresh interpreters that import ``landmark_coverage.cli``
   and load the scene (``--trace 0``), or the same import under
   ``python -X importtime`` (``--trace 1``);
3. starts ``worker.py``, which repeats the CLI command for ``--seconds``
   (see its docstring for the timed and traced modes);
4. checks every call's exit code and output hashes, and the outputs
   themselves (``workloads.check_outputs``);
5. writes the full record, machine description included, to
   ``bench/results/<workload>-seed<seed>-trace<trace>.json``, prints a
   readable report, and prints the result as the last line of stdout:
   ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  It exits 2 without a result when the package sources are
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
WORK_ROOT = os.path.join(HERE, ".work")
RESULTS_DIR = os.path.join(HERE, "results")

SETUP_RUNS = 3
IMPORTTIME_RUNS = 3
SUBPROCESS_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
SETUP_SNIPPET = "import landmark_coverage.cli, landmark_coverage as lc; lc.load_scene('scene.json')"
IMPORTTIME_MODULES = ("pdf_estimation", "geometry", "coverage")
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "LANDMARK_COVERAGE_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "success_share": "ratio",
}


def timing_summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count.

    With n samples that percentile is the (n - 10)-th smallest value, the
    nearest-rank percentile 100 * (n - 10) / n; it does not exist below
    11 samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if ordered else None, "tail": None}
    if n >= 11:
        out["tail"] = {"percentile": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11]}
    return out


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv, cwd, timeout) -> tuple[subprocess.CompletedProcess | None, float]:
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=cwd, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start
    return proc, time.perf_counter() - start


def time_setup(workdir: str) -> dict:
    """Wall time of fresh interpreters importing the CLI and loading the scene."""
    samples, failures = [], 0
    for _ in range(SETUP_RUNS):
        proc, seconds = _run_child([sys.executable, "-c", SETUP_SNIPPET], workdir, SUBPROCESS_TIMEOUT_S)
        if proc is None or proc.returncode != 0:
            failures += 1
        else:
            samples.append(seconds)
    return {"samples_s": samples, "attempted": SETUP_RUNS, "failed": failures}


def _parse_importtime(stderr: str) -> dict:
    """Cumulative seconds per module from ``-X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            value = int(parts[1]) * 1e-6
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        cumulative[name] = value
    return cumulative


def time_imports(workdir: str) -> dict:
    """Per-module cumulative import times of ``landmark_coverage.cli``."""
    runs, failures = [], 0
    for _ in range(IMPORTTIME_RUNS):
        proc, _ = _run_child(
            [sys.executable, "-X", "importtime", "-c", "import landmark_coverage.cli"],
            workdir,
            SUBPROCESS_TIMEOUT_S,
        )
        if proc is None or proc.returncode != 0:
            failures += 1
            continue
        cumulative = _parse_importtime(proc.stderr)
        # the package import nests inside the cli entry, so its cumulative time is the total
        entry = {"import_s": cumulative.get("landmark_coverage.cli", 0.0)}
        for short in IMPORTTIME_MODULES:
            entry[short] = cumulative.get(f"landmark_coverage.{short}", 0.0)
        runs.append(entry)
    return {"runs": runs, "attempted": IMPORTTIME_RUNS, "failed": failures}


def machine_record(lc, numpy, scipy) -> dict:
    commit = None
    if os.path.isdir(os.path.join(REPO, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "landmark_coverage", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "landmark_coverage": lc.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Output checks


def judge_calls(calls: list[dict], problems: list[str]) -> tuple[int, list[str]]:
    """Failed-call count: non-zero exit, a crash, or outputs that differ.

    Every call of a set must write byte-identical outputs, at every thread
    count; the last ``--threads 1`` call's outputs are the ones whose
    content ``check_outputs`` examined, so any problem there fails every
    call that wrote the same bytes.
    """
    notes = []
    ok_calls = [c for c in calls if c["rc"] == 0]
    checked = next((c["sha256"] for c in reversed(ok_calls) if c["threads"] == 1), None)
    failed = 0
    for c in calls:
        if c["rc"] != 0:
            failed += 1
            notes.append(f"{c['phase']} call at {c['threads']} threads exited {c['rc']}: {c['error'] or ''}".strip())
        elif c["sha256"] != checked:
            failed += 1
            notes.append(f"{c['phase']} call at {c['threads']} threads wrote different bytes")
        elif problems:
            failed += 1
    return failed, notes


# ---------------------------------------------------------------------------
# Metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def _layer(call: dict, name: str, key: str) -> float:
    return call["layers"].get(name, {}).get(key, 0.0)


def per_call_layers(call: dict, work: dict) -> dict:
    counters = call["counters"]
    grid_s = _layer(call, "coverage.strengths_grid", "s")
    elements = counters.get("coverage.gate_elements", 0.0)
    scored = work.get("chromosomes_scored", 0)
    walk_steps = call["walk_se3_steps"]
    return {
        "coverage.strengths_grid.s": grid_s,
        "coverage.strengths_grid.calls": _layer(call, "coverage.strengths_grid", "calls"),
        "coverage.strengths_grid.minor_faults": counters.get("coverage.strengths_grid.minor_faults", 0.0),
        "coverage.gate_elements": elements,
        "coverage.gate_rate": elements / grid_s if grid_s > 0 else 0.0,
        "coverage.occlusion_pairs": counters.get("coverage.occlusion_pairs", 0.0),
        "coverage.cell_counts.self_s": _layer(call, "coverage.cell_counts", "self_s"),
        "deployment.evaluate_coverage.self_s": _layer(call, "deployment.evaluate_coverage", "self_s"),
        "deployment.evaluate_coverage.calls": _layer(call, "deployment.evaluate_coverage", "calls"),
        "ega.GeneSpace.decode.self_s": _layer(call, "ega.GeneSpace.decode", "self_s"),
        "ega.GeneSpace.decode.calls": _layer(call, "ega.GeneSpace.decode", "calls"),
        "ega.run.self_s": _layer(call, "ega.run", "self_s"),
        "ega.memo_hit_ratio": (
            1.0 - _layer(call, "deployment.evaluate_coverage", "calls") / scored if scored else 0.0
        ),
        "geometry.se3_step.self_s": _layer(call, "geometry.se3_step", "self_s"),
        "geometry.se3_step.calls": _layer(call, "geometry.se3_step", "calls"),
        "observer.random_walk_trajectory.s": _layer(call, "observer.random_walk_trajectory", "s"),
        "observer.walk_accept_ratio": work.get("steps", 0) / walk_steps if walk_steps else 0.0,
        "observer.observer_step.self_s": _layer(call, "observer.observer_step", "self_s"),
        "observer.pose_strengths.self_s": _layer(call, "observer.pose_strengths", "self_s"),
        "observer.simulate.self_s": _layer(call, "observer.simulate", "self_s"),
        "cli.main.self_s": _layer(call, "cli.main", "self_s"),
    }


PER_LAYER_UNITS = {
    "coverage.strengths_grid.s": "s",
    "coverage.strengths_grid.calls": "count",
    "coverage.strengths_grid.minor_faults": "count",
    "coverage.gate_elements": "count",
    "coverage.gate_rate": "1/s",
    "coverage.occlusion_pairs": "count",
    "coverage.occlusion_probe_s": "s",
    "coverage.cell_counts.self_s": "s",
    "deployment.evaluate_coverage.self_s": "s",
    "deployment.evaluate_coverage.calls": "count",
    "ega.GeneSpace.decode.self_s": "s",
    "ega.GeneSpace.decode.calls": "count",
    "ega.run.self_s": "s",
    "ega.memo_hit_ratio": "ratio",
    "geometry.se3_step.self_s": "s",
    "geometry.se3_step.calls": "count",
    "observer.random_walk_trajectory.s": "s",
    "observer.walk_accept_ratio": "ratio",
    "observer.observer_step.self_s": "s",
    "observer.pose_strengths.self_s": "s",
    "observer.simulate.self_s": "s",
    "cli.main.self_s": "s",
    "setup.import_s": "s",
    "setup.import.pdf_estimation_s": "s",
    "setup.import.geometry_s": "s",
    "setup.import.coverage_s": "s",
    "threads.run_2t_s": "s",
    "threads.speedup_2t": "ratio",
    "trace.overhead_share": "ratio",
}


def trace_accounting(traced: list[dict], untraced_s: float) -> tuple[dict, list[str]]:
    """Self times must add up to the traced wall time within the tracing overhead."""
    problems = []
    rows = []
    for call in traced:
        self_sum = sum(entry["self_s"] for entry in call["layers"].values())
        negative = [name for name, entry in call["layers"].items() if entry["self_s"] < -1e-9]
        overhead = max(call["wall_s"] - untraced_s, 0.0)
        gap = call["wall_s"] - self_sum
        rows.append({"wall_s": call["wall_s"], "self_sum_s": self_sum, "overhead_s": overhead})
        if negative:
            problems.append(f"trace: negative self time in {negative}")
        if not (-1e-6 <= gap <= overhead + 1e-3):
            problems.append(
                f"trace: self times sum to {self_sum:.6f} s against a traced wall of "
                f"{call['wall_s']:.6f} s (overhead {overhead:.6f} s)"
            )
    return {"calls": rows}, problems


def breakdown(traced: list[dict]) -> dict:
    """Median per-layer calls, inclusive and self seconds over the traced calls."""
    names = sorted({name for call in traced for name in call["layers"]})
    return {
        name: {key: _median([_layer(c, name, key) for c in traced]) for key in ("calls", "s", "self_s")}
        for name in names
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS, check_outputs

    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "landmark_coverage", "cli.py")) or not os.path.isdir(
        os.path.join(REPO, "configs")
    ):
        print(f"error: no landmark_coverage sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK_ROOT, workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    sys.path.insert(0, SRC)
    import numpy
    import scipy

    import landmark_coverage as lc
    import landmark_coverage.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        workload.prepare(lc, cli.main, REPO, workdir, args.seed)

    if args.trace:
        setup = time_imports(workdir)
    else:
        setup = time_setup(workdir)

    proc, worker_s = _run_child(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload.name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--mode", "traced" if args.trace else "timed"],
        workdir,
        WORKER_TIMEOUT_S,
    )
    if proc is None or proc.returncode != 0:
        print(f"error: worker failed after {worker_s:.1f} s", file=sys.stderr)
        if proc is not None:
            print(proc.stderr, file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.strip().splitlines()[-1])
    calls = worker["calls"]

    out_dir = os.path.join(workdir, "out-1t")
    problems = check_outputs(lc, workload, workdir, out_dir, args.seed)
    work = workload.work(lc, workdir, out_dir) if not problems else {}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(lc, numpy, scipy),
        "work": work,
        "setup": setup,
        "worker_import_s": worker["import_s"],
        "peak_rss_mb": worker["peak_rss_mb"],
        "calls": calls,
    }

    timed = {t: [c["seconds"] for c in calls if c["phase"] == "timed" and c["threads"] == t] for t in (1, 2)}
    run_s = _median(timed[1])
    record["timings"] = {"run_s": timing_summary(timed[1])}
    if args.trace:
        traced = worker["traced"]
        accounting, trace_problems = trace_accounting(traced, run_s)
        problems += trace_problems
        record["timings"]["run_2t_s"] = timing_summary(timed[2])
        record["trace_accounting"] = accounting
        record["breakdown"] = breakdown(traced)
        record["probe_s"] = worker["probe_s"]

        per_call = [per_call_layers(call, work) for call in traced]
        values = {name: _median([row[name] for row in per_call]) for name in per_call[0]}
        values["coverage.occlusion_probe_s"] = _median(worker["probe_s"])
        imports = setup["runs"]
        values["setup.import_s"] = _median([r["import_s"] for r in imports])
        for short in IMPORTTIME_MODULES:
            values[f"setup.import.{short}_s"] = _median([r[short] for r in imports])
        run_2t_s = _median(timed[2])
        values["threads.run_2t_s"] = run_2t_s
        values["threads.speedup_2t"] = run_s / run_2t_s if run_2t_s > 0 else 0.0
        traced_wall = _median([c["wall_s"] for c in traced])
        values["trace.overhead_share"] = traced_wall / run_s - 1.0 if run_s > 0 else 0.0
        units = PER_LAYER_UNITS
    else:
        record["timings"]["setup_s"] = timing_summary(setup["samples_s"])
        values = {"setup_s": _median(setup["samples_s"]), "run_s": run_s, "peak_rss_mb": worker["peak_rss_mb"]}
        units = END_TO_END_UNITS

    failed, notes = judge_calls(calls, problems)
    failed += setup["failed"]
    attempted = len(calls) + setup["attempted"]
    record["problems"] = problems + notes
    correct = not record["problems"]
    if not args.trace:
        values["success_share"] = 1.0 - failed / attempted
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    from report import print_record

    print_record(record)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
