"""Runs one workload's CLI command repeatedly in a single process.

Started by ``run_bench.py`` with the work directory as its current
directory and the package's ``src`` on ``PYTHONPATH``.  Prints one JSON
object: every call with its wall time, exit code and output hashes, the
process's peak RSS, and in traced mode the per-call layer summaries.

Modes:

* ``timed``: one untimed warm-up call, then calls at ``--threads 1`` until
  ``--seconds`` have passed.
* ``traced``: one untimed warm-up call; for half of ``--seconds``, untraced
  calls alternating ``--threads 1`` and ``--threads 2`` (``--threads 1``
  only for commands without a thread setting); traced ``--threads 1`` calls
  for the other half; then the orientation-free occlusion probe.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

from tracer import Tracer
from workloads import WORKLOADS

MIN_CALLS = 3
PROBE_REPEATS = 3


def _hashes(out_dir: str, outputs) -> dict:
    digests = {}
    for name in outputs:
        path = os.path.join(out_dir, name)
        try:
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            digests[name] = None
    return digests


class Runner:
    def __init__(self, cli, workload, seed: int):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.calls: list[dict] = []

    def call(self, threads: int, phase: str) -> dict:
        out_dir = f"out-{threads}t"
        argv = self.workload.argv(self.seed, out_dir, threads)
        error = None
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = self.cli.main(argv)
        except Exception:  # a crash is a failed call, recorded with its traceback
            rc = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        record = {
            "phase": phase,
            "threads": threads,
            "seconds": seconds,
            "rc": rc,
            "error": error,
            "sha256": _hashes(out_dir, self.workload.outputs),
        }
        self.calls.append(record)
        return record


def _timed(runner: Runner, seconds: float):
    runner.call(1, "warmup")
    deadline = time.perf_counter() + seconds
    done = 0
    while time.perf_counter() < deadline or done < MIN_CALLS:
        runner.call(1, "timed")
        done += 1


def _probe(lc, workload, seed: int) -> list[float]:
    """Times strengths_grid over the scene with a single orientation cell."""
    scene = lc.load_scene("scene.json")
    source = "out-1t/deployment.json" if workload.name == "desk-optimize" else "deployment.json"
    landmarks = lc.load_deployment(source).landmarks
    rotations = scene.grid.rotations()[:1]
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        lc.strengths_grid(scene.points, rotations, landmarks, scene.intrinsics, scene.params.delta)
        times.append(time.perf_counter() - start)
    return times


def _traced(runner: Runner, lc, seconds: float) -> dict:
    settings = (1, 2) if runner.workload.takes_threads else (1,)
    runner.call(settings[-1], "warmup")  # runs every code path of the --threads 1 call too
    half = time.perf_counter() + seconds / 2
    done = 0
    while time.perf_counter() < half or done < MIN_CALLS:
        for threads in settings:
            runner.call(threads, "timed")
        done += 1
    tracer = Tracer()
    tracer.install(lc)
    traced = []
    deadline = time.perf_counter() + seconds / 2
    try:
        while time.perf_counter() < deadline or len(traced) < MIN_CALLS:
            tracer.reset()
            record = runner.call(1, "traced")
            traced.append(
                {
                    "wall_s": record["seconds"],
                    "layers": tracer.summary(),
                    "counters": dict(tracer.counters),
                    "walk_se3_steps": tracer.descendant_calls(
                        "observer.random_walk_trajectory", "geometry.se3_step"
                    ),
                }
            )
    finally:
        tracer.uninstall()
        tracer.reset()
    return {"traced": traced, "probe_s": _probe(lc, runner.workload, runner.seed)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import landmark_coverage as lc
    import landmark_coverage.cli as cli

    import_s = time.perf_counter() - start
    runner = Runner(cli, WORKLOADS[args.workload], args.seed)
    result = {"import_s": import_s}
    if args.mode == "timed":
        _timed(runner, args.seconds)
    else:
        result.update(_traced(runner, lc, args.seconds))
    result["calls"] = runner.calls
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
