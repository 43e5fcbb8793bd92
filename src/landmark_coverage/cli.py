"""Command line front end.

Subcommands cover the full workflow: generate a baseline deployment,
optimize one, analyze coverage of a deployment, simulate the pose observer
along a trajectory, and estimate an orientation density from logged angles.

Every run writes its outputs plus a manifest.json into --out-dir. Outputs
are staged to temporary files and renamed into place only after the whole
run succeeds, with the manifest renamed last: a manifest.json is present
only beside a complete set of outputs from one run. Manifests carry no
timestamps; rerunning a command reproduces every output byte for byte.

Exit codes: 0 on success, 2 for bad parameters or malformed input files,
3 for runtime invariant violations such as a trajectory leaving the
reachable region.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .deployment import (
    _check_plate_count,
    evaluate_coverage,
    generate_random,
    generate_uniform,
    load_deployment,
    load_scene,
    metrics,
    deployment_to_json,
)
from .ega import GENES_PER_LANDMARK, EgaParams, default_segment_bounds, run as run_search
from .errors import SchemaError, TrajectoryOutOfRegionError, load_json as _load_json
from .observer import ObserverConfig, load_trajectory, simulate
from .pdf_estimation import (
    estimate_orientation_pdf,
    load_samples_csv,
    pdf_from_json,
    pdf_to_json,
)

def _fmt(value: float) -> str:
    return f"{value:.17g}"


class _Stage:
    """Staged output directory: write to temp names, then commit all.

    Used as a context manager; whatever was staged but not committed is
    removed on exit.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pending: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def __enter__(self) -> "_Stage":
        return self

    def __exit__(self, *exc_info):
        for name in self.pending:
            try:
                os.remove(os.path.join(self.out_dir, f".tmp.{name}"))
            except OSError:
                pass

    def path(self, name: str) -> str:
        self.pending.append(name)
        return os.path.join(self.out_dir, f".tmp.{name}")

    def commit(self, command: str, parameters: dict, inputs: dict):
        """Write manifest.json listing the staged outputs, then rename all.

        Every previous output is removed before any rename, the previous
        manifest first, and the new manifest is renamed last, so an
        interrupted commit never leaves a manifest describing a mixed set
        of outputs. No rename meets an existing file, which on some file
        systems would flush the new data to disk inside the rename.
        """
        manifest = {
            "schema": 1,
            "tool": {"name": "landmark-coverage", "version": __version__},
            "command": command,
            "parameters": parameters,
            "inputs": inputs,
            "outputs": sorted(self.pending + ["manifest.json"]),
        }
        _write_json(self.path("manifest.json"), manifest)
        for name in reversed(self.pending):  # the manifest was staged last
            try:
                os.remove(os.path.join(self.out_dir, name))
            except FileNotFoundError:
                pass
        for name in self.pending:
            os.replace(
                os.path.join(self.out_dir, f".tmp.{name}"),
                os.path.join(self.out_dir, name),
            )
        self.pending = []


def _write_json(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _resolve_threads(threads: int) -> int:
    if threads < 1:
        raise ValueError("thread count must be at least 1")
    return threads


def _scene_with_overrides(args):
    scene = load_scene(args.scene)
    if getattr(args, "pdf", None):
        pdf, n_yaw, n_pitch = pdf_from_json(_load_json(args.pdf, "pdf"), context=f"pdf {args.pdf}")
        if (n_yaw, n_pitch) != (scene.grid.n_yaw, scene.grid.n_pitch):
            raise SchemaError(
                f"pdf {args.pdf}: grid {n_yaw}x{n_pitch} does not match the scene "
                f"grid {scene.grid.n_yaw}x{scene.grid.n_pitch}"
            )
        scene = dataclasses.replace(scene, pdf=pdf)
    n = getattr(args, "n", None)
    thold_p = getattr(args, "thold_p", None)
    if n is not None or thold_p is not None:
        scene = scene.with_coverage(n=n, thold_p=thold_p)
    return scene


def _cmd_analyze(args) -> int:
    threads = _resolve_threads(args.threads)
    scene = _scene_with_overrides(args)
    deployment = load_deployment(args.deployment)
    scene.check_evaluation_size(len(deployment))
    coverage = evaluate_coverage(scene, deployment, threads=threads)
    met = metrics(coverage)

    with _Stage(args.out_dir) as stage:
        rows = (
            [
                _fmt(coverage.points[i, 0]),
                _fmt(coverage.points[i, 1]),
                _fmt(coverage.points[i, 2]),
                _fmt(coverage.p_n[i]),
                str(int(coverage.qualified[i])),
            ]
            for i in range(coverage.points.shape[0])
        )
        _write_csv(stage.path("coverage.csv"), ["x", "y", "z", "p_n", "qualified"], rows)
        _write_json(
            stage.path("metrics.json"),
            {
                "average_cp": met.average_cp,
                "cost": coverage.cost,
                "maximum_cp": met.maximum_cp,
                "n": scene.params.n,
                "qualified_ratio": met.qualified_ratio,
                "thold_p": scene.thold_p,
            },
        )
        stage.commit(
            "analyze",
            {"n": scene.params.n, "thold_p": scene.thold_p},
            {"scene": args.scene, "deployment": args.deployment, "pdf": args.pdf},
        )
    print(
        f"qualified_ratio={met.qualified_ratio:.6f} "
        f"average_cp={met.average_cp:.6f} maximum_cp={met.maximum_cp:.6f}"
    )
    return 0


def _cmd_generate(args) -> int:
    scene = load_scene(args.scene)
    if args.kind == "uniform":
        deployment = generate_uniform(scene, args.count)
    else:
        deployment = generate_random(scene, args.count, seed=args.seed)
    with _Stage(args.out_dir) as stage:
        _write_json(stage.path("deployment.json"), deployment_to_json(deployment))
        stage.commit(
            "generate",
            {"kind": args.kind, "count": args.count, "seed": args.seed},
            {"scene": args.scene},
        )
    print(f"generated {len(deployment)} landmarks ({args.kind})")
    return 0


def _cmd_optimize(args) -> int:
    threads = _resolve_threads(args.threads)
    scene = load_scene(args.scene)
    initial = load_deployment(args.initial) if args.initial else None
    if initial is not None:
        count = len(initial)
    elif args.count is not None:
        count = args.count
    else:
        raise ValueError("either --count or --initial is required")
    scene.check_evaluation_size(count)
    _check_plate_count(count)

    length = GENES_PER_LANDMARK * count
    lo, hi = default_segment_bounds(length)
    upsilon_min = args.upsilon_min if args.upsilon_min is not None else lo
    upsilon_max = args.upsilon_max if args.upsilon_max is not None else hi
    q = args.q if args.q is not None else (0 if args.mode == "sga" else EgaParams.q)
    params = EgaParams(
        m=args.m,
        q=q,
        upsilon_min=upsilon_min,
        upsilon_max=upsilon_max,
        psi=args.psi,
        iterations=args.iterations,
        seed=args.seed,
        plateau=args.plateau,
    )
    best, history = run_search(
        scene,
        params,
        count=count,
        mode=args.mode,
        encoding=args.encoding,
        initial=initial,
        threads=threads,
    )

    with _Stage(args.out_dir) as stage:
        _write_json(stage.path("deployment.json"), deployment_to_json(best))
        _write_csv(
            stage.path("history.csv"),
            ["generation", "best", "mean", "worst"],
            (
                [str(h.generation), _fmt(h.best), _fmt(h.mean), _fmt(h.worst)]
                for h in history
            ),
        )
        stage.commit(
            "optimize",
            {
                "mode": args.mode,
                "encoding": args.encoding,
                "count": count,
                **dataclasses.asdict(params),
            },
            {"scene": args.scene, "initial": args.initial},
        )
    print(
        f"generations={history[-1].generation} best={history[-1].best:.6f} "
        f"mean={history[-1].mean:.6f}"
    )
    return 0


def _cmd_simulate(args) -> int:
    config = ObserverConfig(
        k_i=args.k_i,
        k0=args.k0,
        dt=args.dt,
        visibility=args.visibility,
        use_estimate_for_visibility=args.use_estimate_visibility,
    )
    scene = load_scene(args.scene)
    deployment = load_deployment(args.deployment)
    trajectory, x_hat0 = load_trajectory(args.trajectory, scene, config.dt)
    trace = simulate(scene, deployment, trajectory, config, x_hat0=x_hat0)

    with _Stage(args.out_dir) as stage:
        counts = trace.visible.sum(axis=1)
        _write_csv(
            stage.path("trace.csv"),
            ["t", "er", "visible_count", "qualified"],
            (
                [
                    _fmt(trace.t[i]),
                    _fmt(trace.er[i]),
                    str(int(counts[i])),
                    str(int(trace.qualified[i])),
                ]
                for i in range(trace.t.size)
            ),
        )
        _write_json(
            stage.path("summary.json"),
            {
                "duration": float(trace.t[-1]),
                "final_error": trace.final_error,
                "initial_error": float(trace.er[0]),
                "qualified_time_ratio": trace.qualified_time_ratio,
                "steps": int(trace.t.size - 1),
            },
        )
        stage.commit(
            "simulate",
            dataclasses.asdict(config),
            {"scene": args.scene, "deployment": args.deployment, "trajectory": args.trajectory},
        )
    print(
        f"steps={trace.t.size - 1} final_error={trace.final_error:.6e} "
        f"qualified_time_ratio={trace.qualified_time_ratio:.4f}"
    )
    return 0


def _cmd_estimate_pdf(args) -> int:
    samples = load_samples_csv(args.samples)
    pdf, report = estimate_orientation_pdf(
        samples,
        n_yaw=args.n_yaw,
        n_pitch=args.n_pitch,
        seed=args.seed,
        mean_gap=args.mean_gap,
    )
    with _Stage(args.out_dir) as stage:
        _write_json(stage.path("pdf.json"), pdf_to_json(pdf, args.n_yaw, args.n_pitch))
        _write_json(stage.path("report.json"), report.to_json())
        stage.commit(
            "estimate-pdf",
            {
                "n_yaw": args.n_yaw,
                "n_pitch": args.n_pitch,
                "seed": args.seed,
                "mean_gap": args.mean_gap,
            },
            {"samples": args.samples},
        )
    print(
        f"kept={report.n_kept}/{report.n_raw} uniform_adopted={report.uniform_adopted}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landmark-coverage",
        description="Plate landmark deployment coverage, optimization, and observer simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="evaluate coverage of a deployment")
    analyze.add_argument("--scene", required=True)
    analyze.add_argument("--deployment", required=True)
    analyze.add_argument("--out-dir", required=True)
    analyze.add_argument("--pdf", default=None, help="orientation density JSON override")
    analyze.add_argument("--n", type=int, default=None, help="override the coverage count n")
    analyze.add_argument("--thold-p", dest="thold_p", type=float, default=None)
    analyze.add_argument("--threads", type=int, default=1)
    analyze.set_defaults(func=_cmd_analyze)

    generate = sub.add_parser("generate", help="write a uniform or random deployment")
    generate.add_argument("--scene", required=True)
    generate.add_argument("--count", type=int, required=True)
    generate.add_argument("--kind", choices=("uniform", "random"), default="uniform")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out-dir", required=True)
    generate.set_defaults(func=_cmd_generate)

    optimize = sub.add_parser("optimize", help="search for a high-coverage deployment")
    optimize.add_argument("--scene", required=True)
    optimize.add_argument("--count", type=int, default=None)
    optimize.add_argument("--initial", default=None, help="deployment JSON seeding the search")
    optimize.add_argument("--mode", choices=("ega", "sga"), default="ega")
    optimize.add_argument("--encoding", choices=("wall", "free"), default="wall")
    optimize.add_argument("--m", type=int, default=30)
    optimize.add_argument("--q", type=int, default=None)
    optimize.add_argument("--upsilon-min", dest="upsilon_min", type=int, default=None)
    optimize.add_argument("--upsilon-max", dest="upsilon_max", type=int, default=None)
    optimize.add_argument("--psi", type=float, default=0.1)
    optimize.add_argument("--iterations", type=int, default=400)
    optimize.add_argument("--seed", type=int, default=0)
    optimize.add_argument("--plateau", type=int, default=None)
    optimize.add_argument("--threads", type=int, default=1)
    optimize.add_argument("--out-dir", required=True)
    optimize.set_defaults(func=_cmd_optimize)

    simulate_p = sub.add_parser("simulate", help="run the pose observer along a trajectory")
    simulate_p.add_argument("--scene", required=True)
    simulate_p.add_argument("--deployment", required=True)
    simulate_p.add_argument("--trajectory", required=True)
    simulate_p.add_argument("--k-i", dest="k_i", type=float, default=1.0)
    simulate_p.add_argument("--k0", type=float, default=0.0)
    simulate_p.add_argument("--dt", type=float, default=0.01)
    simulate_p.add_argument(
        "--visibility", choices=("ideal", "camera-model"), default="camera-model"
    )
    simulate_p.add_argument(
        "--use-estimate-visibility", action="store_true", dest="use_estimate_visibility"
    )
    simulate_p.add_argument("--out-dir", required=True)
    simulate_p.set_defaults(func=_cmd_simulate)

    estimate = sub.add_parser("estimate-pdf", help="estimate an orientation density from samples")
    estimate.add_argument("--samples", required=True, help="CSV with header t,alpha,beta")
    estimate.add_argument("--n-yaw", dest="n_yaw", type=int, default=24)
    estimate.add_argument("--n-pitch", dest="n_pitch", type=int, default=12)
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument("--mean-gap", dest="mean_gap", type=float, default=None)
    estimate.add_argument("--out-dir", required=True)
    estimate.set_defaults(func=_cmd_estimate_pdf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrajectoryOutOfRegionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
