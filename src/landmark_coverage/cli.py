"""Command line front end.

Subcommands cover the full workflow: generate a baseline deployment,
optimize one, analyze coverage of a deployment, simulate the pose observer
along a trajectory, and estimate an orientation density from logged angles.

Every command computes its results first and hands them, as text chunks
per file, to one publish step (``_publish``), which writes them plus a
manifest.json into --out-dir. Each file goes to a temporary name, and the
files are renamed into place only once all are written, with the manifest
renamed last: a manifest.json is present only beside a complete set of
outputs from one run. Manifests carry no timestamps; rerunning a command
reproduces every output byte for byte.

Exit codes: 0 on success, 1 when a command needs an optional dependency
that is not installed (scipy, for estimate-pdf), 2 for bad parameters or
malformed input files, an --out-dir that exists and is not a directory
(checked before any work) or that cannot be created (found at publish
time, before any file is written), 3 for runtime invariant violations such
as a trajectory leaving the reachable region or an observer estimate
diverging.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .deployment import (
    check_plate_count,
    evaluate_coverage,
    generate_random,
    generate_uniform,
    load_deployment,
    load_scene,
    metrics,
    deployment_to_json,
)
from .ega import GENES_PER_LANDMARK, EgaParams, default_segment_bounds, run as run_search
from .errors import (
    EstimateDivergedError,
    MissingDependencyError,
    SchemaError,
    TrajectoryOutOfRegionError,
    check_seed,
    load_json as _load_json,
)
from .observer import ObserverConfig, load_trajectory, simulate
from .pdf_estimation import (
    estimate_orientation_pdf,
    load_samples_csv,
    pdf_from_json,
    pdf_to_json,
)

def _json(doc: dict):
    """The text of ``doc`` as ``json.dump`` writes it, in its chunks, then a newline."""
    yield from json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    yield "\n"


def _rows(header: str, fmt: str, *columns):
    """The lines of a CSV file: ``header``, then one ``fmt`` line per row of ``columns``, read in step.

    ``fmt`` formats a whole row, a ``{:.17g}`` field for a float and
    ``{:d}`` for an integer, so each line is one ``str.format`` call.
    """
    yield header + "\n"
    yield from map((fmt + "\n").format, *columns)


def _publish(out_dir: str, command: str, parameters: dict, inputs: dict, outputs: dict):
    """Write ``outputs``, file name -> text chunks, and a manifest.json into ``out_dir``.

    Each file is written to ``.tmp.<name>`` first. Then every previous
    output is removed, the previous manifest first, and the new files are
    renamed into place with the manifest last, so an interrupted run never
    leaves a manifest describing a mixed set of outputs. No rename meets an
    existing file, which on some file systems would flush the new data to
    disk inside the rename. Any temp file a failure leaves is removed.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--out-dir {out_dir}: cannot create it ({exc.strerror})") from exc
    outputs = {**outputs, "manifest.json": _json({
        "schema": 1,
        "tool": {"name": "landmark-coverage", "version": __version__},
        "command": command,
        "parameters": parameters,
        "inputs": inputs,
        "outputs": sorted([*outputs, "manifest.json"]),
    })}
    staged = []
    try:
        for name, chunks in outputs.items():
            staged.append(os.path.join(out_dir, f".tmp.{name}"))
            with open(staged[-1], "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        for name in reversed(outputs):  # the manifest, added last, goes first
            try:
                os.remove(os.path.join(out_dir, name))
            except FileNotFoundError:
                pass
        for tmp, name in zip(staged, outputs):
            os.replace(tmp, os.path.join(out_dir, name))
    finally:
        for tmp in staged:
            try:
                os.remove(tmp)
            except OSError:
                pass


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
    scene = _scene_with_overrides(args)
    deployment = load_deployment(args.deployment)
    scene.check_evaluation_size(len(deployment))
    coverage = evaluate_coverage(scene, deployment)
    met = metrics(coverage)

    x, y, z = coverage.points.T.tolist()
    _publish(
        args.out_dir,
        "analyze",
        {"n": scene.params.n, "thold_p": scene.thold_p},
        {"scene": args.scene, "deployment": args.deployment, "pdf": args.pdf},
        {
            "coverage.csv": _rows(
                "x,y,z,p_n,qualified", "{:.17g},{:.17g},{:.17g},{:.17g},{:d}",
                x, y, z, coverage.p_n.tolist(), coverage.qualified.tolist(),
            ),
            "metrics.json": _json({
                "average_cp": met.average_cp,
                "cost": coverage.cost,
                "maximum_cp": met.maximum_cp,
                "n": scene.params.n,
                "qualified_ratio": met.qualified_ratio,
                "thold_p": scene.thold_p,
            }),
        },
    )
    print(
        f"qualified_ratio={met.qualified_ratio:.6f} "
        f"average_cp={met.average_cp:.6f} maximum_cp={met.maximum_cp:.6f}"
    )
    if scene.params.n > len(deployment):
        print(
            f"warning: n {scene.params.n} exceeds the deployment's {len(deployment)} plates, "
            f"so P_n is 0 at every position",
            file=sys.stderr,
        )
    return 0


def _cmd_generate(args) -> int:
    check_seed(args.seed)  # the manifest records it, though a uniform layout draws nothing
    scene = load_scene(args.scene)
    if args.kind == "uniform":
        deployment = generate_uniform(scene, args.count)
    else:
        deployment = generate_random(scene, args.count, seed=args.seed)
    _publish(
        args.out_dir,
        "generate",
        {"kind": args.kind, "count": args.count, "seed": args.seed},
        {"scene": args.scene},
        {"deployment.json": _json(deployment_to_json(deployment))},
    )
    print(f"generated {len(deployment)} landmarks ({args.kind})")
    return 0


def _cmd_optimize(args) -> int:
    scene = load_scene(args.scene)
    initial = load_deployment(args.initial) if args.initial else None
    if initial is not None:
        count = len(initial)
    elif args.count is not None:
        count = args.count
    else:
        raise ValueError("either --count or --initial is required")
    scene.check_evaluation_size(count)
    check_plate_count(count)

    length = GENES_PER_LANDMARK * count
    lo, hi = default_segment_bounds(length)
    upsilon_min = args.upsilon_min if args.upsilon_min is not None else lo
    upsilon_max = args.upsilon_max if args.upsilon_max is not None else hi
    if args.mode == "sga" and args.q:  # it would run, and be recorded, with q = 0
        raise ValueError(f"--mode sga has no replacement step, so --q must be 0 or left out, got --q {args.q}")
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
    )

    _publish(
        args.out_dir,
        "optimize",
        {
            "mode": args.mode,
            "encoding": args.encoding,
            "count": count,
            **dataclasses.asdict(params),
        },
        {"scene": args.scene, "initial": args.initial},
        {
            "deployment.json": _json(deployment_to_json(best)),
            "history.csv": _rows(
                "generation,best,mean,worst", "{:d},{:.17g},{:.17g},{:.17g}",
                (h.generation for h in history), (h.best for h in history),
                (h.mean for h in history), (h.worst for h in history),
            ),
        },
    )
    print(
        f"generations={history[-1].generation} best={history[-1].best:.6f} "
        f"mean={history[-1].mean:.6f}"
    )
    if history[-1].best == 0:
        print(
            f"warning: no deployment reached a positive fitness; the highest P_n the "
            f"search scored was {max(h.max_p_n for h in history):.6g}, at thold_p {scene.thold_p:.6g}",
            file=sys.stderr,
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

    _publish(
        args.out_dir,
        "simulate",
        dataclasses.asdict(config),
        {"scene": args.scene, "deployment": args.deployment, "trajectory": args.trajectory},
        {
            "trace.csv": _rows(
                "t,er,visible_count,qualified", "{:.17g},{:.17g},{:d},{:d}",
                trace.t.tolist(), trace.er.tolist(), trace.visible.sum(axis=1).tolist(),
                trace.qualified.tolist(),
            ),
            "summary.json": _json({
                "duration": float(trace.t[-1]),
                "final_error": trace.final_error,
                "initial_error": float(trace.er[0]),
                "qualified_time_ratio": trace.qualified_time_ratio,
                "steps": int(trace.t.size - 1),
            }),
        },
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
    _publish(
        args.out_dir,
        "estimate-pdf",
        {
            "n_yaw": args.n_yaw,
            "n_pitch": args.n_pitch,
            "seed": args.seed,
            "mean_gap": args.mean_gap,
        },
        {"samples": args.samples},
        {
            "pdf.json": _json(pdf_to_json(pdf, args.n_yaw, args.n_pitch)),
            "report.json": _json(report.to_json()),
        },
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
    optimize.add_argument("--m", type=int, default=EgaParams.m)
    optimize.add_argument("--q", type=int, default=None)
    optimize.add_argument("--upsilon-min", dest="upsilon_min", type=int, default=None)
    optimize.add_argument("--upsilon-max", dest="upsilon_max", type=int, default=None)
    optimize.add_argument("--psi", type=float, default=EgaParams.psi)
    optimize.add_argument("--iterations", type=int, default=EgaParams.iterations)
    optimize.add_argument("--seed", type=int, default=EgaParams.seed)
    optimize.add_argument("--plateau", type=int, default=None)
    optimize.add_argument("--out-dir", required=True)
    optimize.set_defaults(func=_cmd_optimize)

    simulate_p = sub.add_parser("simulate", help="run the pose observer along a trajectory")
    simulate_p.add_argument("--scene", required=True)
    simulate_p.add_argument("--deployment", required=True)
    simulate_p.add_argument("--trajectory", required=True)
    simulate_p.add_argument(
        "--k-i", dest="k_i", type=float, default=1.0,
        help="correction gain (default 1.0, which diverges on the packaged cm-scale configs); "
             "runs are stable for dt * k_i * lambda_max(C_h C_h^T) up to about 3, and the "
             "benchmark and the demos use 2e-5 on the desk",
    )
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

    for command in (analyze, optimize):
        command.add_argument(
            "--threads", type=int, default=1,
            help="accepted for compatibility, from 1 to 256; coverage passes run serially, "
                 "so outputs are identical at any value",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        threads = getattr(args, "threads", 1)
        if not 1 <= threads <= 256:
            raise ValueError(f"thread count must be from 1 to 256, got {threads}")
        if os.path.exists(args.out_dir) and not os.path.isdir(args.out_dir):
            raise ValueError(f"--out-dir {args.out_dir} exists and is not a directory")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrajectoryOutOfRegionError, EstimateDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MissingDependencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
