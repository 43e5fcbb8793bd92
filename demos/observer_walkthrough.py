"""Pose observer on a moving camera, fed only what the camera can see.

Part one holds the camera still in a unit-scale scene with ideal
visibility: the squared Frobenius error of the estimate decays to
numerical zero. Part two sends the camera on seeded random walks through
the room-scale scene, where every measurement is gated by the camera
model; a deployment optimized for coverage keeps the observer fed about
twice as often as a uniform one, and a random scatter of plates leaves
the camera blind for most of the walk.
"""
from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

import landmark_coverage as lc
from landmark_coverage.ega import run as run_search
from landmark_coverage.observer import simulate

ROOT = Path(__file__).resolve().parents[1]


def bench_scene():
    """A desk-sized box in unit-ish coordinates for the static benchmark."""
    intrinsics = lc.CameraIntrinsics(
        f=5.0, s_u=0.0058, s_v=0.0058, o_u=800.0, o_v=600.0,
        width=1600, height=1200, d_a=1.0, d_s=200.0,
    )
    params = lc.CoverageParams(thold=0.0, delta=4.0, n=1)
    return lc.make_scene(
        (8.0, 8.0, 6.0), (4.0, 4.0, 3.0), (3, 3, 2),
        intrinsics=intrinsics, params=params, thold_p=0.5,
        nu_default=1.0, n_yaw=12, n_pitch=6,
    )


def static_part():
    scene = bench_scene()
    deployment = lc.generate_uniform(scene, 6)
    x0 = lc.pose_to_se3(lc.Pose6(scene.center, yaw=0.4))
    spec = lc.TrajectorySpec(initial=x0, segments=[(4.0, np.zeros((4, 4)))])
    x_hat0 = x0 @ lc.se3_exp(lc.twist([0.12, -0.1, 0.08], [0.2, -0.15, 0.1]), 1.0)
    config = lc.ObserverConfig(k_i=0.5, k0=0.0, dt=0.01, visibility="ideal")
    trace = simulate(scene, deployment, spec, config, x_hat0=x_hat0)
    for i in range(0, trace.t.size, 80):
        print(f"  t={trace.t[i]:5.2f}  Er={trace.er[i]:.3e}")
    print(f"  t={trace.t[-1]:5.2f}  Er={trace.er[-1]:.3e}  (final)")


def walk_part(scene, deployments, seeds):
    config = lc.ObserverConfig(k_i=2e-5, k0=0.0, dt=0.01, visibility="camera-model")
    qtr = {label: [] for label in deployments}
    seen = {label: [] for label in deployments}
    for seed in seeds:
        # fast panning sweeps many view directions in a short walk
        walk = lc.random_walk_trajectory(
            scene, duration=8.0, seed=seed,
            lin_speed=40.0, ang_speed=2.0, margin=10.0,
        )
        x_hat0 = walk.initial @ lc.se3_exp(lc.twist([0.15, -0.1, 0.12], [0.0, 0.0, 0.0]), 1.0)
        row = []
        for label, deployment in deployments.items():
            trace = simulate(scene, deployment, walk, config, x_hat0=x_hat0)
            qtr[label].append(trace.qualified_time_ratio)
            seen[label].append(trace.visible.sum(axis=1).mean())
            row.append(f"{label} {trace.qualified_time_ratio:6.2%}")
        print(f"  walk seed {seed}: qualified " + "  ".join(row))
    print("  means over walks:")
    for label in deployments:
        print(f"    {label:>9}: qualified {np.mean(qtr[label]):6.2%}, "
              f"plates seen {np.mean(seen[label]):4.2f}")


def main():
    ap = argparse.ArgumentParser(description="SE(3) observer demonstration")
    ap.add_argument("--scene", default=str(ROOT / "configs" / "desk_room.json"))
    ap.add_argument("--count", type=int, default=12)
    ap.add_argument("--walk-seeds", type=int, nargs="+", default=list(range(8)))
    ap.add_argument("--iterations", type=int, default=100,
                    help="search generations for the optimized deployment")
    args = ap.parse_args()

    print("static camera, ideal visibility, unit-scale scene:")
    static_part()

    scene = lc.load_scene(args.scene)
    params = lc.EgaParams(m=30, q=7, upsilon_min=13, upsilon_max=40, psi=0.1,
                          iterations=args.iterations, seed=3)
    optimized, history = run_search(scene, params, count=args.count, mode="ega")
    ratio = history[-1].best / scene.n_points
    print(f"\noptimized deployment found (qualified ratio {ratio:.4f});"
          f" walking with camera-model visibility:")
    deployments = {
        "optimized": optimized,
        "uniform": lc.generate_uniform(scene, args.count),
        "random": lc.generate_random(scene, args.count, seed=0),
    }
    walk_part(scene, deployments, args.walk_seeds)


if __name__ == "__main__":
    main()
