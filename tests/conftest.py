"""Shared fixtures: packaged room configs, a small unit-scale observer scene,
and the paired desk-scale search runs reused by several acceptance checks."""

import contextlib
import copy
import io
import math
from pathlib import Path

import pytest
from hypothesis import strategies as st

import landmark_coverage as lc
from landmark_coverage import ega
from landmark_coverage.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

DESK_SEEDS = tuple(range(10))
DESK_COUNT = 12
DESK_GENERATIONS = 100


@pytest.fixture(scope="session")
def table3_scene():
    return lc.load_scene(CONFIG_DIR / "table3_room.json")


@pytest.fixture(scope="session")
def desk_scene():
    return lc.load_scene(CONFIG_DIR / "desk_room.json")


@pytest.fixture(scope="session")
def experiment_scene():
    return lc.load_scene(CONFIG_DIR / "experiment_room.json")


def build_tiny_scene():
    """A unit-scale room where the observer gains are well conditioned."""
    intrinsics = lc.CameraIntrinsics(
        f=5.0,
        s_u=0.0058,
        s_v=0.0058,
        o_u=800,
        o_v=600,
        width=1600,
        height=1200,
        d_a=1.0,
        d_s=200.0,
    )
    params = lc.CoverageParams(thold=0.0, delta=4.0, n=1)
    return lc.make_scene(
        (8.0, 8.0, 6.0),
        (4.0, 4.0, 3.0),
        (3, 3, 2),
        intrinsics=intrinsics,
        params=params,
        thold_p=0.5,
        nu_default=1.0,
        n_yaw=12,
        n_pitch=6,
    )


def build_tiny_deployment(scene):
    """One inward-facing plate at the center of every wall."""
    landmarks = []
    for wall in scene.walls:
        rho, eta = lc.normal_to_angles(wall.normal)
        landmarks.append(lc.Landmark(wall.point(0.5, 0.5), rho=rho, eta=eta, nu=1.0))
    return lc.Deployment(landmarks)


@pytest.fixture(scope="session")
def tiny_scene():
    return build_tiny_scene()


@pytest.fixture(scope="session")
def tiny_deployment(tiny_scene):
    return build_tiny_deployment(tiny_scene)


@pytest.fixture(scope="session")
def desk_runs(desk_scene):
    """Both search variants on the desk scene for ten seeds.

    Expensive (about 20 s on two cores), so it runs once per session and the
    monotonicity, ordering, and observer-payoff checks all share it.
    """
    runs = {"ega": {}, "sga": {}}
    for seed in DESK_SEEDS:
        params = ega.EgaParams(
            m=30,
            q=7,
            upsilon_min=13,
            upsilon_max=40,
            psi=0.1,
            iterations=DESK_GENERATIONS,
            seed=seed,
        )
        for mode in ("ega", "sga"):
            best, history = ega.run(desk_scene, params, count=DESK_COUNT, mode=mode)
            runs[mode][seed] = (best, history)
    return runs


# ---------------------------------------------------------------------------
# Fuzzed input documents

# Hostile values for any field: non-numbers, non-finite, zero, negative and
# extreme numbers, a fractional count, and integers past the size caps and
# past the float range.
BAD_VALUES = [None, "1", True, [], {}, math.inf, -math.inf, math.nan, 10**400, 10**9,
              0, -1, 2.5, 1e-300, 1e300]


def _paths(doc, prefix=()):
    """The key or index path of every value inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, documents, max_edits=2):
    """A document from ``documents`` with up to ``max_edits`` values spoiled.

    Each edit replaces one value, a container or a leaf, with one of
    ``BAD_VALUES``, or removes an object key.
    """
    doc = copy.deepcopy(draw(documents))
    for _ in range(draw(st.integers(0, max_edits))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        node = doc
        for step in parents:
            node = node[step]
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(st.sampled_from(BAD_VALUES))
    return doc


def run_quietly(argv) -> int:
    """The exit code of one in-process CLI call, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)
