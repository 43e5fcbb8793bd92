"""Gene coding, population mechanics, and search determinism."""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest

import landmark_coverage.deployment as dep
import landmark_coverage.ega as ega
from landmark_coverage.coverage import CoverageParams
from landmark_coverage.geometry import CameraIntrinsics, Landmark, landmark_normal

INTRINSICS = CameraIntrinsics(
    f=5.0, s_u=0.0058, s_v=0.0058, o_u=800, o_v=600,
    width=1600, height=1200, d_a=10.0, d_s=1778.0,
)


def search_scene(thold_p=0.3):
    return dep.make_scene(
        (300.0, 200.0, 250.0),
        (200.0, 100.0, 150.0),
        (2, 2, 2),
        intrinsics=INTRINSICS,
        params=CoverageParams(thold=0.2, delta=4.0, n=1),
        thold_p=thold_p,
        n_yaw=8,
        n_pitch=4,
    )


def test_gene_space_bounds_wall_encoding():
    scene = search_scene()
    space = ega.GeneSpace(scene, count=3, encoding="wall")
    assert space.length == 15
    assert space.draw_lo[0] == 0.0 and space.draw_hi[0] == 6.0
    assert space.clamp_hi[0] < 6.0  # wall index stays decodable
    assert space.draw_hi[3] == math.pi
    assert space.clamp_hi[3] < math.pi
    assert space.draw_lo[4] == -math.pi / 2 and space.draw_hi[4] == math.pi / 2


def test_gene_space_random_within_bounds():
    scene = search_scene()
    space = ega.GeneSpace(scene, count=4, encoding="wall")
    rng = np.random.default_rng(0)
    for _ in range(50):
        genes = space.random(rng)
        assert np.all(genes >= space.draw_lo)
        assert np.all(genes < space.draw_hi)


def test_decode_clamps_and_maps_walls():
    scene = search_scene()
    space = ega.GeneSpace(scene, count=1, encoding="wall")
    genes = np.array([99.0, 2.0, -1.0, 10.0, -10.0])
    deployment = space.decode(genes)
    lm = deployment.landmarks[0]
    # Wall index clamps to the last wall; u, v clamp to the far corner edges.
    last = scene.walls[-1]
    assert np.allclose(lm.position, last.point(1.0, 0.0))
    assert lm.rho < math.pi
    assert lm.eta == -math.pi / 2
    assert lm.nu == scene.nu_default
    assert lm.mu == 0.0
    with pytest.raises(ValueError):
        space.decode(np.zeros(7))


def test_decode_free_encoding_clamps_to_room():
    scene = search_scene()
    space = ega.GeneSpace(scene, count=1, encoding="free")
    deployment = space.decode(np.array([1000.0, -5.0, 100.0, 0.0, 0.0]))
    assert np.allclose(deployment.landmarks[0].position, [300.0, 0.0, 100.0])


def test_encode_decode_round_trip():
    scene = search_scene()
    deployment = dep.generate_uniform(scene, 6)
    space = ega.GeneSpace(scene, count=6, encoding="wall")
    genes = space.encode(deployment)
    back = space.decode(genes)
    for a, b in zip(deployment.landmarks, back.landmarks):
        assert np.allclose(a.position, b.position, atol=1e-9)
        assert a.rho == b.rho and a.eta == b.eta


def test_encode_rejects_off_wall_landmark():
    scene = search_scene()
    space = ega.GeneSpace(scene, count=1, encoding="wall")
    floater = dep.Deployment([Landmark(np.array([150.0, 100.0, 125.0]), 0.0, 0.0)])
    with pytest.raises(ValueError, match="does not lie on an active wall"):
        space.encode(floater)


def test_gene_space_validation():
    scene = search_scene()
    with pytest.raises(ValueError):
        ega.GeneSpace(scene, count=0, encoding="wall")
    with pytest.raises(ValueError):
        ega.GeneSpace(scene, count=1, encoding="diagonal")


def test_params_validation_messages():
    with pytest.raises(ValueError, match="Q \\+ 1 <= M"):
        ega.EgaParams(m=5, q=5)
    with pytest.raises(ValueError):
        ega.EgaParams(m=0)
    with pytest.raises(ValueError):
        ega.EgaParams(upsilon_min=0)
    with pytest.raises(ValueError):
        ega.EgaParams(upsilon_min=3, upsilon_max=2)
    with pytest.raises(ValueError):
        ega.EgaParams(psi=1.5)
    with pytest.raises(ValueError):
        ega.EgaParams(iterations=-1)
    with pytest.raises(ValueError):
        ega.EgaParams(plateau=0)


def test_default_segment_bounds():
    assert ega.default_segment_bounds(60) == (13, 40)
    assert ega.default_segment_bounds(1) == (1, 1)
    assert ega.default_segment_bounds(5) == (1, 3)


def test_run_same_seed_reproducible():
    scene = search_scene()
    params = ega.EgaParams(m=8, q=2, upsilon_min=2, upsilon_max=6, iterations=6, seed=3)
    best1, hist1 = ega.run(scene, params, count=2)
    best2, hist2 = ega.run(scene, params, count=2)
    assert [h.best for h in hist1] == [h.best for h in hist2]
    assert [h.mean for h in hist1] == [h.mean for h in hist2]
    for a, b in zip(best1.landmarks, best2.landmarks):
        assert np.array_equal(a.position, b.position) and a.rho == b.rho


def test_sga_mode_equals_zero_replacement():
    scene = search_scene()
    base = ega.EgaParams(m=8, q=2, upsilon_min=2, upsilon_max=6, iterations=6, seed=1)
    best_sga, hist_sga = ega.run(scene, base, count=2, mode="sga")
    best_q0, hist_q0 = ega.run(
        scene,
        ega.EgaParams(m=8, q=0, upsilon_min=2, upsilon_max=6, iterations=6, seed=1),
        count=2,
        mode="ega",
    )
    assert [(h.best, h.mean, h.worst) for h in hist_sga] == [
        (h.best, h.mean, h.worst) for h in hist_q0
    ]
    for a, b in zip(best_sga.landmarks, best_q0.landmarks):
        assert np.array_equal(a.position, b.position)
        assert a.rho == b.rho and a.eta == b.eta


def test_elitism_never_loses_the_best():
    scene = search_scene()
    params = ega.EgaParams(m=10, q=3, upsilon_min=2, upsilon_max=8, iterations=15, seed=4)
    _, history = ega.run(scene, params, count=3)
    bests = [h.best for h in history]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
    assert all(h.worst <= h.mean <= h.best for h in history)


def test_initial_deployment_seeds_population():
    scene = search_scene()
    deployment = dep.generate_uniform(scene, 4)
    space = ega.GeneSpace(scene, count=4, encoding="wall")
    seeded_cost = dep.cost(scene, space.decode(space.encode(deployment)))
    params = ega.EgaParams(m=6, q=1, upsilon_min=2, upsilon_max=5, iterations=0, seed=0)
    _, history = ega.run(scene, params, initial=deployment)
    assert history[0].best >= seeded_cost
    assert len(history) == 1


def test_run_validation():
    scene = search_scene()
    with pytest.raises(ValueError, match="mode"):
        ega.run(scene, ega.EgaParams(), count=2, mode="annealing")
    with pytest.raises(ValueError, match="landmark count or an initial"):
        ega.run(scene, ega.EgaParams())
    with pytest.raises(ValueError, match="exceeds chromosome length"):
        ega.run(scene, ega.EgaParams(upsilon_min=1, upsilon_max=99), count=2)


def test_plateau_stops_early():
    # thold_p = 1.0 makes every cost zero, so the best never improves.
    scene = search_scene(thold_p=1.0)
    params = ega.EgaParams(m=6, q=1, upsilon_min=1, upsilon_max=3, iterations=50,
                           seed=0, plateau=3)
    _, history = ega.run(scene, params, count=1)
    assert len(history) == 4  # generation 0 plus three stalled generations
    assert history[-1].best == 0.0


def test_memo_avoids_reevaluating_rows(monkeypatch):
    scene = search_scene()
    space = ega.GeneSpace(scene, count=1, encoding="wall")
    calls = {"n": 0}
    real_cost = ega.cost

    def counting_cost(s, d, threads=1):
        calls["n"] += 1
        return real_cost(s, d, threads=threads)

    monkeypatch.setattr(ega, "cost", counting_cost)
    memo = ega._Memo(scene, space, threads=1)
    rng = np.random.default_rng(0)
    row = space.random(rng)
    genes = np.stack([row, row.copy(), space.random(rng)])
    fits = memo.fitnesses(genes)
    assert calls["n"] == 2  # duplicate row hits the cache
    assert fits[0] == fits[1]
    memo.fitnesses(genes)
    assert calls["n"] == 2


def test_threaded_fitness_matches_serial():
    scene = search_scene()
    params = ega.EgaParams(m=6, q=2, upsilon_min=2, upsilon_max=6, iterations=4, seed=7)
    _, hist1 = ega.run(scene, params, count=2, threads=1)
    _, hist4 = ega.run(scene, params, count=2, threads=4)
    assert [(h.best, h.mean, h.worst) for h in hist1] == [
        (h.best, h.mean, h.worst) for h in hist4
    ]


def landmark_decode(space, genes):
    """The chromosome decode built plate by plate from Landmark objects."""
    clipped = np.clip(np.asarray(genes, dtype=float).ravel(), space.clamp_lo, space.clamp_hi)
    landmarks = []
    for g in clipped.reshape(space.count, ega.GENES_PER_LANDMARK):
        if space.encoding == "wall":
            idx = min(int(g[0]), len(space.scene.walls) - 1)
            position = space.scene.walls[idx].point(g[1], g[2])
        else:
            position = g[:3]
        landmarks.append(Landmark(position, rho=g[3], eta=g[4], mu=0.0, nu=space.scene.nu_default))
    return dep.Deployment(landmarks)


def slanted_walls(rng, count):
    """Walls with skew, non-unit edge vectors, where the order of Wall.point's
    products and sums shows in the last bits of a position."""
    walls = []
    for i in range(count):
        u_dir, v_dir = rng.normal(size=3), rng.normal(size=3)
        normal = np.cross(u_dir, v_dir)
        walls.append(dep.Wall(f"slant{i}", rng.uniform(-50.0, 50.0, 3), u_dir, v_dir,
                              rng.uniform(10.0, 300.0), rng.uniform(10.0, 300.0),
                              normal / np.linalg.norm(normal)))
    return walls


def edge_chromosomes(space, rng):
    """Chromosomes whose genes sit on, or past, the clamp bounds."""
    n_w = len(space.scene.walls)
    lo, hi = space.clamp_lo[: ega.GENES_PER_LANDMARK], space.clamp_hi[: ega.GENES_PER_LANDMARK]
    edges = [
        [math.nextafter(float(n_w), 0.0), 0.0, 1.0, math.nextafter(math.pi, 0.0), math.pi / 2],
        [0.0, 1.0, 0.0, -math.pi, -math.pi / 2],
        lo, hi, lo - 1.0, hi + 1.0, [1e9, -1e9, 1e9, 1e9, -1e9],
    ]
    rows = []
    for _ in range(20):
        picks = rng.integers(0, len(edges), (space.count, ega.GENES_PER_LANDMARK))
        rows.append(np.array([[edges[p][j] for j, p in enumerate(row)] for row in picks]).ravel())
    return rows


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("encoding", ["wall", "free"])
def test_decode_matches_landmark_built_deployment_bitwise(monkeypatch, encoding):
    rng = np.random.default_rng(17)
    base = search_scene()
    scene = replace(base, walls=base.walls + slanted_walls(rng, 3))
    space = ega.GeneSpace(scene, count=7, encoding=encoding)
    # A numpy whose vector sin/cos differ from libm by an ulp, as SIMD builds
    # may: plate normals must still come from the scalar libm expression.
    for name in ("sin", "cos"):
        exact = getattr(np, name)
        monkeypatch.setattr(np, name, lambda x, *a, _f=exact, **k: np.nextafter(_f(x, *a, **k), np.inf))
    rows = [space.random(rng) for _ in range(200)] + edge_chromosomes(space, rng)
    for genes in rows:
        got, want = space.decode(genes), landmark_decode(space, genes)
        for name in ("positions", "normals", "nu"):
            assert_same_bits(getattr(got, name), getattr(want, name))
            assert not getattr(got, name).flags.writeable
        assert_same_bits(got.normals, np.array([landmark_normal(lm) for lm in want.landmarks]))
        assert len(got.landmarks) == len(want.landmarks) == space.count
        for a, b in zip(got.landmarks, want.landmarks):
            assert_same_bits(a.position, b.position)
            assert (a.rho, a.eta, a.mu, a.nu) == (b.rho, b.eta, b.mu, b.nu)


def test_search_builds_no_landmark(desk_scene, monkeypatch):
    built = []
    check = Landmark.__post_init__

    def spy(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Landmark, "__post_init__", spy)
    params = ega.EgaParams(m=10, q=3, upsilon_min=13, upsilon_max=40, iterations=5, seed=2)
    best, history = ega.run(desk_scene, params, count=12)
    assert built == [] and len(history) == 6
    assert len(best.landmarks) == 12  # built on demand, once
    assert len(built) == 12 and best.landmarks is best.landmarks


def test_search_threads_split_each_evaluation_into_spans(desk_scene, monkeypatch):
    # The desk fits in one span at the default block size; shrink the blocks
    # so each of its 48 positions' evaluations splits into three spans.
    k = 12
    monkeypatch.setattr(dep, "_CHUNK_ELEMENTS", 16 * max(desk_scene.grid.n_cells, k) * k)
    spans = []
    real_probabilities = dep.coverage_probabilities

    def spy(points, *args):
        spans.append((threading.get_ident(), len(points)))
        return real_probabilities(points, *args)

    monkeypatch.setattr(dep, "coverage_probabilities", spy)
    params = ega.EgaParams(m=6, q=2, upsilon_min=13, upsilon_max=40, iterations=3, seed=5)
    results = {}
    for threads in (1, 3):
        spans.clear()
        results[threads] = ega.run(desk_scene, params, count=k, threads=threads)
        assert {n for _, n in spans} == {16}
        workers = {ident for ident, _ in spans} - {threading.main_thread().ident}
        assert bool(workers) == (threads > 1)
    (best1, hist1), (best3, hist3) = results[1], results[3]
    assert [(h.best, h.mean, h.worst) for h in hist1] == [(h.best, h.mean, h.worst) for h in hist3]
    assert dep.deployment_to_json(best1) == dep.deployment_to_json(best3)
