"""Gene coding, population mechanics, and search determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

import landmark_coverage.coverage as coverage_module
import landmark_coverage.deployment as dep
import landmark_coverage.ega as ega
from landmark_coverage.coverage import CoverageParams, strengths_grid
from landmark_coverage.geometry import CameraIntrinsics, Landmark, landmark_normal, normal_to_angles

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
    # Every later generation carries its row 0, the unmutated elite, at the
    # previous generation's best fitness, and scores only rows 1..m-1, in
    # one batch of stacked deployments.
    real_batch, real_next = ega.evaluate_coverages, ega._next_generation
    generations = []  # (genes, space, deployments scored) per generation

    def counting_batch(s, plates, m):
        k = len(plates) // m
        scored = generations[-1][2]
        assert scored == []  # one batch per generation
        for i in range(m):
            plate_slice = slice(i * k, (i + 1) * k)
            scored.append({name: getattr(plates, name)[plate_slice] for name in ("positions", "rho", "eta")})
        return real_batch(s, plates, m)

    def recording_next(genes, fits, space, params, rng):
        out = real_next(genes, fits, space, params, rng)
        generations.append((out, space, []))
        return out

    monkeypatch.setattr(ega, "evaluate_coverages", counting_batch)
    monkeypatch.setattr(ega, "_next_generation", recording_next)
    scene = search_scene()
    params = ega.EgaParams(m=6, q=2, upsilon_min=2, upsilon_max=6, iterations=4, seed=3)
    runs = [
        (scene, params, {"count": 2}),
        (scene, params, {"initial": dep.generate_random(scene, 2, seed=1)}),
        # thold_p = 1.0 makes every cost zero, so the plateau stops the search
        (search_scene(thold_p=1.0), replace(params, iterations=50, plateau=3), {"count": 2}),
    ]
    for run_scene, run_params, kwargs in runs:
        generations[:] = [(None, None, [])]
        _, history = ega.run(run_scene, run_params, **kwargs)
        m, g = run_params.m, len(history) - 1
        assert g == len(generations) - 1 == (3 if run_params.plateau else 4)
        assert sum(len(scored) for _, _, scored in generations) == m + g * (m - 1)
        assert len(generations[0][2]) == m
        for gen, (genes, space, scored) in enumerate(generations[1:], start=1):
            assert len(scored) == m - 1
            for row, d in zip(genes[1:], scored):
                expected = space.decode(row)
                for name in ("positions", "rho", "eta"):
                    assert np.array_equal(d[name], getattr(expected, name))
            assert dep.cost(run_scene, space.decode(genes[0])) == history[gen - 1].best


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
    # Shrink the passes to 16 rows, so each generation's (chromosome,
    # position) rows, 6 or 5 chromosomes x 48 positions, split into passes
    # of 16; the search must match one run at the default pass size.
    k = 12
    params = ega.EgaParams(m=6, q=2, upsilon_min=13, upsilon_max=40, iterations=3, seed=5)
    best_default, hist_default = ega.run(desk_scene, params, count=k)
    monkeypatch.setattr(coverage_module, "_CHUNK_ELEMENTS", 16 * max(desk_scene.grid.n_cells, k) * k)
    spans = []
    real_gates = coverage_module._live_gates

    def spy(points, *args):  # one gate-core pass
        spans.append(len(points))
        return real_gates(points, *args)

    monkeypatch.setattr(coverage_module, "_live_gates", spy)
    best16, hist16 = ega.run(desk_scene, params, count=k)
    assert set(spans) == {16}
    assert [(h.best, h.mean, h.worst) for h in hist16] == [(h.best, h.mean, h.worst) for h in hist_default]
    assert dep.deployment_to_json(best16) == dep.deployment_to_json(best_default)


def generation_scene(pdf):
    # 8 positions and 32 cells: with 12 plates the depth block's last
    # 12-cell slice is short, and 3-row passes cut chromosomes mid-way.
    return dep.make_scene(
        (300.0, 200.0, 250.0), (200.0, 100.0, 150.0), (2, 2, 2),
        intrinsics=INTRINSICS, params=CoverageParams(thold=0.2, delta=4.0, n=1),
        thold_p=0.05, nu_default=0.5, n_yaw=8, n_pitch=4, pdf=pdf,
    )


def clustered_chromosome(scene, count):
    """Free-encoded plates on a 2 cm grid 120 cm along cell 26's axis from
    position 0, each facing it, so all of them cover that (position, cell)."""
    point, axis = scene.points[0], scene.grid.rotations()[26, 2]
    u = np.cross(axis, [0.0, 0.0, 1.0])
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    side = math.ceil(math.sqrt(count))
    genes = []
    for i in range(count):
        position = point + 120.0 * axis + (i % side - side / 2) * 2.0 * u + (i // side - side / 2) * 2.0 * v
        sight = position - point
        genes += [*position, *normal_to_angles(-sight / np.linalg.norm(sight))]
    return np.array(genes)


def mask_cost(scene, plates):
    """The cost from the summed (B, G, K) mask, with no per-row accumulator."""
    counts = strengths_grid(
        scene.points, scene.grid.rotations(), plates, scene.intrinsics, scene.params.delta, scene.params.thold
    ).sum(axis=2)
    p_n = [math.fsum(scene.pdf.weights[row >= scene.params.n].tolist()) for row in counts]
    return math.fsum(scene.rel[np.array(p_n) >= scene.thold_p].tolist()), int(counts.max())


@pytest.mark.parametrize("count", [1, 12, 256])
@pytest.mark.parametrize("pdf", ["uniform", "solid-angle"])
@pytest.mark.parametrize("encoding", ["wall", "free"])
def test_generation_costs_equal_per_deployment_costs_bitwise(monkeypatch, encoding, pdf, count):
    scene = generation_scene(pdf)
    space = ega.GeneSpace(scene, count, encoding)
    rng = np.random.default_rng(count)
    block = np.stack([space.random(rng) for _ in range(7)])
    block[3] = block[1]  # a repeated chromosome
    if encoding == "free" and count == 256:
        block[0] = clustered_chromosome(scene, count)
    expected = [dep.cost(scene, space.decode(row)) for row in block]
    assert any(expected)
    assert [mask_cost(scene, space.decode(row))[0] for row in block] == expected
    if encoding == "free" and count == 256:
        # 256 plates on one cell: a uint8 count would wrap to 0 there
        assert mask_cost(scene, space.decode(block[0]))[1] == 256
    grid_width = max(scene.grid.n_cells, count)
    for span_rows in (None, 3):
        if span_rows is not None:
            monkeypatch.setattr(coverage_module, "_CHUNK_ELEMENTS", span_rows * grid_width * count)
        stack = dep.evaluate_coverages(scene, space.decode(block), len(block))
        assert stack.cost.tolist() == expected
        for p_n, row in zip(stack.p_n, block):
            assert p_n.tobytes() == dep.evaluate_coverage(scene, space.decode(row)).p_n.tobytes()


def test_run_builds_one_coverage_map_per_scored_generation(monkeypatch):
    # A generation's chromosomes are the rows of one stacked map, not one map each.
    real_init, real_next = dep.CoverageMap.__post_init__, ega._next_generation
    generations = [[]]  # the p_n shape of each map built, per generation

    def counting_init(self):
        generations[-1].append(self.p_n.shape)
        real_init(self)

    def marking_next(*args):
        generations.append([])
        return real_next(*args)

    monkeypatch.setattr(dep.CoverageMap, "__post_init__", counting_init)
    monkeypatch.setattr(ega, "_next_generation", marking_next)
    scene = generation_scene("solid-angle")
    params = ega.EgaParams(m=6, q=2, upsilon_min=2, upsilon_max=6, iterations=3, seed=0)
    ega.run(scene, params, count=4)
    n = scene.n_points
    assert generations == [[(6, n)], [(5, n)], [(5, n)], [(5, n)]]


def test_evaluate_coverages_refuses_uneven_stacks():
    scene = generation_scene("uniform")
    plates = dep.generate_random(scene, 7, seed=0)
    with pytest.raises(ValueError, match="7 plates do not split into 2 deployments"):
        dep.evaluate_coverages(scene, plates, 2)


def test_a_desk_generation_is_five_gate_core_calls(desk_scene, monkeypatch):
    # 29 new chromosomes x 48 positions = 1392 rows, in passes of
    # 2^18 // (72 cells x 12 plates) = 303 rows: 5 gate-core calls, not 29.
    real_gates, real_next = coverage_module._live_gates, ega._next_generation
    generations = [[]]

    def counting_gates(points, *args):
        generations[-1].append(len(points))
        return real_gates(points, *args)

    def marking_next(*args):
        generations.append([])
        return real_next(*args)

    monkeypatch.setattr(coverage_module, "_live_gates", counting_gates)
    monkeypatch.setattr(ega, "_next_generation", marking_next)
    ega.run(desk_scene, ega.EgaParams(m=30, iterations=1, seed=0), count=12)
    assert generations == [[303] * 4 + [30 * 48 - 4 * 303], [303] * 4 + [29 * 48 - 4 * 303]]


def test_a_search_splits_the_rel_weights_once(monkeypatch):
    """Every generation's cost is ``math.fsum`` of its qualified rel weights, from one split per search."""
    rel = np.random.default_rng(4).uniform(0.0, 3.0, 8) * 2.0 ** np.arange(-20, 20, 5)
    scene = replace(generation_scene("solid-angle"), rel=rel)
    splits, split = [], dep.split_weights
    monkeypatch.setattr(dep, "split_weights", lambda w: splits.append(w) or split(w))
    maps, batch = [], ega.evaluate_coverages
    monkeypatch.setattr(ega, "evaluate_coverages", lambda *args: maps.append(batch(*args)) or maps[-1])
    best, history = ega.run(scene, ega.EgaParams(m=6, q=2, iterations=4, seed=2), count=3)
    assert len(splits) == 1 and splits[0] is rel
    assert len(maps) == 5 and any(m.cost.any() for m in maps)
    for coverage in maps:
        want = [math.fsum(rel[row].tolist()) for row in coverage.qualified]
        assert coverage.cost.tobytes() == np.array(want).tobytes()
    assert dep.cost(scene, best) == history[-1].best


def test_single_chromosome_search_scores_empty_generations(monkeypatch):
    # With m = 1 every later generation is the elite's copy alone, so its
    # batch has no rows, and the history repeats generation 0.
    scene = generation_scene("uniform")
    real_batch = ega.evaluate_coverages
    batches = []

    def counting_batch(s, plates, m):
        batches.append((m, len(plates)))
        return real_batch(s, plates, m)

    monkeypatch.setattr(ega, "evaluate_coverages", counting_batch)
    params = ega.EgaParams(m=1, q=0, iterations=3, seed=4)
    best, history = ega.run(scene, params, count=3)
    assert batches == [(1, 3), (0, 0), (0, 0), (0, 0)]
    space = ega.GeneSpace(scene, 3, "wall")
    only = space.decode(space.random(np.random.default_rng(4)))
    c = dep.cost(scene, only)
    assert c == 8.0
    assert [(h.generation, h.best, h.mean, h.worst) for h in history] == [(g, c, c, c) for g in range(4)]
    assert dep.deployment_to_json(best) == dep.deployment_to_json(only)


def reference_next_generation(genes, fits, space, params, rng):
    """The generation step built row by row from Python lists: the oracle
    whose populations and generator states _next_generation must match."""
    m, length = genes.shape
    elite = int(np.argmax(fits))
    others = [i for i in range(m) if i != elite]
    by_fitness = sorted(others, key=lambda i: (fits[i], i))
    dropped = set(by_fitness[: params.q])
    pool = [i for i in others if i not in dropped]

    replacements = [space.random(rng) for _ in range(params.q)]

    children = [genes[i].copy() for i in pool]
    if children:
        perm = rng.permutation(len(children))
        children = [children[int(j)] for j in perm]
        for a in range(0, len(children) - 1, 2):
            seg = int(rng.integers(params.upsilon_min, params.upsilon_max + 1))
            offset = int(rng.integers(0, length - seg + 1))
            left = children[a][offset : offset + seg].copy()
            children[a][offset : offset + seg] = children[a + 1][offset : offset + seg]
            children[a + 1][offset : offset + seg] = left

    rows = [genes[elite].copy()] + children + replacements
    for chrom in rows[1:]:
        mask = rng.random(length) < params.psi
        draws = space.random(rng)
        chrom[mask] = draws[mask]
        np.clip(chrom, space.clamp_lo, space.clamp_hi, out=chrom)
    return np.stack(rows)


@pytest.mark.parametrize("m, q, psi", [(1, 0, 0.5), (2, 1, 0.3), (3, 2, 1.0), (8, 3, 0.5),
                                       (30, 7, 0.1), (30, 0, 0.1), (31, 7, 0.0)])
@pytest.mark.parametrize("count", [1, 12])
@pytest.mark.parametrize("encoding", ["wall", "free"])
def test_generation_step_matches_row_by_row_reference(encoding, count, m, q, psi):
    space = ega.GeneSpace(search_scene(), count, encoding)
    lo, hi = ega.default_segment_bounds(space.length)
    params = ega.EgaParams(m=m, q=q, upsilon_min=lo, upsilon_max=hi, psi=psi)
    for seed in range(4):
        fit_rng = np.random.default_rng(100 + seed)
        genes = np.stack([space.random(fit_rng) for _ in range(m)])
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            # Few distinct fitness values, so selection meets ties.
            fits = fit_rng.integers(0, 3, m).astype(float)
            got = ega._next_generation(genes, fits, space, params, rng)
            want = reference_next_generation(genes, fits, space, params, ref_rng)
            assert_same_bits(got, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            genes = got


@pytest.mark.parametrize("seeded", [False, True])
def test_first_generation_is_row_by_row_draws(monkeypatch, seeded):
    scene = search_scene()
    initial = dep.generate_random(scene, 3, seed=5) if seeded else None
    params = ega.EgaParams(m=7, q=2, upsilon_min=2, upsilon_max=6, iterations=1, seed=9)
    real_next, first = ega._next_generation, []

    def recording_next(genes, fits, space, params, rng):
        first.append((genes.copy(), rng.bit_generator.state))
        return real_next(genes, fits, space, params, rng)

    monkeypatch.setattr(ega, "_next_generation", recording_next)
    ega.run(scene, params, count=3, initial=initial)
    space = ega.GeneSpace(scene, 3, "wall")
    rng = np.random.default_rng(params.seed)
    rows = [space.encode(initial)] if seeded else []
    rows += [space.random(rng) for _ in range(params.m - len(rows))]
    (genes, state), = first
    assert_same_bits(genes, np.stack(rows))
    assert state == rng.bit_generator.state
