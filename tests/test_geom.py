import tracemalloc

import numpy as np
import pytest

from pointmixer import autodiff, geom

import oracles


def random_cloud(rng, n):
    return rng.uniform(-1.0, 1.0, (n, 3))


# -- knn ---------------------------------------------------------------------


def test_knn_single_point_is_its_own_neighbor():
    pts = np.array([[0.0, 0.0, 0.0]])
    m = geom.knn(pts, pts, 1)
    assert m.indices.tolist() == [[0]]


def test_knn_two_nearest_on_line():
    src = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    m = geom.knn(src, np.array([[0.0, 0, 0]]), 2)
    assert m.indices.tolist() == [[0, 1]]


def test_knn_tie_broken_by_ascending_index():
    src = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]])
    m = geom.knn(src, np.array([[0.0, 0, 0]]), 2)
    # indices 1 and 2 tie at distance 1; the smaller index wins
    assert m.indices.tolist() == [[0, 1]]


def test_knn_rejects_bad_k_and_empty():
    pts = np.zeros((3, 3))
    with pytest.raises(ValueError):
        geom.knn(pts, pts, 4)
    with pytest.raises(ValueError):
        geom.knn(pts, pts, 0)
    with pytest.raises(ValueError):
        geom.knn(np.zeros((0, 3)), pts, 1)


@pytest.mark.parametrize("seed", range(5))
def test_knn_matches_bruteforce_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    k = int(rng.integers(1, n + 1))
    src = random_cloud(rng, n)
    qry = random_cloud(rng, int(rng.integers(1, 64)))
    m = geom.knn(src, qry, k)
    assert np.array_equal(m.indices, oracles.knn_rows(src, qry, k))


@pytest.mark.parametrize("seed", range(3))
def test_knn_tie_rule_on_integer_grid(seed):
    rng = np.random.default_rng(100 + seed)
    src = rng.integers(0, 3, (40, 3)).astype(float)
    qry = rng.integers(0, 3, (10, 3)).astype(float)
    m = geom.knn(src, qry, 7)
    assert np.array_equal(m.indices, oracles.knn_rows_slow(src, qry, 7))


def test_knn_self_neighbor_when_queries_are_sources():
    rng = np.random.default_rng(7)
    pts = random_cloud(rng, 50)
    for k in (1, 4, 16):
        m = geom.knn(pts, pts, k)
        assert all(i in m.indices[i] for i in range(50))


def test_knn_deterministic_and_counted():
    rng = np.random.default_rng(3)
    pts = random_cloud(rng, 64)
    before = geom.knn_call_count()
    a = geom.knn(pts, pts, 8)
    b = geom.knn(pts, pts, 8)
    assert np.array_equal(a.indices, b.indices)
    assert geom.knn_call_count() == before + 2


def test_nearest_is_counted_as_one_search():
    pts = random_cloud(np.random.default_rng(4), 64)
    before = geom.knn_call_count()
    geom.nearest(pts, pts)
    assert geom.knn_call_count() == before + 1


def dense_d2(src, qry):
    """The full squared-distance matrix in the library's own expression."""
    with np.errstate(over="ignore"):
        return geom._sq_dist([c[:, None] for c in qry.T], list(src.T))


def dense_knn(src, qry, k):
    """The brute-force search geom.knn must reproduce bit for bit: the full
    squared-distance matrix in the library's own expression, stably sorted.
    (oracles.knn_rows sums the squares in another order, so on non-integer
    coordinates the two may break last-bit near-ties differently.)"""
    return np.argsort(dense_d2(src, qry), axis=1, kind="stable")[:, :k]


def tie_heavy_cloud(kind, rng, n):
    if kind == "grid":
        return rng.integers(0, 7, (n, 3)).astype(float)
    if kind == "rounded":
        return np.round(rng.uniform(-0.4, 0.4, (n, 3)), 1)
    base = random_cloud(rng, n // 8)
    return np.repeat(base, 8, axis=0)[rng.permutation(n)]


@pytest.fixture
def dense_rows(monkeypatch):
    """Counts the query rows that the search sends to its dense fallback."""
    rows = []
    blocks = geom._dense_blocks

    def spy(queries, sources):
        rows.append(len(queries))
        return blocks(queries, sources)

    monkeypatch.setattr(geom, "_dense_blocks", spy)
    return rows


@pytest.mark.parametrize("kind", ["grid", "rounded", "dup8"])
@pytest.mark.parametrize("seed", range(3))
def test_knn_tie_heavy_inputs_match_bruteforce(kind, seed, dense_rows):
    rng = np.random.default_rng(200 + seed)
    src = tie_heavy_cloud(kind, rng, 480)  # far more points than k + slack
    qry = np.concatenate([src[rng.permutation(480)[:150]], tie_heavy_cloud(kind, rng, 48)])
    for k in (1, 9, 16):
        m = geom.knn(src, qry, k)
        assert np.array_equal(m.indices, dense_knn(src, qry, k))
        if kind != "rounded":  # exact arithmetic: the textbook oracle agrees too
            assert np.array_equal(m.indices, oracles.knn_rows(src, qry, k))
    # the tree answered most rows; tied rows took the exact fallback
    if kind != "dup8":
        assert 0 < sum(dense_rows) < 3 * len(qry)


# rows the search sent to the dense fallback when every row asked the tree
# for k + 8 candidates at once: (kind, seed) -> counts for k = 1, 9, 16
SINGLE_TIER_DENSE_ROWS = {
    ("grid", 0): [4, 62, 68], ("grid", 1): [5, 70, 59], ("grid", 2): [7, 53, 73],
    ("rounded", 0): [0, 41, 29], ("rounded", 1): [3, 45, 19], ("rounded", 2): [3, 41, 28],
    ("dup8", 0): [0, 0, 0], ("dup8", 1): [0, 0, 0], ("dup8", 2): [0, 0, 0],
}


@pytest.mark.parametrize("kind, seed", sorted(SINGLE_TIER_DENSE_ROWS))
def test_two_tiers_send_no_more_rows_to_the_dense_search(kind, seed, dense_rows):
    rng = np.random.default_rng(200 + seed)  # the inputs of the tie-heavy test above
    src = tie_heavy_cloud(kind, rng, 480)
    qry = np.concatenate([src[rng.permutation(480)[:150]], tie_heavy_cloud(kind, rng, 48)])
    for k, bound in zip((1, 9, 16), SINGLE_TIER_DENSE_ROWS[kind, seed]):
        dense_rows.clear()
        geom.knn(src, qry, k)
        assert sum(dense_rows) <= bound


FAMILIES = ("grid", "rounded", "dup8", "collinear", "uniform")


def family_cloud(kind, rng, n):
    """Clouds with exact ties (grid, dup8), near-ties (rounded, collinear:
    integer steps along a direction with inexact components) or neither."""
    if kind == "grid":
        return rng.integers(0, 7, (n, 3)).astype(float)
    if kind == "rounded":
        return np.round(rng.uniform(-0.4, 0.4, (n, 3)), 1)
    if kind == "dup8":
        base = random_cloud(rng, max(1, n // 8))
        return np.repeat(base, 8, axis=0)[rng.permutation(8 * len(base))]
    if kind == "collinear":
        return np.outer(rng.integers(-40, 40, n), rng.normal(size=3))
    return random_cloud(rng, n)


def test_fps_matches_the_vectorised_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    for trial in range(400):
        kind = FAMILIES[trial % len(FAMILIES)]
        n = 20000 if trial % 100 == 99 else int(rng.integers(1, 400))
        pts = family_cloud(kind, rng, n)
        m = 200 if n == 20000 else int(rng.integers(1, len(pts) + 1))
        start = int(rng.integers(0, len(pts)))
        assert np.array_equal(geom.fps(pts, m, start), oracles.fps_loop(pts, m, start)), (trial, kind)


@pytest.mark.parametrize("kind", FAMILIES)
def test_knn_and_nearest_match_the_dense_search_on_every_family(kind):
    rng = np.random.default_rng(32)
    for _ in range(6):
        src = family_cloud(kind, rng, int(rng.integers(20, 700)))
        qry = np.concatenate([src[rng.permutation(len(src))[:60]], family_cloud(kind, rng, 40)])
        for k in (1, 2, 16):
            for a, b in ((src, qry), (src, src)):
                assert np.array_equal(geom.knn(a, b, k).indices, dense_knn(a, b, k))
        for exclude_self, a, b in ((False, src, qry), (False, qry, src), (True, src, src)):
            idx, d2 = geom.nearest(a, b, exclude_self=exclude_self)
            want_idx, want_d2 = dense_nearest(a, b, exclude_self)
            assert np.array_equal(idx, want_idx)
            assert np.array_equal(d2, want_d2)


@pytest.fixture
def tree_queries(monkeypatch):
    """Records (rows, k) of every KD-tree query the searches make."""
    calls = []
    tree_type = geom.cKDTree

    class Spy:
        def __init__(self, data):
            self.tree = tree_type(data)

        def query(self, x, k):
            calls.append((len(x), k))
            return self.tree.query(x, k=k)

    monkeypatch.setattr(geom, "cKDTree", Spy)
    return calls


def test_lattice_rows_go_on_to_the_wide_tier(tree_queries):
    grid = np.stack(np.meshgrid(*[np.arange(13.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    geom.knn(grid, grid, 16)
    assert [k for _, k in tree_queries] == [17, 24]
    assert tree_queries[0][0] == len(grid) and 0 < tree_queries[1][0] <= len(grid)
    tree_queries.clear()
    geom.nearest(grid, grid, exclude_self=True)
    assert [k for _, k in tree_queries] == [3, 10]
    assert tree_queries[0][0] == len(grid) and 0 < tree_queries[1][0] <= len(grid)


def test_uniform_cloud_stops_at_k_plus_one(tree_queries):
    pts = random_cloud(np.random.default_rng(33), 2048)
    geom.knn(pts, pts, 16)
    assert tree_queries == [(len(pts), 17)]


def test_knn_memory_stays_linear_at_scan_size():
    pts = random_cloud(np.random.default_rng(4), 16384)
    tracemalloc.start()
    try:
        m = geom.knn(pts, pts, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense 16384 x 16384 x 3 difference tensor alone would take 6.4 GB
    assert peak < 64 * 2**20
    assert np.array_equal(m.indices[::1024], oracles.knn_rows(pts, pts[::1024], 16))


def dense_nearest(src, qry, exclude_self=False):
    d2 = dense_d2(src, qry)
    if exclude_self:
        np.fill_diagonal(d2, np.inf)
    return np.argmin(d2, axis=1), d2.min(axis=1)


@pytest.mark.parametrize("kind", ["uniform", "grid", "dup8"])
def test_nearest_matches_dense_argmin(kind):
    rng = np.random.default_rng(9)
    src = random_cloud(rng, 400) if kind == "uniform" else tie_heavy_cloud(kind, rng, 400)
    qry = np.concatenate([random_cloud(rng, 50), src[:50]])
    for exclude_self, a, b in ((False, src, qry), (True, src, src)):
        idx, d2 = geom.nearest(a, b, exclude_self=exclude_self)
        want_idx, want_d2 = dense_nearest(a, b, exclude_self)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(d2, want_d2)


def test_nearest_excludes_self_by_index_not_position():
    pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
    idx, d2 = geom.nearest(pts, pts, exclude_self=True)
    assert idx.tolist() == [1, 0, 0]
    assert d2.tolist() == [0.0, 0.0, 1.0]
    idx, d2 = geom.nearest(pts[:1], pts[:1], exclude_self=True)
    assert d2.tolist() == [np.inf]


def test_nearest_non_finite_rows_follow_the_dense_min():
    rng = np.random.default_rng(10)
    src = random_cloud(rng, 60)
    qry = random_cloud(rng, 12)
    qry[3] = np.nan
    qry[5, 1] = np.inf
    idx, d2 = geom.nearest(src, qry)
    want_idx, want_d2 = dense_nearest(src, qry)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(d2, want_d2, equal_nan=True)
    assert np.isnan(d2[3]) and d2[5] == np.inf
    src[7] = np.nan  # one bad source poisons every row, as in the dense min
    assert np.all(np.isnan(geom.nearest(src, qry)[1]))


def test_huge_finite_coordinates_follow_the_dense_search():
    # a coordinate of 1e155 squares to inf, so the tree finds no candidates
    # for its row (and no row finds it) and pads with its sentinel index
    rng = np.random.default_rng(14)
    a, b = random_cloud(rng, 64), random_cloud(rng, 40)
    a[5] = 1e155
    with np.errstate(over="ignore"):
        assert np.array_equal(geom.knn(a, a, 4).indices, oracles.knn_rows(a, a, 4))
    for src, qry, exclude_self in ((b, a, False), (a, b, False), (a, a, True)):
        idx, d2 = geom.nearest(src, qry, exclude_self=exclude_self)
        want_idx, want_d2 = dense_nearest(src, qry, exclude_self)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(d2, want_d2)
    assert geom.nearest(b, a)[1][5] == np.inf
    assert geom.nearest(a, a, exclude_self=True)[1][5] == np.inf
    # half the sources far away: every tree row is padded, yet its k-th
    # candidate is finite
    a[::2] = rng.uniform(-1, 1, (32, 3)) * 1e155
    with np.errstate(over="ignore"):
        assert np.array_equal(geom.knn(a, a, 4).indices, oracles.knn_rows(a, a, 4))


@pytest.mark.parametrize("kind", ["uniform", "grid", "rounded"])
def test_searches_give_the_same_indices_on_every_power_of_two_multiple(kind):
    # squared distances of a cloud times 2^-1000 underflow to 0 unless the
    # search ranks in the cloud's own units
    rng = np.random.default_rng(33)
    pts = random_cloud(rng, 512) if kind == "uniform" else tie_heavy_cloud(kind, rng, 512)
    qry = random_cloud(rng, 64) if kind == "uniform" else tie_heavy_cloud(kind, rng, 64)
    want_knn, want_fps = geom.knn(pts, pts, 16).indices, geom.fps(pts, 64)
    want = [geom.nearest(pts, qry), geom.nearest(pts, pts, exclude_self=True)]
    for s in range(-1000, 401, 25):
        p, q = np.ldexp(pts, s), np.ldexp(qry, s)
        assert np.array_equal(geom.knn(p, p, 16).indices, want_knn), s
        assert np.array_equal(geom.fps(p, 64), want_fps), s
        for (idx, d2), (want_idx, want_d2) in zip([geom.nearest(p, q), geom.nearest(p, p, exclude_self=True)], want):
            assert np.array_equal(idx, want_idx), s
            assert np.array_equal(d2, np.ldexp(want_d2, 2 * s)), s  # scaled back, rounded once


def test_coordinates_at_the_limit_keep_squared_distances_finite():
    pts = np.array([[geom.COORD_LIMIT] * 3, [-geom.COORD_LIMIT] * 3, [0.0, 0, 0]])
    geom.PointCloud(pts, np.zeros((3, 0))).validate()
    assert np.all(np.isfinite(geom.nearest(pts, pts, exclude_self=True)[1]))
    with np.errstate(over="raise"):  # the limit itself overflows float32
        geom.check_coordinates(np.ones((2, 3), dtype=np.float32))
    for bad in (2 * geom.COORD_LIMIT, -1e155):
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="squared distances would overflow"):
            geom.PointCloud(pts, np.zeros((3, 0))).validate()


# -- invert_map ----------------------------------------------------------------


def test_invert_identity_map():
    m = geom.NeighborMap(np.array([[0], [1]]), source_count=2)
    inv = geom.invert_map(m)
    assert inv.row(0).tolist() == [0]
    assert inv.row(1).tolist() == [1]


def test_invert_full_overlap():
    m = geom.NeighborMap(np.array([[0, 1], [0, 1]]), source_count=2)
    inv = geom.invert_map(m)
    assert inv.row(0).tolist() == [0, 1]
    assert inv.row(1).tolist() == [0, 1]


def test_invert_with_empty_row():
    m = geom.NeighborMap(np.array([[1], [1]]), source_count=2)
    inv = geom.invert_map(m)
    assert inv.row(0).tolist() == []
    assert inv.row(1).tolist() == [0, 1]


@pytest.mark.parametrize("seed", range(5))
def test_invert_matches_membership_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 128))
    k = int(rng.integers(1, n + 1))
    m = geom.knn(random_cloud(rng, n), random_cloud(rng, n), k)
    inv = geom.invert_map(m)
    expected = oracles.invert_rows(m.indices, n)
    for i in range(n):
        assert inv.row(i).tolist() == expected[i]
    assert inv.offsets[-1] == n * k  # total entries = N x k


def test_invert_roundtrip_reproduces_membership():
    rng = np.random.default_rng(11)
    pts = random_cloud(rng, 60)
    m = geom.knn(pts, pts, 5)
    inv = geom.invert_map(m)
    for i in range(60):
        for j in inv.row(i):
            assert i in m.indices[j]
    for j in range(60):
        for i in m.indices[j]:
            assert j in inv.row(i)


def test_same_level_inverse_rows_nonempty():
    rng = np.random.default_rng(13)
    pts = random_cloud(rng, 80)
    inv = geom.invert_map(geom.knn(pts, pts, 6))
    assert np.all(inv.row_lengths() >= 1)


# -- edges ---------------------------------------------------------------------


def test_map_edges_list_rows_in_csr_order_and_are_built_once():
    rng = np.random.default_rng(14)
    pts = np.concatenate([np.full((8, 3), 0.5), random_cloud(rng, 20)])
    m = geom.knn(pts, pts, 4)
    inv = geom.invert_map(m)
    assert np.any(inv.row_lengths() == 0)
    for index_map, rows in ((m, m.indices.tolist()), (inv, [inv.row(i).tolist() for i in range(len(pts))])):
        e = index_map
        for q, row in enumerate(rows):
            seg = slice(e.offsets[q], e.offsets[q + 1])
            assert e.src[seg].tolist() == row
            assert np.all(e.dst[seg] == q)


def test_index_maps_are_their_own_read_only_edges():
    pts = random_cloud(np.random.default_rng(16), 12)
    m = geom.knn(pts, pts, 4)
    inv = geom.invert_map(m)
    for index_map in (m, inv):
        assert isinstance(index_map, autodiff.Edges)
        assert not hasattr(index_map, "edges")
        with pytest.raises(ValueError):
            index_map.indices[0] = 0
    assert np.shares_memory(m.indices, m.src) and m.indices.shape == (12, 4)
    assert inv.indices is inv.src


def test_up_edges_splice_singleton_fallback_rows():
    rng = np.random.default_rng(15)
    pts = np.concatenate([np.full((8, 3), 0.5), random_cloud(rng, 20)])
    lv = geom.build_hierarchy(pts, [0.25], k=2).levels[1]
    inv = lv.down_inverse
    empty = inv.row_lengths() == 0
    assert empty.sum() > 1
    assert np.array_equal(lv.up_fallback, geom.nearest_samples(inv, lv.positions, pts))
    assert np.all((lv.up_fallback >= 0) == empty)
    expected = geom.knn(lv.positions, pts, 1).indices[:, 0]
    assert np.array_equal(lv.up_fallback[empty], expected[empty])
    e = geom.up_edges(inv, lv.up_fallback)
    for i in range(len(pts)):
        row = [lv.up_fallback[i]] if empty[i] else inv.row(i).tolist()
        assert e.src[e.offsets[i] : e.offsets[i + 1]].tolist() == row
        assert np.all(e.dst[e.offsets[i] : e.offsets[i + 1]] == i)
    covered = geom.build_hierarchy(pts[8:], [0.5], k=6).levels[1]
    assert np.all(covered.up_fallback == -1)
    assert geom.up_edges(covered.down_inverse, covered.up_fallback) is covered.down_inverse


# -- fps -----------------------------------------------------------------------


def test_fps_singleton():
    pts = np.random.default_rng(0).uniform(-1, 1, (5, 3))
    assert geom.fps(pts, 1, start=2).tolist() == [2]


def test_fps_line_extremes():
    pts = np.array([[float(i), 0, 0] for i in range(10)])
    assert geom.fps(pts, 2, start=0).tolist() == [0, 9]
    # points 4 and 5 tie at min-distance; the smaller index wins
    assert geom.fps(pts, 3, start=0).tolist() == [0, 9, 4]


def test_fps_range_checks():
    pts = np.zeros((4, 3))
    with pytest.raises(ValueError):
        geom.fps(pts, 0)
    with pytest.raises(ValueError):
        geom.fps(pts, 5)
    with pytest.raises(ValueError):
        geom.fps(pts, 2, start=4)


def test_fps_full_selection_is_permutation():
    rng = np.random.default_rng(21)
    pts = random_cloud(rng, 40)
    sel = geom.fps(pts, 40, start=3)
    assert sorted(sel.tolist()) == list(range(40))


@pytest.mark.parametrize("seed", range(5))
def test_fps_matches_greedy_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 100))
    m = int(rng.integers(1, n + 1))
    start = int(rng.integers(0, n))
    pts = random_cloud(rng, n)
    assert np.array_equal(geom.fps(pts, m, start), oracles.fps_indices(pts, m, start))


# -- hierarchy -------------------------------------------------------------------


def test_hierarchy_degenerate_identity():
    rng = np.random.default_rng(2)
    pts = random_cloud(rng, 12)
    h = geom.build_hierarchy(pts, [1.0], k=3)
    assert len(h.levels) == 1
    lv = h.levels[0]
    assert np.array_equal(lv.subset, np.arange(12))
    assert all(i in lv.down_map.indices[i] for i in range(12))


def test_hierarchy_quarter_sampling():
    rng = np.random.default_rng(4)
    pts = random_cloud(rng, 16)
    h = geom.build_hierarchy(pts, [0.25], k=4)
    assert [lv.n for lv in h.levels] == [16, 4]
    lv = h.levels[1]
    assert lv.down_map.indices.shape == (4, 4)
    assert lv.down_inverse.offsets[-1] == 16
    sampled = geom.fps(pts, 4, start=0)
    assert np.array_equal(lv.subset, sampled)
    assert np.array_equal(lv.down_map.indices, oracles.knn_rows(pts, pts[sampled], 4))


def test_level_sizes_round_half_up_and_keep_one_point():
    assert geom.level_sizes(10, [1.0, 0.25, 0.5]) == [10, 3, 2]  # 2.5 rounds up to 3, 1.5 to 2
    assert geom.level_sizes(3, [1.0, 0.1]) == [3, 1]  # 0.3 rounds to 0, and a level keeps one point
    pts = random_cloud(np.random.default_rng(5), 37)
    h = geom.build_hierarchy(pts, [0.3, 0.45], k=2)
    assert [lv.n for lv in h.levels] == geom.level_sizes(37, [1.0, 0.3, 0.45])


def test_hierarchy_collinear_example():
    pts = np.array([[float(i), 0, 0] for i in range(10)])
    h = geom.build_hierarchy(pts, [0.2], k=2, start=0)
    lv = h.levels[1]
    assert sorted(lv.subset.tolist()) == [0, 9]
    assert np.array_equal(lv.down_map.indices, oracles.knn_rows(pts, pts[lv.subset], 2))
    expected_inv = oracles.invert_rows(lv.down_map.indices, 10)
    for i in range(10):
        assert lv.down_inverse.row(i).tolist() == expected_inv[i]


def test_hierarchy_fallback_marks_uncovered_points():
    pts = np.array([[float(i), 0, 0] for i in range(6)])
    h = geom.build_hierarchy(pts, [1.0 / 6.0], k=1, start=0)
    lv = h.levels[1]
    assert lv.subset.tolist() == [0]
    # only point 0 is covered; the rest fall back to the single sample
    assert lv.up_fallback[0] == -1
    assert np.all(lv.up_fallback[1:] == 0)


def test_hierarchy_rejects_bad_ratios_and_k():
    pts = np.random.default_rng(0).uniform(-1, 1, (10, 3))
    with pytest.raises(ValueError):
        geom.build_hierarchy(pts, [0.0], k=2)
    with pytest.raises(ValueError):
        geom.build_hierarchy(pts, [0.5, 1.0], k=2)
    with pytest.raises(ValueError):
        geom.build_hierarchy(pts, [0.2], k=11)


def test_hierarchy_deterministic():
    rng = np.random.default_rng(8)
    pts = random_cloud(rng, 32)
    h1 = geom.build_hierarchy(pts, [1.0, 0.5, 0.5], k=4)
    h2 = geom.build_hierarchy(pts, [1.0, 0.5, 0.5], k=4)
    for a, b in zip(h1.levels, h2.levels):
        assert np.array_equal(a.subset, b.subset)
        assert np.array_equal(a.down_map.indices, b.down_map.indices)
        assert np.array_equal(a.down_inverse.indices, b.down_inverse.indices)


def test_lexmin_index_is_permutation_invariant():
    rng = np.random.default_rng(9)
    pts = random_cloud(rng, 30)
    i = geom.lexmin_index(pts)
    perm = rng.permutation(30)
    j = geom.lexmin_index(pts[perm])
    assert np.array_equal(pts[perm][j], pts[i])


def test_point_cloud_validation():
    good = geom.PointCloud(np.zeros((3, 3)), np.zeros((3, 2)), labels=np.array([0, 1, 1]))
    good.validate(num_classes=2)
    with pytest.raises(ValueError):
        geom.PointCloud(np.zeros((0, 3)), np.zeros((0, 0))).validate()
    with pytest.raises(ValueError):
        geom.PointCloud(np.array([[np.inf, 0, 0]]), np.zeros((1, 0))).validate()
    with pytest.raises(ValueError):
        geom.PointCloud(np.zeros((2, 3)), np.zeros((3, 1))).validate()
    with pytest.raises(ValueError, match="non-finite features"):
        geom.PointCloud(np.zeros((2, 3)), np.array([[0.0], [np.nan]])).validate()
    with pytest.raises(ValueError):
        good.validate(num_classes=1)


def test_validate_rejects_a_flat_feature_array():
    pts = np.random.default_rng(16).uniform(-1, 1, (6, 3))
    cloud = geom.PointCloud(pts, np.zeros(6))
    with pytest.raises(ValueError, match=r"features must be an \(N, C\) array"):
        cloud.validate()
