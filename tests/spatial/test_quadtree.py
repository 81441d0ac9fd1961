"""Quadtree structure and moment correctness (repro.spatial.tree)."""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.spatial.tree import _GROUP, build_quadtree
from repro.util.errors import ConfigurationError
from tests.conftest import ENGINES


def every(tree):
    """The ids of all of the tree's pieces."""
    return np.arange(len(tree.pieces))


def _level(tree, level):
    """Flat node-table slice of one tree level."""
    return slice(int(tree.level_offsets[level]),
                 int(tree.level_offsets[level + 1]))


def _quarters(tree):
    """Flat node-table slice of the leaves' quarters."""
    return slice(int(tree.level_offsets[-1]), tree.num_nodes)


@pytest.fixture
def cloud(rng):
    n = 500
    pos = rng.uniform(-1.0, 1.0, size=(n, 3))
    pos[:, 2] *= 0.2                      # sheet-like: thin in z
    omega = rng.normal(size=(n, 3))
    return pos, omega


class TestBuild:
    def test_leaf_partition_is_exact(self, cloud):
        """Every point lands in exactly one leaf; CSR covers the array."""
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        assert len(tree.points) == pos.shape[0]
        assert tree.cell_start[0] == 0
        assert tree.cell_start[-1] == pos.shape[0]
        # `order` is a permutation and `points` is the sorted view.
        assert np.array_equal(np.sort(tree.order), np.arange(pos.shape[0]))
        np.testing.assert_array_equal(tree.points, pos[tree.order])
        np.testing.assert_array_equal(tree.omega, omega[tree.order])

    def test_leaves_hold_their_quarters_in_order(self, cloud):
        """Each leaf's run is its four quarters' runs in order (x half,
        then y half), and the quarters split the leaf at its middle."""
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        nleaves = len(tree.cell_start) - 1
        counts = tree.node_count[_quarters(tree)].reshape(nleaves, 4)
        leaf = tree.node_count[_level(tree, tree.depth)]
        assert np.array_equal(counts.sum(axis=1), leaf)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        assert np.array_equal(bounds[::4], tree.cell_start)
        runs = [tree.points[a:b, :2] for a, b in zip(bounds[:-1], bounds[1:])]
        for k in np.flatnonzero(leaf > 0):
            q = runs[4 * k: 4 * k + 4]
            for low, high, axis in ((0, 2, 0), (1, 3, 0), (0, 1, 1), (2, 3, 1)):
                if len(q[low]) and len(q[high]):
                    assert q[low][:, axis].max() < q[high][:, axis].min()

    def test_level_counts_telescope(self, cloud):
        """Each level's node counts sum to the total point count."""
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        for level in range(tree.nlevels):
            counts = tree.node_count[_level(tree, level)]
            assert counts.sum() == pos.shape[0]

    def test_depth_tracks_leaf_size(self, cloud):
        pos, omega = cloud
        shallow = build_quadtree(pos, omega, leaf_size=256)
        deep = build_quadtree(pos, omega, leaf_size=4)
        assert deep.depth > shallow.depth

    def test_root_monopole_is_total_vorticity(self, cloud):
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        np.testing.assert_allclose(
            tree.node_m[0], omega.sum(axis=0), rtol=1e-12, atol=1e-12
        )

    def test_moments_match_direct_sums_every_level(self, cloud):
        """S and Q at every node, quarters included, equal brute-force
        sums about its centroid."""
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=32)
        # Recover each point's node at each level from its leaf cell.
        leaf_ids = np.empty(pos.shape[0], dtype=np.int64)
        for cell in range(tree.cell_start.shape[0] - 1):
            leaf_ids[tree.cell_start[cell]: tree.cell_start[cell + 1]] = cell
        nx_leaf = 1 << tree.depth
        cx, cy = leaf_ids // nx_leaf, leaf_ids % nx_leaf
        quarter_of = np.repeat(np.arange(4 * (len(tree.cell_start) - 1)),
                               tree.node_count[_quarters(tree)])
        for level in range(tree.nlevels + 1):
            if level == tree.nlevels:
                node_of_point, sl = quarter_of, _quarters(tree)
            else:
                shift = tree.depth - level
                node_of_point = (cx >> shift) * (1 << level) + (cy >> shift)
                sl = _level(tree, level)
            counts = tree.node_count[sl]
            for node in np.nonzero(counts > 0)[0]:
                mask = node_of_point == node
                c = tree.node_center[sl][node]
                np.testing.assert_allclose(
                    tree.points[mask].mean(axis=0), c, atol=1e-12
                )
                d = tree.points[mask] - c
                om = tree.omega[mask]
                np.testing.assert_allclose(
                    tree.node_m[sl][node], om.sum(axis=0), atol=1e-10
                )
                np.testing.assert_allclose(
                    tree.node_s[sl][node],
                    np.cross(om, d).sum(axis=0), atol=1e-10,
                )
                np.testing.assert_allclose(
                    tree.node_q[sl][node],
                    np.einsum("ja,jb->ab", om, d), atol=1e-10,
                )

    def test_node_size_bounds_contents(self, cloud):
        """A node's diagonal is >= the spread of the points inside it."""
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        root_size = tree.node_size[0]
        spread = np.linalg.norm(pos.max(axis=0) - pos.min(axis=0))
        np.testing.assert_allclose(root_size, spread, rtol=1e-12)

    def test_single_point_nodes_have_zero_size(self):
        pos = np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 0.0]])
        omega = np.ones((2, 3))
        tree = build_quadtree(pos, omega, leaf_size=1)
        leaf = tree.node_count[_level(tree, tree.depth)]
        sizes = tree.node_size[_level(tree, tree.depth)]
        assert np.all(sizes[leaf == 1] == 0.0)

    def test_validation(self, cloud):
        pos, omega = cloud
        with pytest.raises(ConfigurationError):
            build_quadtree(pos, omega, leaf_size=0)
        with pytest.raises(ConfigurationError):
            build_quadtree(pos[:0], omega[:0])
        with pytest.raises(ConfigurationError):
            build_quadtree(pos, omega[:-1])

    def test_moment_backend_parity(self, cloud):
        """moment_accumulate agrees across both engines."""
        pos, omega = cloud
        reference = None
        for name in ENGINES:
            tree = build_quadtree(pos, omega, leaf_size=16,
                                  backend=get_backend(name))
            if reference is None:
                reference = tree
                continue
            np.testing.assert_allclose(
                tree.node_m, reference.node_m, atol=1e-12
            )
            np.testing.assert_allclose(
                tree.node_s, reference.node_s, atol=1e-12
            )
            np.testing.assert_allclose(
                tree.node_q, reference.node_q, atol=1e-12
            )


class TestPieces:
    def test_pieces_cut_each_leaf_in_order(self, cloud):
        """Every sorted point sits in exactly one piece of at most
        ``_GROUP`` points, and a piece is a run of one leaf."""
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=40)
        filled = tree.pieces >= 0
        assert np.all(filled[:, 0]) and tree.pieces.shape[1] == _GROUP
        assert np.array_equal(np.sort(tree.pieces[filled]),
                              np.arange(len(tree.points)))
        assert np.array_equal(tree.piece_size, filled.sum(axis=1))
        assert tree.piece_size.max() == _GROUP
        for leaf in range(len(tree.leaf_pieces) - 1):
            pieces = tree.pieces[tree.leaf_pieces[leaf]:tree.leaf_pieces[leaf + 1]]
            assert np.array_equal(
                pieces[pieces >= 0],
                np.arange(tree.cell_start[leaf], tree.cell_start[leaf + 1]))

    def test_piece_layout(self, cloud):
        """One padded chunk per piece: its members in order, and padding
        repeating the first member with zero vorticity."""
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=40)
        filled = (tree.pieces >= 0).ravel()
        rows = tree.pieces.ravel()[filled]
        np.testing.assert_array_equal(tree.piece_points[filled], tree.points[rows])
        np.testing.assert_array_equal(tree.piece_omega[filled], tree.omega[rows])
        assert np.all(tree.piece_omega[~filled] == 0.0)
        points = tree.piece_points.reshape(-1, _GROUP, 3)
        pad = ~filled.reshape(-1, _GROUP)
        np.testing.assert_array_equal(
            points[pad], np.broadcast_to(points[:, :1], points.shape)[pad])
        np.testing.assert_array_equal(tree.piece_lo, points.min(axis=1))
        np.testing.assert_array_equal(tree.piece_hi, points.max(axis=1))


class TestWalk:
    def test_theta_zero_partitions_all_pairs_exactly(self, cloud):
        """theta=0: every (target, source) pair is evaluated, each once.

        Far pairs may only be single-point (or coincident) nodes —
        whose moment expansion is exact — and near sub-panels cover the
        rest.
        """
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        pieces = np.arange(0, len(tree.pieces), 3)
        pairs = tree.mac_pairs(0.0, pieces)
        far_points = 0
        if pairs.far_count:
            assert np.all(tree.node_size[pairs.far_nodes] == 0.0)
            far_points = int((
                tree.node_count[pairs.far_nodes]
                * tree.piece_size[pieces[pairs.far_pieces]]
            ).sum())
        targets = int(tree.piece_size[pieces].sum())
        assert far_points + pairs.near_count == targets * pos.shape[0]

    def test_larger_theta_fewer_interactions(self, cloud):
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        loose = tree.mac_pairs(0.7, every(tree))
        tight = tree.mac_pairs(0.2, every(tree))
        assert loose.near_count < tight.near_count
        assert (loose.near_count + loose.far_count
                < tight.near_count + tight.far_count)

    def test_no_pieces(self, cloud):
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        pairs = tree.mac_pairs(0.5, np.empty(0, dtype=np.int64))
        assert pairs.far_count == 0 and pairs.near_count == 0
        assert pairs.examined == 0 and pairs.near.pairs.shape == (0, 2)

    def test_theta_out_of_range_rejected(self, cloud):
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        for theta in (1.0, -0.1, 2.0):
            with pytest.raises(ConfigurationError):
                tree.mac_pairs(theta, every(tree))


def _node_points(tree):
    """``(nodes, points)`` bool table: which sorted points each node holds."""
    leaf_of = np.repeat(np.arange(len(tree.cell_start) - 1),
                        np.diff(tree.cell_start))
    cx, cy = divmod(leaf_of, 1 << tree.depth)
    rows = np.arange(len(tree.points))
    holds = np.zeros((tree.num_nodes, len(tree.points)), dtype=bool)
    for level in range(tree.nlevels):
        shift = tree.depth - level
        node = (cx >> shift) * (1 << level) + (cy >> shift)
        holds[int(tree.level_offsets[level]) + node, rows] = True
    quarters = _quarters(tree)
    holds[quarters.start + np.repeat(
        np.arange(quarters.stop - quarters.start),
        tree.node_count[quarters]), rows] = True
    return holds


class TestPieceWalk:
    THETA = 0.5

    def test_accepted_nodes_meet_the_mac_for_every_member(self, cloud):
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        pairs = tree.mac_pairs(self.THETA, every(tree))
        assert len(pairs.far_nodes) > 0
        members = tree.pieces[pairs.pieces[pairs.far_pieces]]
        nodes = np.broadcast_to(pairs.far_nodes[:, None], members.shape)
        filled = members >= 0
        assert pairs.far_count == int(filled.sum())
        r = tree.points[members[filled]] - tree.node_center[nodes[filled]]
        dist = np.linalg.norm(r, axis=1)
        assert np.all(tree.node_size[nodes[filled]] <= self.THETA * dist + 1e-12)

    @pytest.mark.parametrize("every", (1, 4))
    def test_far_and_near_cover_every_pair_once(self, cloud, every):
        """Each (member of a walked piece, source) pair is summed exactly
        once: through one accepted node or in one near sub-panel."""
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        pieces = np.arange(0, len(tree.pieces), every)
        pairs = tree.mac_pairs(self.THETA, pieces)
        holds = _node_points(tree)
        covered = np.zeros((len(tree.points), len(tree.points)), dtype=np.int64)
        for piece, node in zip(pieces[pairs.far_pieces], pairs.far_nodes):
            members = tree.pieces[piece][tree.pieces[piece] >= 0]
            covered[members[:, None], np.flatnonzero(holds[node])] += 1
        near = 0
        for a, b in pairs.near.pairs:
            ta, tb = tree.pieces[a], tree.pieces[b]
            covered[ta[ta >= 0][:, None], tb[tb >= 0]] += 1
            near += int((ta >= 0).sum() * (tb >= 0).sum())
        assert near == pairs.near_count > 0
        # Some leaves went far through their quarters.
        assert np.any(pairs.far_nodes >= tree.level_offsets[-1])
        walked = tree.pieces[pieces]
        walked = walked[walked >= 0]
        assert np.all(covered[walked] == 1)
        rest = np.setdiff1d(np.arange(len(tree.points)), walked)
        assert np.all(covered[rest] == 0)

    def test_decisions_do_not_depend_on_the_other_pieces(self, cloud):
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        whole = tree.mac_pairs(self.THETA, every(tree))
        some = np.arange(1, len(tree.pieces), 5)
        part = tree.mac_pairs(self.THETA, some)
        far = set(zip(whole.far_pieces.tolist(), whole.far_nodes.tolist()))
        assert set(zip(some[part.far_pieces].tolist(),
                       part.far_nodes.tolist())) == {
            (p, n) for p, n in far if p in set(some.tolist())}
        chosen = np.isin(whole.near.pairs[:, 0], some)
        assert np.array_equal(part.near.pairs, whole.near.pairs[chosen])

    @pytest.mark.parametrize("backend", ENGINES)
    def test_farfield_is_the_pairwise_expansion(self, cloud, backend):
        """farfield_eval's per-piece products equal the expansion summed
        pair by pair, dipole terms included."""
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        pairs = tree.mac_pairs(0.6, np.arange(0, len(tree.pieces), 3))
        groups = tree.pieces[pairs.pieces]
        eps2, prefactor = 0.01, 0.3
        got = np.zeros(tree.points.shape)
        get_backend(backend).farfield_eval(
            tree.points, tree.node_center, tree.node_m, tree.node_s,
            tree.node_q, groups, pairs.far_pieces, pairs.far_nodes,
            eps2, prefactor, got,
        )
        want = np.zeros(tree.points.shape)
        for g, n in zip(pairs.far_pieces, pairs.far_nodes):
            for t in groups[g][groups[g] >= 0]:
                r = tree.points[t] - tree.node_center[n]
                u = r @ r + eps2
                want[t] += prefactor * (
                    u ** -1.5 * (np.cross(tree.node_m[n], r) - tree.node_s[n])
                    + 3.0 * u ** -2.5 * np.cross(tree.node_q[n] @ r, r)
                )
        assert np.abs(tree.node_q[pairs.far_nodes]).max() > 0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
