"""Quadtree structure and moment correctness (repro.spatial.tree)."""

import numpy as np
import pytest

from repro.backend import available_backends, get_backend
from repro.spatial.tree import build_quadtree
from repro.util.errors import ConfigurationError


def _level(tree, level):
    """Flat node-table slice of one tree level."""
    return slice(int(tree.level_offsets[level]),
                 int(tree.level_offsets[level + 1]))


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
        assert tree.num_points == pos.shape[0]
        assert tree.cell_start[0] == 0
        assert tree.cell_start[-1] == pos.shape[0]
        # `order` is a permutation and `points` is the sorted view.
        assert np.array_equal(np.sort(tree.order), np.arange(pos.shape[0]))
        np.testing.assert_array_equal(tree.points, pos[tree.order])
        np.testing.assert_array_equal(tree.omega, omega[tree.order])

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
        """S and Q at every node equal brute-force sums about its centroid."""
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=32)
        # Recover each point's node at each level from its leaf cell.
        leaf_ids = np.empty(pos.shape[0], dtype=np.int64)
        for cell in range(tree.cell_start.shape[0] - 1):
            leaf_ids[tree.cell_start[cell]: tree.cell_start[cell + 1]] = cell
        nx_leaf = 1 << tree.depth
        cx, cy = leaf_ids // nx_leaf, leaf_ids % nx_leaf
        for level in range(tree.nlevels):
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
        """moment_accumulate agrees across every registered backend."""
        pos, omega = cloud
        reference = None
        for name in available_backends():
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


class TestWalk:
    def test_theta_zero_partitions_all_pairs_exactly(self, cloud):
        """theta=0: every (target, source) pair is evaluated, each once.

        Far pairs may only be single-point (or coincident) nodes —
        whose moment expansion is exact — and near CSR covers the rest.
        """
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        targets = pos[:50]
        pairs = tree.mac_pairs(targets, theta=0.0)
        far_points = 0
        if pairs.far_count:
            counts = tree.node_count[pairs.far_nodes]
            sizes = tree.node_size[pairs.far_nodes]
            assert np.all(sizes == 0.0)
            targets_per_pair = pairs.far_mask.sum(axis=1)
            far_points = int((counts * targets_per_pair).sum())
        assert far_points + pairs.near_count == targets.shape[0] * pos.shape[0]

    def test_larger_theta_fewer_interactions(self, cloud):
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        targets = pos[:50]
        loose = tree.mac_pairs(targets, theta=0.7)
        tight = tree.mac_pairs(targets, theta=0.2)
        assert loose.near_count < tight.near_count
        assert (loose.near_count + loose.far_count
                < tight.near_count + tight.far_count)

    def test_accepted_nodes_respect_mac(self, cloud):
        """Every accepted (target, node) pair satisfies size <= theta*dist."""
        pos, omega = cloud
        theta = 0.5
        tree = build_quadtree(pos, omega, leaf_size=16)
        targets = pos[:50]
        pairs = tree.mac_pairs(targets, theta=theta)
        # Each accepted (target, node) pair of a (group, node) entry.
        members = pairs.groups[pairs.far_groups][pairs.far_mask]
        nodes = np.broadcast_to(
            pairs.far_nodes[:, None], pairs.far_mask.shape
        )[pairs.far_mask]
        assert np.all(members >= 0) and pairs.far_count == members.size > 0
        r = targets[members] - tree.node_center[nodes]
        dist = np.linalg.norm(r, axis=1)
        assert np.all(tree.node_size[nodes] <= theta * dist + 1e-12)

    def test_empty_targets(self, cloud):
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        pairs = tree.mac_pairs(np.empty((0, 3)), theta=0.5)
        assert pairs.far_count == 0 and pairs.near_count == 0
        assert pairs.near_offsets.shape == (1,)

    def test_theta_out_of_range_rejected(self, cloud):
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        for theta in (1.0, -0.1, 2.0):
            with pytest.raises(ConfigurationError):
                tree.mac_pairs(pos[:4], theta=theta)

    def test_near_lists_index_sorted_points(self, cloud):
        """CSR indices are valid positions into the sorted source array."""
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        targets = pos[:20]
        pairs = tree.mac_pairs(targets, theta=0.4)
        assert pairs.near_offsets.shape == (targets.shape[0] + 1,)
        if pairs.near_count:
            assert pairs.near_indices.min() >= 0
            assert pairs.near_indices.max() < tree.num_points


def _per_target_walk(tree, targets, theta):
    """The multipole-acceptance walk one target at a time: its accepted
    (target, node) pairs and its near (target, leaf) pairs."""
    far, near = set(), set()
    for t, point in enumerate(targets):
        stack = [(0, 0)]
        while stack:
            level, local = stack.pop()
            flat = int(tree.level_offsets[level]) + local
            if tree.node_count[flat] == 0:
                continue
            dist2 = float(np.sum((point - tree.node_center[flat]) ** 2))
            if tree.node_size[flat] ** 2 <= theta * theta * dist2:
                far.add((t, flat))
            elif level == tree.depth:
                near.add((t, local))
            else:
                ny = 1 << level
                cx, cy = divmod(local, ny)
                base = (cx * 2) * (ny * 2) + cy * 2
                stack += [(level + 1, base + k)
                          for k in (0, 1, ny * 2, ny * 2 + 1)]
    return far, near


class TestGroupedWalk:
    @pytest.mark.parametrize("theta", (0.0, 0.3, 0.7))
    def test_decisions_are_the_per_target_walk(self, cloud, theta):
        """Stepping per group changes no (target, node) decision."""
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        targets = pos[::2]
        pairs = tree.mac_pairs(targets, theta=theta)
        members = pairs.groups[pairs.far_groups]
        nodes = np.broadcast_to(pairs.far_nodes[:, None], members.shape)
        far = set(zip(members[pairs.far_mask].tolist(),
                      nodes[pairs.far_mask].tolist()))
        rows = np.repeat(np.arange(targets.shape[0]),
                         np.diff(pairs.near_offsets))
        leaves = np.searchsorted(tree.cell_start, pairs.near_indices,
                                 side="right") - 1
        near = set(zip(rows.tolist(), leaves.tolist()))
        want_far, want_near = _per_target_walk(tree, targets, theta)
        assert far == want_far and pairs.far_count == len(want_far)
        assert near == want_near

    @pytest.mark.parametrize("backend", available_backends())
    def test_farfield_is_the_pairwise_expansion(self, cloud, backend):
        """farfield_eval's per-group products equal the expansion summed
        pair by pair, dipole terms included."""
        pos, omega = cloud
        tree = build_quadtree(pos, omega, leaf_size=16)
        targets = pos[::3]
        pairs = tree.mac_pairs(targets, theta=0.6)
        eps2, prefactor = 0.01, 0.3
        got = np.zeros(targets.shape)
        get_backend(backend).farfield_eval(
            targets, tree.node_center, tree.node_m, tree.node_s,
            tree.node_q, pairs.groups, pairs.far_groups, pairs.far_nodes,
            pairs.far_mask, eps2, prefactor, got,
        )
        want = np.zeros(targets.shape)
        members = pairs.groups[pairs.far_groups]
        nodes = np.broadcast_to(pairs.far_nodes[:, None], members.shape)
        for t, n in zip(members[pairs.far_mask], nodes[pairs.far_mask]):
            r = targets[t] - tree.node_center[n]
            u = r @ r + eps2
            want[t] += prefactor * (
                u ** -1.5 * (np.cross(tree.node_m[n], r) - tree.node_s[n])
                + 3.0 * u ** -2.5 * np.cross(tree.node_q[n] @ r, r)
            )
        assert np.abs(tree.node_q[pairs.far_nodes]).max() > 0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
