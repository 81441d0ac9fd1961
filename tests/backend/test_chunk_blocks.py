"""``br_allpairs(blocks=...)``: the sum over listed chunk pairs.

The cutoff solver hands the all-pairs kernel the chunk pairs its
bounding-box search listed, under its cutoff; the tree solver its near
sub-panels, with no cutoff.  The blocked engine forms one sub-panel per
listed pair (the mirrored ones also applied transposed), the numpy
engine evaluates them vectorised.  Under a cutoff both must be the
unlisted masked sum and count the same pairs as brute force; without
one, the sum of every pair of the listed sub-panels; and the blocked
one must give the same bits for any thread count.
"""

import numpy as np
import pytest

from repro.backend import blocked, get_backend
from repro.spatial.neighbors import _CHUNK, chunk_pairs
from tests.conftest import ENGINES

RTOL = 1e-12
EPS2, PREF = 0.05 ** 2, 0.2


def sheet(n, rng, noise=0.05):
    """``n`` points of a mesh-ordered wavy sheet (chunks are strips)."""
    side = int(np.ceil(np.sqrt(n)))
    i, j = np.divmod(np.arange(n), side)
    x, y = 2 * np.pi * i / side - np.pi, 2 * np.pi * j / side - np.pi
    z = 0.3 * np.sin(x) * np.cos(y) + noise * rng.normal(size=n)
    return np.stack([x, y, z], axis=1), rng.normal(size=(n, 3))


def masked(backend, t, s, om, cutoff, *, symmetric=False, blocks=None):
    """The sum under ``cutoff`` (every pair of the listed sub-panels when
    it is ``None``) and the pairs it kept (``None`` without a cutoff)."""
    out = np.zeros((1,) + t.shape)
    kept = get_backend(backend).br_allpairs(
        t[None], s[None], om[None], np.array([EPS2]), np.array([PREF]), out,
        symmetric=symmetric, blocks=blocks,
        cutoff2=None if cutoff is None else np.array([cutoff ** 2]),
    )
    return out[0], None if kept is None else int(kept[0])


def listed_sum(t, s, om, blocks):
    """Every pair of the listed sub-panels (both ways for a symmetric
    list), one dense unlisted numpy call per sub-panel."""
    out = np.zeros(t.shape)
    c = blocks.chunk
    pairs = blocks.pairs
    if blocks.symmetric:
        pairs = np.concatenate([pairs, pairs[pairs[:, 0] < pairs[:, 1], ::-1]])
    for i, j in pairs:
        rows, cols = slice(i * c, (i + 1) * c), slice(j * c, (j + 1) * c)
        part = np.zeros((1,) + t[rows].shape)
        get_backend("numpy").br_allpairs(
            t[None, rows], s[None, cols], om[None, cols], np.array([EPS2]),
            np.array([PREF]), part,
        )
        out[rows] += part[0]
    return out


def brute_count(t, s, cutoff):
    diff = t[:, None] - s[None]
    return int(np.count_nonzero(np.einsum("ijk,ijk->ij", diff, diff)
                                <= cutoff ** 2))


def assert_matches(got, want):
    scale = max(float(np.abs(want).max()), 1e-30)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale)


@pytest.mark.parametrize("backend", ENGINES)
@pytest.mark.parametrize("n", [1024, 1000, 37])      # n % _CHUNK != 0 too
@pytest.mark.parametrize("mask", [True, False])
def test_sheet_matches_the_unlisted_sum(backend, n, mask, rng):
    """Under the cutoff, the listed sum is the unlisted masked one; with
    no cutoff, it is every pair of the listed sub-panels."""
    pts, om = sheet(n, rng)
    ghosts, gom = sheet(n // 3 + 1, rng)
    ghosts[:, 0] += 1.0
    cutoff = 0.9
    own = chunk_pairs(pts, pts, cutoff, symmetric=True)
    far = chunk_pairs(pts, ghosts, cutoff)
    if n > 100:
        assert 0 < len(own.pairs) < (n // _CHUNK) ** 2 / 2
    if not mask:
        got, kept = masked(backend, pts, pts, om, None, symmetric=True,
                           blocks=own)
        assert kept is None
        assert_matches(got, listed_sum(pts, pts, om, own))
        got, kept = masked(backend, pts, ghosts, gom, None, blocks=far)
        assert kept is None
        assert_matches(got, listed_sum(pts, ghosts, gom, far))
        return
    want, want_kept = masked("numpy", pts, pts, om, cutoff)
    got, kept = masked(backend, pts, pts, om, cutoff, symmetric=True,
                       blocks=own)
    assert kept == want_kept == brute_count(pts, pts, cutoff)
    assert_matches(got, want)
    want, want_kept = masked("numpy", pts, ghosts, gom, cutoff)
    got, kept = masked(backend, pts, ghosts, gom, cutoff, blocks=far)
    assert kept == want_kept == brute_count(pts, ghosts, cutoff)
    assert_matches(got, want)


@pytest.mark.parametrize("backend", ENGINES)
def test_coincident_points_weigh_zero(backend, rng):
    """Duplicated points in and across chunks, and a lone chunk: every
    coincident pair is counted and contributes exactly nothing."""
    pts, om = sheet(300, rng)
    pts[8] = pts[7]
    pts[200] = pts[7]
    pts[299] = pts[150]
    cutoff = 0.7
    blocks = chunk_pairs(pts, pts, cutoff, symmetric=True)
    want, want_kept = masked("numpy", pts, pts, om, cutoff)
    got, kept = masked(backend, pts, pts, om, cutoff, symmetric=True,
                       blocks=blocks)
    assert kept == want_kept
    assert np.all(np.isfinite(got))
    assert_matches(got, want)
    lone = np.array([[0.2, -0.4, 1.0], [0.2, -0.4, 1.0]])
    got, kept = masked(backend, lone, lone, np.ones((2, 3)), 0.5,
                       symmetric=True,
                       blocks=chunk_pairs(lone, lone, 0.5, symmetric=True))
    assert kept == 4 and np.all(got == 0.0)


@pytest.mark.parametrize("backend", ENGINES)
def test_a_complete_list_changes_no_bit(backend, rng):
    pts, om = sheet(200, rng)
    every = chunk_pairs(pts, pts, 100.0, symmetric=True)
    plain, kept = masked(backend, pts, pts, om, 100.0, symmetric=True)
    listed, listed_kept = masked(backend, pts, pts, om, 100.0,
                                 symmetric=True, blocks=every)
    assert listed_kept == kept == 200 * 200
    assert np.array_equal(listed, plain)


@pytest.mark.parametrize("backend", ENGINES)
def test_stack_members_are_each_alone(backend, rng):
    """One list serves a stack: each member comes out as it does alone."""
    pts, om = sheet(500, rng)
    stack = np.stack([pts, pts + 0.01 * rng.normal(size=pts.shape)])
    oms = np.stack([om, -om])
    blocks = chunk_pairs(pts, pts, 1.1, symmetric=True)
    out = np.zeros(stack.shape)
    kept = get_backend(backend).br_allpairs(
        stack, stack, oms, np.full(2, EPS2), np.full(2, PREF), out,
        symmetric=True, cutoff2=np.full(2, 0.8 ** 2), blocks=blocks,
    )
    for b in range(2):
        alone, count = masked(backend, stack[b], stack[b], oms[b], 0.8,
                              symmetric=True, blocks=blocks)
        assert np.array_equal(out[b], alone) and kept[b] == count


@pytest.mark.parametrize("symmetric", [True, False])
def test_blocked_bits_do_not_depend_on_threads(monkeypatch, rng, symmetric):
    """Enough listed sub-panels for several tasks and waves: one thread
    and two give the same bits."""
    pts, om = sheet(4096, rng)
    src, som = (pts, om) if symmetric else sheet(1500, rng)
    blocks = chunk_pairs(pts, src, 0.8, symmetric=symmetric)
    runs = []
    for helpers in (0, 1, 2):
        monkeypatch.setattr(blocked, "_helper_threads", lambda: helpers)
        runs.append(masked("blocked", pts, src, som, 0.8, symmetric=symmetric,
                           blocks=blocks))
    for got, kept in runs[1:]:
        assert kept == runs[0][1]
        assert np.array_equal(got, runs[0][0])
