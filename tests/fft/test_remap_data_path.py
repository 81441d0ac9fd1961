"""Remap data path: the own block is copied straight across, peers' pieces
are packed from the strided source and placed from the sender's buffer,
and the trace still reads as if every piece had been staged."""

import sys
import threading

import numpy as np
import pytest

import repro.mpi.collectives as collectives
from repro import mpi
from repro.fft import ALL_CONFIGS, Remap
from repro.fft.layouts import (
    brick_layout,
    cols_pencil_layout,
    cols_slab_layout,
    rows_pencil_layout,
    rows_slab_layout,
)
from tests.conftest import spmd

SHAPE = (18, 12)
HOPS = [
    (brick_layout, rows_pencil_layout),
    (rows_slab_layout, cols_slab_layout),
    (cols_pencil_layout, brick_layout),
]


def _hop_id(hop):
    return f"{hop[0].__name__}→{hop[1].__name__}"


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"cfg{c.index}")
@pytest.mark.parametrize("nranks", [1, 2, 4, 6])
@pytest.mark.parametrize("hop", HOPS, ids=_hop_id)
@pytest.mark.parametrize("transposed", [False, True], ids=["c", "t"])
def test_pieces_land_bitwise(cfg, nranks, hop, transposed):
    """Every element of a (B, …) stack of a strided source lands where the
    destination box says, in either destination memory order."""
    full = np.arange(2 * SHAPE[0] * SHAPE[1], dtype=np.float64)
    full = (full + 1j * full[::-1]).reshape((2,) + SHAPE)
    padded = np.zeros((2, SHAPE[0] + 4, SHAPE[1] + 4), dtype=np.complex128)
    padded[:, 2:-2, 2:-2] = full

    def program(comm):
        dims = mpi.create_cart(comm, ndims=2).dims
        src, dst = hop[0](SHAPE, dims), hop[1](SHAPE, dims)
        remap = Remap(comm, src, dst, cfg, tag_base=9300, transposed=transposed)
        box = src[comm.rank]
        local = padded[:, 2:-2, 2:-2][(Ellipsis, *box.slices())]  # strided view
        local.flags.writeable = False
        out = remap.apply(local)
        np.testing.assert_array_equal(out, full[(Ellipsis, *dst[comm.rank].slices())])
        if transposed and not remap.identity:
            assert out.strides[-2] == out.itemsize
        return True

    assert all(spmd(nranks, program))


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"cfg{c.index}")
@pytest.mark.parametrize("nranks", [2, 4, 6])
def test_own_block_skips_the_messages(cfg, nranks, monkeypatch):
    """The own block never enters ``pack_segments`` or a message, while
    the traced ``alltoallv`` counts still include it."""
    packs = []
    real_pack = collectives.pack_segments

    def spy(segments, out=None):
        packs.append((threading.get_ident(), list(segments)))
        return real_pack(segments, out=out)

    monkeypatch.setattr(collectives, "pack_segments", spy)
    trace = mpi.CommTrace()
    rank_of_thread, own_bytes = {}, {}

    def program(comm):
        dims = mpi.create_cart(comm, ndims=2).dims
        src, dst = rows_slab_layout(SHAPE, dims), cols_slab_layout(SHAPE, dims)
        remap = Remap(comm, src, dst, cfg, tag_base=9400)
        rank_of_thread[threading.get_ident()] = comm.rank
        own = remap.send_parts[comm.rank]
        own_bytes[comm.rank] = own.size * 16
        remap.apply(np.ones(src[comm.rank].shape, dtype=np.complex128))
        return True

    spmd(nranks, program, trace=trace)
    assert all(own_bytes.values())
    if cfg.alltoall:
        assert len(packs) == nranks
        for ident, segments in packs:
            rank = rank_of_thread[ident]
            assert segments[rank] is None
            assert all(s is not None for r, s in enumerate(segments) if r != rank)
        events = trace.filter(kind="alltoallv")
        assert sorted(e.rank for e in events) == list(range(nranks))
        for e in events:
            assert e.counts[e.rank] == own_bytes[e.rank]
    else:
        assert not packs
        sends = trace.filter(kind="send")
        assert len(sends) == nranks * (nranks - 1)
        assert all(e.peer != e.rank for e in sends)


def test_borrowed_pieces_survive_back_to_back_rounds():
    """Six rank threads on two cores, a short switch interval and fresh
    data every round: a receiver reads each peer's pooled send buffer
    after that peer may have returned, so a buffer reused one round too
    early would corrupt a piece."""
    rounds = 60
    cfg = ALL_CONFIGS[7]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def program(comm):
            dims = mpi.create_cart(comm, ndims=2).dims
            rows, cols = rows_slab_layout(SHAPE, dims), cols_slab_layout(SHAPE, dims)
            there = Remap(comm, rows, cols, cfg, tag_base=9600, transposed=True)
            back = Remap(comm, cols, rows, cfg, tag_base=9610)
            for k in range(rounds):
                full = np.arange(SHAPE[0] * SHAPE[1], dtype=np.complex128)
                full = (full + 1j * k).reshape(SHAPE)
                mine = there.apply(full[rows[comm.rank].slices()])
                np.testing.assert_array_equal(mine, full[cols[comm.rank].slices()])
                np.testing.assert_array_equal(
                    back.apply(mine), full[rows[comm.rank].slices()])
            return True

        assert all(spmd(6, program, timeout=60.0))
    finally:
        sys.setswitchinterval(interval)
