"""Generic helpers: decomposition arithmetic and the one durable-write
primitive.

The block-decomposition helpers here are the single source of truth for
"which index range does rank r own" throughout the library.  Both the
functional distributed code (surface mesh, FFT, spatial mesh) and the analytic
communication-pattern generators in :mod:`repro.machine.patterns` call
these, which is what keeps modeled message sizes consistent with the
messages the functional code actually sends.
"""

from __future__ import annotations

import os
import tempfile
from functools import reduce
from typing import BinaryIO, Callable, Sequence

from repro.util.errors import ConfigurationError


def prod(values: Sequence[int]) -> int:
    """Integer product of a sequence (empty product is 1)."""
    return reduce(lambda a, b: a * b, values, 1)


def dims_create(nranks: int, ndims: int) -> tuple[int, ...]:
    """Factor ``nranks`` into ``ndims`` factors, as square as possible.

    Mirrors the behaviour of ``MPI_Dims_create``: the returned dims are
    sorted in non-increasing order and their product is exactly
    ``nranks``.

    >>> dims_create(12, 2)
    (4, 3)
    >>> dims_create(64, 2)
    (8, 8)
    """
    if nranks < 1:
        raise ConfigurationError(f"nranks must be positive, got {nranks}")
    if ndims < 1:
        raise ConfigurationError(f"ndims must be positive, got {ndims}")
    dims = [1] * ndims
    remaining = nranks
    # Repeatedly peel the largest prime factor onto the smallest dim.
    factors: list[int] = []
    n = remaining
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for factor in sorted(factors, reverse=True):
        smallest = dims.index(min(dims))
        dims[smallest] *= factor
    return tuple(sorted(dims, reverse=True))


def split_extent(n: int, parts: int, index: int) -> tuple[int, int]:
    """Return the half-open range ``[lo, hi)`` of part ``index`` of ``n``.

    The split is as even as possible: the first ``n % parts`` parts get
    one extra element.  This matches the convention used by Cabana's
    uniform block partitioner.
    """
    if parts < 1:
        raise ConfigurationError(f"parts must be positive, got {parts}")
    if not 0 <= index < parts:
        raise ConfigurationError(f"index {index} out of range for {parts} parts")
    base, extra = divmod(n, parts)
    lo = index * base + min(index, extra)
    hi = lo + base + (1 if index < extra else 0)
    return lo, hi


def atomic_write(path: str, write: Callable[[BinaryIO], object]) -> None:
    """Durably replace ``path`` with what ``write(fh)`` writes to ``fh``.

    The bytes go to a ``mkstemp`` sibling in the destination directory,
    are fsync'd, then ``os.replace``'d into place: a reader never sees a
    torn file, a crash mid-write leaves the previous version intact, and
    an exception leaves no temporary behind.
    """
    fd, tmp_path = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)),
        prefix=os.path.basename(path) + ".", suffix=".tmp",
    )
    try:
        # mkstemp creates 0600; restore the umask-default mode a plain
        # open() would have produced, so shared results trees stay
        # readable by their other consumers (where the filesystem has
        # modes at all).
        umask = os.umask(0)
        os.umask(umask)
        try:
            os.fchmod(fd, 0o666 & ~umask)
        except OSError:
            pass
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
