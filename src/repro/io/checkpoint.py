"""NPZ checkpointing of solver state.

Saves/restores the full surface state (positions, vorticity, time,
step) plus a JSON-encoded metadata dict, so long benchmark runs can be
resumed and examples can hand results to post-processing scripts.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np

from repro.util.errors import ConfigurationError
from repro.util.misc import atomic_write

__all__ = ["save_checkpoint", "load_checkpoint"]


def save_checkpoint(
    path: str | os.PathLike,
    *,
    positions: np.ndarray,
    vorticity: np.ndarray,
    time: float,
    step: int,
    metadata: dict[str, Any] | None = None,
) -> str:
    """Write a checkpoint; returns exactly the path written (``.npz``
    appended when missing).

    The write is atomic (:func:`~repro.util.misc.atomic_write`): an
    interrupted write can never leave a truncated checkpoint behind (a
    previous complete checkpoint at ``path`` survives the crash).
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    atomic_write(path, lambda fh: np.savez_compressed(
        fh,
        positions=np.asarray(positions, dtype=np.float64),
        vorticity=np.asarray(vorticity, dtype=np.float64),
        time=np.float64(time),
        step=np.int64(step),
        metadata=np.frombuffer(
            json.dumps(metadata or {}).encode("utf-8"), dtype=np.uint8
        ),
    ))
    return path


def load_checkpoint(path: str | os.PathLike) -> dict[str, Any]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    The file is opened here, not by ``np.load``, so a torn archive that
    ``np.load`` rejects still has its handle closed.
    """
    with open(path, "rb") as fh, np.load(fh) as data:
        required = {"positions", "vorticity", "time", "step", "metadata"}
        missing = required - set(data.files)
        if missing:
            raise ConfigurationError(f"checkpoint missing arrays: {sorted(missing)}")
        return {
            "positions": data["positions"],
            "vorticity": data["vorticity"],
            "time": float(data["time"]),
            "step": int(data["step"]),
            "metadata": json.loads(bytes(data["metadata"].tobytes()).decode("utf-8")),
        }
