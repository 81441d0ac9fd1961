"""NPZ checkpointing of solver state.

Saves/restores the full surface state (positions, vorticity, time,
step) plus a JSON-encoded metadata dict, so long benchmark runs can be
resumed and examples can hand results to post-processing scripts.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

import numpy as np

from repro.util.errors import ConfigurationError

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

    The write is atomic: the archive goes to a temporary file in the
    same directory and is renamed over ``path`` only once complete, so
    an interrupted write can never leave a truncated checkpoint behind
    (a previous complete checkpoint at ``path`` survives the crash).
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        # mkstemp creates 0600; restore the umask-default mode a plain
        # open() would have produced, so shared results trees stay
        # readable by their other consumers.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(
                fh,
                positions=np.asarray(positions, dtype=np.float64),
                vorticity=np.asarray(vorticity, dtype=np.float64),
                time=np.float64(time),
                step=np.int64(step),
                metadata=np.frombuffer(
                    json.dumps(metadata or {}).encode("utf-8"), dtype=np.uint8
                ),
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
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
