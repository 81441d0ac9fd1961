"""VTK writer/reader round-trips and checkpointing."""

import gc
import os
import warnings

import numpy as np
import pytest

from repro.io import (
    load_checkpoint,
    read_vtk_surface,
    save_checkpoint,
    write_vtk_surface,
)
from repro.util.errors import ConfigurationError


@pytest.fixture
def surface(rng):
    ni, nj = 6, 5
    pos = rng.normal(size=(ni, nj, 3))
    scalar = rng.normal(size=(ni, nj))
    vector = rng.normal(size=(ni, nj, 2))
    return pos, scalar, vector


class TestVtk:
    def test_roundtrip_scalar_and_vector(self, tmp_path, surface):
        pos, scalar, vector = surface
        path = tmp_path / "out.vtk"
        write_vtk_surface(path, pos, {"mag": scalar, "vort": vector})
        rpos, fields = read_vtk_surface(path)
        np.testing.assert_allclose(rpos, pos, rtol=1e-9)
        np.testing.assert_allclose(fields["mag"], scalar, rtol=1e-9)
        np.testing.assert_allclose(fields["vort"][..., :2], vector, rtol=1e-9)
        np.testing.assert_allclose(fields["vort"][..., 2], 0.0)

    def test_no_fields(self, tmp_path, surface):
        pos, _, _ = surface
        path = tmp_path / "plain.vtk"
        write_vtk_surface(path, pos)
        rpos, fields = read_vtk_surface(path)
        np.testing.assert_allclose(rpos, pos)
        assert fields == {}

    def test_header_wellformed(self, tmp_path, surface):
        pos, scalar, _ = surface
        path = tmp_path / "hdr.vtk"
        write_vtk_surface(path, pos, {"s": scalar}, title="my run")
        text = path.read_text()
        assert text.startswith("# vtk DataFile Version 3.0\nmy run\nASCII\n")
        assert "DATASET STRUCTURED_GRID" in text
        assert f"POINTS {pos.shape[0] * pos.shape[1]} double" in text

    def test_bad_positions_shape(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_vtk_surface(tmp_path / "x.vtk", np.zeros((4, 4)))

    def test_field_shape_mismatch(self, tmp_path, surface):
        pos, _, _ = surface
        with pytest.raises(ConfigurationError):
            write_vtk_surface(tmp_path / "x.vtk", pos, {"bad": np.zeros((2, 2))})

    def test_too_many_components(self, tmp_path, surface):
        pos, _, _ = surface
        with pytest.raises(ConfigurationError):
            write_vtk_surface(
                tmp_path / "x.vtk", pos, {"bad": np.zeros(pos.shape[:2] + (4,))}
            )


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, surface):
        pos, _, _ = surface
        vort = np.random.default_rng(1).normal(size=pos.shape[:2] + (2,))
        path = save_checkpoint(
            tmp_path / "ck.npz",
            positions=pos,
            vorticity=vort,
            time=1.25,
            step=40,
            metadata={"order": "high", "cutoff": 0.5},
        )
        data = load_checkpoint(path)
        np.testing.assert_array_equal(data["positions"], pos)
        np.testing.assert_array_equal(data["vorticity"], vort)
        assert data["time"] == 1.25
        assert data["step"] == 40
        assert data["metadata"] == {"order": "high", "cutoff": 0.5}

    def test_empty_metadata(self, tmp_path, surface):
        pos, _, _ = surface
        path = save_checkpoint(
            tmp_path / "ck2.npz",
            positions=pos,
            vorticity=np.zeros(pos.shape[:2] + (2,)),
            time=0.0,
            step=0,
        )
        assert load_checkpoint(path)["metadata"] == {}

    def test_missing_arrays_detected(self, tmp_path):
        bad = tmp_path / "bad.npz"
        np.savez(bad, positions=np.zeros((2, 2, 3)))
        with pytest.raises(ConfigurationError):
            load_checkpoint(bad)

    def test_returns_exactly_the_file_written(self, tmp_path, surface):
        pos, _, _ = surface
        vort = np.zeros(pos.shape[:2] + (2,))
        # Without suffix: .npz is appended once, and the returned path
        # is the file that exists on disk.
        bare = save_checkpoint(
            tmp_path / "noext", positions=pos, vorticity=vort, time=0.0, step=0
        )
        assert bare == str(tmp_path / "noext.npz")
        assert os.path.exists(bare)
        # With suffix: path is used verbatim (no double .npz).
        exact = save_checkpoint(
            tmp_path / "has.npz", positions=pos, vorticity=vort, time=0.0, step=0
        )
        assert exact == str(tmp_path / "has.npz")
        assert os.path.exists(exact)
        assert not os.path.exists(str(tmp_path / "has.npz.npz"))

    def test_non_ascii_metadata_roundtrip(self, tmp_path, surface):
        pos, _, _ = surface
        metadata = {"café": "ätwood=0.5", "模型": "ρ–Taylor", "emoji": "🚀"}
        path = save_checkpoint(
            tmp_path / "unicode",
            positions=pos,
            vorticity=np.zeros(pos.shape[:2] + (2,)),
            time=0.5,
            step=7,
            metadata=metadata,
        )
        assert load_checkpoint(path)["metadata"] == metadata


class TestAtomicCheckpoint:
    """save_checkpoint must never leave a truncated file at the target
    path — an interrupted write either keeps the previous checkpoint
    intact or leaves nothing (bugfix: in-place writes used to leave
    unreadable .npz files that wedged campaign resume)."""

    def _save(self, path, pos, step=1):
        return save_checkpoint(
            path, positions=pos, vorticity=np.zeros(pos.shape[:2] + (2,)),
            time=0.1 * step, step=step,
        )

    def test_failed_write_preserves_previous_checkpoint(
        self, tmp_path, surface, monkeypatch
    ):
        pos, _, _ = surface
        path = self._save(tmp_path / "ck.npz", pos, step=3)
        import numpy as _np

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(_np, "savez_compressed", explode)
        with pytest.raises(RuntimeError, match="disk full"):
            self._save(tmp_path / "ck.npz", pos, step=4)
        # The old complete checkpoint survives, readable.
        assert load_checkpoint(path)["step"] == 3
        # No temporary files linger in the directory.
        assert sorted(os.listdir(tmp_path)) == ["ck.npz"]

    def test_failed_first_write_leaves_nothing(
        self, tmp_path, surface, monkeypatch
    ):
        pos, _, _ = surface
        import numpy as _np

        monkeypatch.setattr(
            _np, "savez_compressed",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError):
            self._save(tmp_path / "fresh.npz", pos)
        assert os.listdir(tmp_path) == []

    def test_overwrite_is_complete_replacement(self, tmp_path, surface):
        pos, _, _ = surface
        path = self._save(tmp_path / "ck.npz", pos, step=1)
        self._save(tmp_path / "ck.npz", pos * 2.0, step=2)
        data = load_checkpoint(path)
        assert data["step"] == 2
        np.testing.assert_array_equal(data["positions"], pos * 2.0)

    def test_truncated_file_fails_to_load(self, tmp_path, surface):
        """A torn archive fails to load and leaves no file handle open."""
        pos, _, _ = surface
        path = self._save(tmp_path / "ck.npz", pos)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(Exception):
                load_checkpoint(path)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == [], [str(w.message) for w in leaks]
