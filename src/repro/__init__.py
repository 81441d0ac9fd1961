"""repro — a from-scratch Python reproduction of Beatnik (SC 2024).

Beatnik is a global-communication mini-application that simulates 3D
Rayleigh-Taylor interface instabilities with Pandya & Shkoller's Z-Model.
This package reimplements the full system in Python: the Z-Model solver
stack (:mod:`repro.core`), the structured-grid substrate
(:mod:`repro.grid`), a heFFTe-style distributed FFT (:mod:`repro.fft`),
an ArborX/CabanaPD-style particle layer (:mod:`repro.spatial`), a
Silo-style writer (:mod:`repro.io`), an in-process MPI simulator
(:mod:`repro.mpi`), the compute engine of the dense hot paths
(:mod:`repro.backend`) and a machine performance model
(:mod:`repro.machine`) used by the benchmark harness to reproduce the
paper's 4-to-1024-GPU scaling studies.

Start with :class:`repro.core.Solver` (see ``examples/quickstart.py``) or
the ``rocketrig`` command-line driver (:mod:`repro.cli.rocketrig`).
"""

__version__ = "1.0.0"

__all__ = [
    "mpi", "machine", "grid", "fft", "spatial", "io", "core", "util",
    "backend",
]
