"""Backend registry: named engines and the env-var default.

``get_backend`` is the single resolution point used by every layer
(kernels, ZModel, TimeIntegrator, DistributedFFT2D, Solver, CLI).  It
accepts an :class:`~repro.backend.base.ArrayBackend` instance (passed
through), a registered name, or ``None``/``"auto"`` — which resolves to
``$REPRO_BACKEND`` when set and the ``numpy`` reference otherwise, so
``REPRO_BACKEND=blocked pytest`` drives the whole suite through an
alternative engine without touching any call site.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.backend.base import ArrayBackend
from repro.util.errors import ConfigurationError

__all__ = [
    "available_backends",
    "default_backend_name",
    "get_backend",
    "register_backend",
]

#: Name of the always-available reference backend.
REFERENCE = "numpy"

_REGISTRY: dict[str, ArrayBackend] = {}


def register_backend(backend: ArrayBackend, *, replace: bool = False) -> ArrayBackend:
    """Register ``backend`` under ``backend.name``.

    Re-registering an existing name requires ``replace=True`` so typos
    cannot silently shadow an engine.
    """
    if not isinstance(backend, ArrayBackend):
        raise ConfigurationError(
            f"backend must be an ArrayBackend, got {type(backend).__name__}"
        )
    name = backend.name.strip().lower()
    if not name or name == "abstract":
        raise ConfigurationError(f"backend {backend!r} needs a concrete name")
    if name != backend.name:
        raise ConfigurationError(
            f"backend names must be lowercase, got {backend.name!r}"
        )
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"backend {name!r} is already registered (pass replace=True)"
        )
    _REGISTRY[name] = backend
    return backend


def available_backends() -> list[str]:
    """Registered backend names, reference first, then alphabetical."""
    names = sorted(_REGISTRY)
    if REFERENCE in names:
        names.remove(REFERENCE)
        names.insert(0, REFERENCE)
    return names


def default_backend_name() -> str:
    """``$REPRO_BACKEND`` when set, else the numpy reference."""
    return os.environ.get("REPRO_BACKEND", "").strip() or REFERENCE


def get_backend(
    spec: "ArrayBackend | str | None" = None,
) -> ArrayBackend:
    """Resolve a backend instance from a spec.

    ``spec`` may be an instance (returned as-is), a registered name,
    or ``None``/``"auto"`` for the environment-selected default.
    """
    if isinstance(spec, ArrayBackend):
        return spec
    name: Optional[str] = spec
    if name is None or name == "auto":
        name = default_backend_name()
    name = str(name).strip().lower()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown compute backend {name!r}; "
            f"available: {available_backends()}"
        ) from None
