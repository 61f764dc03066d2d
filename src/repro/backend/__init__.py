"""Array plumbing for the engines' worker pools.

Every engine calls numpy directly.  This package holds
:mod:`repro.backend.shm`, the zero-copy shared-memory array handoff of
the Benes pool (``route_permutations(workers=)``), and
:func:`get_backend`, which names the array library for report headers.
"""

from __future__ import annotations

from types import SimpleNamespace

from . import shm

__all__ = ["get_backend", "shm"]

_NUMPY = SimpleNamespace(name="numpy")


def get_backend() -> SimpleNamespace:
    """The array library every engine runs on; ``.name`` is ``"numpy"``."""
    return _NUMPY
