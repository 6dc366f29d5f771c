"""Kernel backend selection.

Two interchangeable backends implement the bitmask graph primitives: a
compiled Cython extension (``_fastkernels``, graphs up to 64 vertices)
and a pure-Python twin (``_pykernels``, any size).  The compiled backend
is preferred when importable; set ``RAAGSPLIT_KERNELS=pure`` or
``=compiled`` to force one.  Larger graphs silently fall back to the
pure backend per call.

Both backends are pure functions of their arguments and return identical
values.
"""

from __future__ import annotations

import os

from . import _pykernels

try:
    from . import _fastkernels
except ImportError:
    _fastkernels = None

_FORCED = os.environ.get("RAAGSPLIT_KERNELS", "")
if _FORCED == "compiled" and _fastkernels is None:
    raise ImportError("RAAGSPLIT_KERNELS=compiled but the extension is not built")

_backend = _pykernels if (_FORCED == "pure" or _fastkernels is None) else _fastkernels


def backend_name() -> str:
    return _backend.BACKEND


def have_compiled() -> bool:
    return _fastkernels is not None


def use_backend(name: str) -> None:
    """Swap the active backend ("pure" or "compiled"); for tests and
    benchmarks."""
    global _backend
    if name == "pure":
        _backend = _pykernels
    elif name == "compiled":
        if _fastkernels is None:
            raise ValueError("compiled backend is not available")
        _backend = _fastkernels
    else:
        raise ValueError(f"unknown backend {name!r}")


def _pick(adj):
    if len(adj) > 64:
        return _pykernels
    return _backend


def component_bits(adj, mask, start_bit):
    return _pick(adj).component_bits(adj, mask, start_bit)


def components_bits(adj, mask):
    return _pick(adj).components_bits(adj, mask)


def is_connected_bits(adj, mask):
    return _pick(adj).is_connected_bits(adj, mask)


def maximal_cliques_bits(adj, mask):
    return _pick(adj).maximal_cliques_bits(adj, mask)


def max_clique_size_bits(adj, mask):
    return _pick(adj).max_clique_size_bits(adj, mask)


def first_clique_of_size_bits(adj, candidates, size):
    return _pick(adj).first_clique_of_size_bits(adj, candidates, size)
