"""Bit-plane kernel backends.

``get_backend("numpy")`` returns the batched uint64 bit-plane kernels,
the production path; ``get_backend("reference")`` returns the
historical pure-Python loops, kept as the oracle ``tests/kernels``
holds numpy to.  Both honour the bit-identity contract documented on
:class:`~repro.kernels.interface.KernelBackend`; see docs/kernels.md
for the layout and guarantees.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.kernels.interface import (
    CHECK_CLEAN,
    CHECK_UNCORRECTABLE,
    KernelBackend,
    check_code,
    decode_from_check,
)
from repro.kernels.numpy_backend import NumpyBackend, warm_line_tables
from repro.kernels.reference import ReferenceBackend

#: Registry of constructable backends, in documentation order.
BACKENDS = {
    "reference": ReferenceBackend,
    "numpy": NumpyBackend,
}

#: Valid backend names, for shard validation.
BACKEND_NAMES = tuple(BACKENDS)

_INSTANCES: Dict[str, KernelBackend] = {}


def get_backend(name: str = "numpy") -> KernelBackend:
    """The singleton backend registered under ``name``.

    Backends are stateless (caches only), so one shared instance per
    name is safe and keeps per-codec decode tables warm across engines.
    """
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {BACKEND_NAMES}"
        ) from None
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = factory()
        _INSTANCES[name] = instance
    return instance


def resolve_backend(
    spec: Optional[Union[str, KernelBackend]]
) -> KernelBackend:
    """Normalise a backend argument: None -> numpy, str -> lookup."""
    if spec is None:
        return get_backend()
    if isinstance(spec, KernelBackend):
        return spec
    return get_backend(spec)


__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "CHECK_CLEAN",
    "CHECK_UNCORRECTABLE",
    "KernelBackend",
    "NumpyBackend",
    "ReferenceBackend",
    "check_code",
    "decode_from_check",
    "get_backend",
    "resolve_backend",
    "warm_line_tables",
]
