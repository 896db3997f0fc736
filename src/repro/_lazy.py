"""Lazy package re-exports (PEP 562).

A package ``__init__`` that imports every submodule makes
``import repro.perf.vmbench`` pay, in time and memory, for the whole
subtree: ``multiprocessing``, the continent generator, the loadgen stack.
``repro.perf`` and ``repro.workloads`` instead declare where each public
name lives and resolve it on first access;
``from repro.workloads import MarketplaceTestbed`` reads the same and
imports only ``repro.workloads.scenarios``.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable


def lazy_exports(
    package: str, origins: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``origins`` maps a submodule to the names it provides.
    """
    sources = {
        name: f"{package}.{submodule}"
        for submodule, names in origins.items()
        for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = sources[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(importlib.import_module(module), name)

    def __dir__() -> list[str]:
        return sorted(sources)

    return __getattr__, __dir__, sorted(sources)
