"""Performance tooling: parallel cell execution for the fast path."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {"parallel": ("map_cells",)})
