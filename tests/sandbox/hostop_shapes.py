"""The host-op table in the shapes the frozen references were written
against, rebuilt from the one table in :mod:`repro.sandbox.hostops`.

``absint_reference.py`` and ``compile_reference.py`` keep their bodies
verbatim; only their import lines point here. Before the table, arity
lived in ``HOST_OPS`` as ``(n_args, n_results)``, the verifier's effect
fields in ``HOST_EFFECTS``, and the VM kept ``_HOST_RESULTS``. A row
carries the effect fields under their old names, and every op returns
one i64.
"""

from repro.sandbox.hostops import HOST_OPS as _TABLE
from repro.sandbox.hostops import RECV_HEADER_SIZE, net_ops, protocol_from_number

HOST_OPS = {name: (row.arity, 1) for name, row in _TABLE.items()}
HOST_EFFECTS = dict(_TABLE)
_HOST_RESULTS = {name: 1 for name in _TABLE}

__all__ = [
    "HOST_EFFECTS",
    "HOST_OPS",
    "RECV_HEADER_SIZE",
    "_HOST_RESULTS",
    "net_ops",
    "protocol_from_number",
]
