"""One place to append/load ``BENCH_*.json`` result files.

Every perf guard in the repo records wall-clock rows to a
``BENCH_<name>.json`` at the repo root, keyed by the short git head so
numbers can be compared across commits::

    {
      "d32fa0d": [
        {"kind": "smoke", "seconds": 1.23, "timestamp": "2026-08-08T...",
         "signature_backend": "openssl"},
        ...
      ]
    }

Every row is stamped with the Ed25519 backend of the process that wrote
it (:func:`repro.chain.crypto.backend_name`): control-plane rows from the
OpenSSL backend and from the pure-Python fallback differ severalfold and
must never be read against each other.

The append/load logic used to be copy-pasted into each bench (table1,
vmbench, loadgen, fleet, obs); this module is the single implementation
they now share. Appends are read-modify-write of the whole document —
fine for the low-frequency, single-writer bench usage — and tolerate a
corrupt or missing file by starting the document over (a bench must
never fail because a previous run crashed mid-write).
"""

from __future__ import annotations

import datetime
import json
import pathlib
import subprocess


def repo_root() -> pathlib.Path:
    """The repository root (two levels above the ``repro`` package)."""
    return pathlib.Path(__file__).resolve().parents[3]


def git_head(root: pathlib.Path | None = None) -> str:
    """Short git head of ``root``, or ``"unknown"`` outside a checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root or repo_root(),
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def bench_path(bench_name: str, root: pathlib.Path | None = None) -> pathlib.Path:
    """Path of ``BENCH_<name>.json`` (pass e.g. ``"wan"`` or ``"vm"``)."""
    return (root or repo_root()) / f"BENCH_{bench_name}.json"


def load_document(bench_name: str, *, root: pathlib.Path | None = None) -> dict:
    """The full ``{head: [rows]}`` document; empty when absent/corrupt."""
    path = bench_path(bench_name, root)
    if not path.exists():
        return {}
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return document if isinstance(document, dict) else {}


def load_rows(bench_name: str, *, root: pathlib.Path | None = None) -> list[dict]:
    """All recorded rows across heads, in file order."""
    rows: list[dict] = []
    for head_rows in load_document(bench_name, root=root).values():
        if isinstance(head_rows, list):
            rows.extend(row for row in head_rows if isinstance(row, dict))
    return rows


def append_rows(
    bench_name: str,
    rows: list[dict],
    *,
    root: pathlib.Path | None = None,
) -> pathlib.Path:
    """Stamp ``rows`` and append them under the current git head."""
    root = root or repo_root()
    path = bench_path(bench_name, root)
    document = load_document(bench_name, root=root)
    stamp = datetime.datetime.now().strftime("%Y-%m-%dT%H:%M:%S")
    # Imported here: most benches that record rows never touch the chain.
    from repro.chain.crypto import backend_name

    backend = backend_name()
    stamped = [dict(row, timestamp=stamp, signature_backend=backend) for row in rows]
    document.setdefault(git_head(root), []).extend(stamped)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path
