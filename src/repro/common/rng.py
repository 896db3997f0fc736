"""Deterministic random-number management.

All stochastic components in the simulator draw from explicitly threaded
:class:`numpy.random.Generator` instances. Components that need independent
streams derive them from a parent seed and a string label, so adding a new
component never perturbs the draws of existing ones.

Every stream is a bare generator. A stream is a pure function of
``(seed, labels)``, so when it is derived changes no draw: components that
may never draw (a channel no packet crosses, a network whose routers never
answer with slow-path ICMP) derive theirs at the first draw.
"""

from __future__ import annotations

import hashlib

import numpy as np

RngStream = np.random.Generator


def make_rng(seed: int) -> RngStream:
    """Create the root generator for a simulation run."""
    return np.random.default_rng(seed)


def derive_rng(seed: int, *labels: str | int | float) -> RngStream:
    """Derive an independent stream from ``seed`` and a label path.

    The derivation hashes the labels, so streams for different labels are
    statistically independent and stable across code changes that add or
    remove *other* streams.
    """
    return np.random.default_rng(derive_seed(seed, *labels))


def derive_seed(seed: int, *labels: str | int | float) -> int:
    """The child seed ``derive_rng`` uses for ``(seed, *labels)``.

    Exposed so that work fanned out to other processes (see
    ``repro.perf.parallel``) can derive bit-identical per-cell streams
    without shipping generator state across process boundaries.
    """
    hasher = hashlib.sha256(str(seed).encode("utf-8"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")

