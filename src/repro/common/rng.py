"""Deterministic random-number management.

All stochastic components in the simulator draw from explicitly threaded
:class:`numpy.random.Generator` instances. Components that need independent
streams derive them from a parent seed and a string label, so adding a new
component never perturbs the draws of existing ones.

:class:`BufferedRng` is a drop-in façade over a generator for single-kind
scalar streams (schedule generation in ``netsim.congestion`` and
``netsim.traffic``, slow-path ICMP jitter in ``netsim.network``): it serves
scalar draws from pre-filled blocks while guaranteeing the exact draw
sequence of the bare generator, so seeded traces are unchanged by the
buffering. An interleaved pattern never engages the buffer, so
``DirectedChannel.transit`` (uniform / gamma / normal per packet) draws
from its bare generator, scaling the standard forms itself with the
arithmetic documented below.
"""

from __future__ import annotations

import hashlib

import numpy as np

RngStream = np.random.Generator


def make_rng(seed: int) -> RngStream:
    """Create the root generator for a simulation run."""
    return np.random.default_rng(seed)


def derive_rng(seed: int, *labels: str | int) -> RngStream:
    """Derive an independent stream from ``seed`` and a label path.

    The derivation hashes the labels, so streams for different labels are
    statistically independent and stable across code changes that add or
    remove *other* streams.
    """
    return np.random.default_rng(derive_seed(seed, *labels))


def derive_seed(seed: int, *labels: str | int) -> int:
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


class BufferedRng:
    """Serve scalar draws from pre-filled blocks, preserving the sequence.

    Wraps one :class:`numpy.random.Generator`. The guarantee is strict:
    **any** call pattern returns bit-identical values to making the same
    calls on the bare wrapped generator. This holds because

    - numpy's vectorized fills consume the bit stream exactly as the same
      number of scalar draws would (the block loop calls the scalar
      kernel per element), and
    - scaled forms are computed with the same arithmetic numpy uses
      internally (``normal(l, s) == l + s * standard_normal()``, etc.).

    Buffering only engages after ``threshold`` consecutive draws of the
    same distribution *kind*, so interleaved usage stays on the scalar path
    (at about twice a bare draw's cost), while single-kind streams
    (slow-path ICMP jitter, Poisson schedules) are served from blocks of
    ``block`` draws per underlying call. Abandoning a partially consumed
    block rewinds the underlying bit-generator state and replays the
    served draws, so alignment with the bare generator is exact even
    across kind switches.
    """

    _STANDARD = "standard"

    def __init__(
        self,
        generator: RngStream | None,
        *,
        block: int = 4096,
        threshold: int = 32,
    ) -> None:
        if block < 2:
            raise ValueError("block must be at least 2")
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self._block = block
        self._threshold = threshold
        # Active buffer state: kind key, standard-form values, cursor, and
        # the bit-generator state snapshot taken just before the fill.
        self._kind: tuple | None = None
        self._buffer: np.ndarray | None = None
        self._pos = 0
        self._saved_state: dict | None = None
        # Streak tracking for adaptive engagement.
        self._streak_kind: tuple | None = None
        self._streak = 0
        # ``None`` is :func:`derive_buffered_rng`, which names the stream's
        # labels here and leaves ``_gen`` unset: the first read of it lands
        # in ``__getattr__``, which derives it. ``_gen`` comes last either
        # way, so both kinds of instance lay their attributes out alike.
        self._derive_from: tuple | None = None
        if generator is not None:
            self._gen = generator

    # ------------------------------------------------------------ internals

    def _fill(self, kind: tuple, n: int) -> np.ndarray:
        """Draw ``n`` standard-form values of ``kind`` from the generator."""
        name = kind[0]
        if name == "random":
            return self._gen.random(n)
        if name == "normal":
            return self._gen.standard_normal(n)
        if name == "exponential":
            return self._gen.standard_exponential(n)
        if name == "gamma":
            return self._gen.standard_gamma(kind[1], n)
        raise ValueError(f"unknown draw kind {kind!r}")  # pragma: no cover

    def _realign(self) -> None:
        """Discard any outstanding buffer, restoring bare-generator state.

        A partially consumed block is rewound to the pre-fill snapshot and
        the served draws are replayed, which leaves the bit generator in
        exactly the state a bare generator would have after the same
        scalar draws. A fully consumed block already matches that state.
        """
        if self._buffer is None:
            return
        if self._pos < len(self._buffer):
            self._gen.bit_generator.state = self._saved_state
            if self._pos:
                self._fill(self._kind, self._pos)
        self._kind = None
        self._buffer = None
        self._pos = 0
        self._saved_state = None

    def _draw(self, kind: tuple) -> float:
        """One standard-form draw of ``kind``, buffered when hot."""
        if self._kind == kind:
            buffer = self._buffer
            if self._pos >= len(buffer):
                self._saved_state = self._gen.bit_generator.state
                buffer = self._buffer = self._fill(kind, self._block)
                self._pos = 0
            value = buffer[self._pos]
            self._pos += 1
            return value
        # Kind switch (or no buffer yet): fall back to the scalar path.
        self._realign()
        if self._streak_kind == kind:
            self._streak += 1
        else:
            self._streak_kind = kind
            self._streak = 1
        if self._streak > self._threshold:
            self._kind = kind
            self._saved_state = self._gen.bit_generator.state
            self._buffer = self._fill(kind, self._block)
            self._pos = 1
            return self._buffer[0]
        return self._scalar(kind)

    def _scalar(self, kind: tuple) -> float:
        name = kind[0]
        if name == "random":
            return self._gen.random()
        if name == "normal":
            return self._gen.standard_normal()
        if name == "exponential":
            return self._gen.standard_exponential()
        if name == "gamma":
            return self._gen.standard_gamma(kind[1])
        raise ValueError(f"unknown draw kind {kind!r}")  # pragma: no cover

    # ------------------------------------------------------------ draw API

    def random(self) -> float:
        return self._draw(("random",))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * self._draw(("random",))

    def standard_normal(self) -> float:
        return self._draw(("normal",))

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        return loc + scale * self._draw(("normal",))

    def standard_exponential(self) -> float:
        return self._draw(("exponential",))

    def exponential(self, scale: float = 1.0) -> float:
        return scale * self._draw(("exponential",))

    def standard_gamma(self, shape: float) -> float:
        return self._draw(("gamma", float(shape)))

    def gamma(self, shape: float, scale: float = 1.0) -> float:
        return scale * self._draw(("gamma", float(shape)))

    # ------------------------------------------------------- everything else

    @property
    def bit_generator(self):
        """The underlying bit generator, realigned to the bare sequence."""
        self._realign()
        self._streak = 0
        return self._gen.bit_generator

    def __getattr__(self, name: str):
        """Delegate uncommon draws to the wrapped generator, realigned."""
        if name == "_gen":
            # Reached once per derived stream, at its first draw; from then
            # on ``_gen`` is an ordinary instance attribute and draws cost
            # what they cost on an eagerly built stream.
            labels = self._derive_from
            if labels is None:
                raise AttributeError(name)
            generator = self._gen = derive_rng(*labels)
            return generator
        attribute = getattr(self._gen, name)
        if callable(attribute):
            self._realign()
            self._streak = 0
        return attribute


def derive_buffered_rng(
    seed: int, *labels: str | int, block: int = 4096, threshold: int = 32
) -> BufferedRng:
    """A :class:`BufferedRng` over the ``derive_rng(seed, *labels)`` stream.

    The generator is derived at the first draw, not here. A stream is a
    pure function of ``(seed, labels)``, so when it is built changes no
    draw — and a stream nobody draws from (most channels of a generated
    Internet never carry a probe) costs this small object instead of a
    seeded bit generator.
    """
    rng = BufferedRng(None, block=block, threshold=threshold)
    rng._derive_from = (seed, *labels)
    return rng
