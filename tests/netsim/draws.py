"""A channel's draw streams, read for exactness checks.

``DirectedChannel.transit`` draws each kind of value from its own stream,
served from a block (``ChannelDraws``). A check compares what was *served*:
per kind, the count of values consumed and the generator state once the
other side has drawn what this one holds unread. The block size changes no
served value, so every check runs at :data:`BLOCK_SIZES`.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager

from numpy.random import Generator

from repro.netsim import conduit

#: One value per vector call (the scalar draw), a size that leaves blocks
#: part-read at every check, and the production size.
BLOCK_SIZES = (1, 7, conduit.DRAW_BLOCK)

_DRAW = {
    "uniform": Generator.random,
    "normal": Generator.standard_normal,
    "gamma": Generator.standard_gamma,
}


@contextmanager
def draw_block(size: int):
    """Channels refill their blocks ``size`` values at a time inside."""
    saved = conduit.DRAW_BLOCK
    conduit.DRAW_BLOCK = size
    try:
        yield
    finally:
        conduit.DRAW_BLOCK = saved


def unread(draws: conduit.ChannelDraws, kind: tuple) -> list[float]:
    """The values of ``kind`` drawn into ``draws`` but not served, in order."""
    if kind[0] == "gamma":
        block = draws.gammas.get(kind[1], [])
    elif kind[0] == "uniform":
        block = draws.uniforms
    else:
        block = draws.normals
    return block[::-1]


def draw_state(channel) -> dict:
    """Per kind drawn from: values served, the unread rest, generator state."""
    draws = channel._draws
    if draws is None:
        return {}
    state = {}
    for kind, stream in draws.streams.items():
        rest = unread(draws, kind)
        state[kind] = (
            draws.drawn[kind] - len(rest), rest, stream.bit_generator.state
        )
    return state


def served(channel) -> dict:
    """:func:`draw_state` without the unread rest: what a scalar-drawing
    channel that consumed the same values would show once aligned."""
    return {kind: (count, state)
            for kind, (count, _, state) in draw_state(channel).items()}


def aligned(reference, channel) -> dict:
    """The reference's scalar draws per kind, with each generator state
    taken after drawing, on a copy, what ``channel`` holds unread — equal to
    ``served(channel)`` iff both consumed the same values of every kind."""
    draws = channel._draws
    state = {}
    for kind, stream in reference.streams.items():
        stream = copy.deepcopy(stream)
        rest = len(unread(draws, kind)) if draws and kind in draws.streams else 0
        if rest:
            _DRAW[kind[0]](stream, *kind[1:], rest)
        state[kind] = (reference.consumed[kind], stream.bit_generator.state)
    return state
