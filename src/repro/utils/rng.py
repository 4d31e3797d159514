"""Deterministic random-number handling.

Every stochastic component in the library (sensor noise, ligand library
generation, random-forest bootstrap, ...) accepts a ``seed`` argument that
may be ``None``, an ``int``, or a :class:`numpy.random.Generator`. This
module centralizes the conversion so that experiments are reproducible
end-to-end from a single integer seed.

Seeding many streams at once
----------------------------
``np.random.default_rng(seed)`` hashes ``seed`` through
:class:`numpy.random.SeedSequence` (15-25 us), which dominates building
a short-lived stream. :func:`state_words` runs that hash, and only that
hash, over a whole array of seeds in one vectorized pass: the 4-word
pool, constants and mixing of NumPy's ``bit_generator.pyx``, on
``uint32`` arrays. :func:`spawned_state_words` derives the
:func:`spawn_child` streams of many seeds, drawing each child's base
with NumPy's own bounded :meth:`~numpy.random.Generator.integers` on the
parent, and :func:`words_generator` turns four state words back into a
``Generator`` (about 2 us). Each stream is bitwise the one
``spawn_child(as_generator(seed), i)`` gives.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "RandomState",
    "as_generator",
    "draw_child_base",
    "spawn_child",
    "spawned_state_words",
    "state_words",
    "words_generator",
]

RandomState = Union[None, int, np.random.Generator]

#: Exclusive upper bound of the base a child stream is seeded from.
_CHILD_BASE_BOUND = 2**63 - 1

# SeedSequence's hash, as numpy/random/bit_generator.pyx defines it.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """``(xor, multiplier)`` of each of ``count`` chained hash steps, as
    ``(2, count, 1)`` uint32 columns.

    A step xors its value with the running constant, advances the
    constant by ``mult`` and multiplies by the new one; the constants do
    not depend on the values hashed, so they are computed once.
    """
    steps = []
    const = init
    for _ in range(count):
        advanced = (const * mult) & _MASK32
        steps.append((const, advanced))
        const = advanced
    return np.array(steps, dtype=np.uint32).T[:, :, None]


#: One chain hashes the pool: its fill, one step per word, then the
#: all-pairs mixing, where source word ``src`` hashes once per other word.
_POOL_STEPS = _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_FILL_STEPS = _POOL_STEPS[:, :_POOL_SIZE]
_MIX_STEPS = np.split(_POOL_STEPS[:, _POOL_SIZE:], _POOL_SIZE, axis=1)
_OTHERS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]
#: ``generate_state(4, np.uint64)``: eight 32-bit words, cycling the pool.
_STATE_STEPS = _hash_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_STATE_SOURCES = [i % _POOL_SIZE for i in range(2 * _POOL_SIZE)]


def _hash(value: np.ndarray, steps: np.ndarray) -> np.ndarray:
    value = (value ^ steps[0]) * steps[1]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _generate_state(entropy: np.ndarray) -> np.ndarray:
    """``(4, n)`` uint32 entropy words (zero-padded) -> ``(n, 4)`` uint64 state.

    Padding is exact: SeedSequence fills pool words past the end of its
    entropy by hashing 0. Every step runs on all ``n`` pools at once, and
    a source word's three mixing steps at once (it is not among their
    destinations).
    """
    pool = _hash(entropy, _FILL_STEPS)
    for src in range(_POOL_SIZE):
        others = _OTHERS[src]
        pool[others] = _mix(pool[others], _hash(pool[src], _MIX_STEPS[src]))
    halves = _hash(pool[_STATE_SOURCES], _STATE_STEPS).astype(np.uint64)
    # Word j is (halves[2j], halves[2j + 1]) read as one little-endian uint64.
    return np.ascontiguousarray((halves[0::2] | (halves[1::2] << np.uint64(32))).T)


def state_words(seeds, index=None) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every ``s`` in ``seeds``.

    ``seeds`` are ints in ``[0, 2**64)``, of any array shape. With
    ``index`` (ints in ``[0, 2**32)``, broadcast against ``seeds``) each
    entropy is the pair ``(s, index)`` instead, as :func:`spawn_child`
    seeds a child. Returns ``seeds.shape + (4,)`` words, C-contiguous, so
    each row can seed a PCG64 through :func:`words_generator`.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    entropy = np.zeros((_POOL_SIZE,) + seeds.shape, dtype=np.uint32)
    entropy[0] = low
    if index is None:
        entropy[1] = high
    else:
        # SeedSequence splits each int into as few 32-bit words as hold
        # it, so the index word follows a seed below 2**32 directly and a
        # larger seed's high word otherwise.
        index = np.broadcast_to(np.asarray(index, dtype=np.uint32), seeds.shape)
        wide = high != 0
        entropy[1] = np.where(wide, high, index)
        entropy[2] = np.where(wide, index, 0)
    state = _generate_state(entropy.reshape(_POOL_SIZE, -1))
    return state.reshape(seeds.shape + (_POOL_SIZE,))


class _StateWords(ISeedSequence):
    """A SeedSequence's generated state, handed to a bit generator as is."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        # PCG64 reads four words from the returned array's raw buffer: a
        # strided view of the same words would silently seed a different
        # stream, and a shorter array would be read past its end.
        self._words = np.ascontiguousarray(words, dtype=np.uint64)
        if self._words.shape != (_POOL_SIZE,):
            raise ValueError(f"expected {_POOL_SIZE} state words, got shape {self._words.shape}")

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed state words can seed only a PCG64")
        return self._words


def words_generator(words: np.ndarray) -> np.random.Generator:
    """The PCG64 ``Generator`` seeded from four :func:`state_words` words.

    ``words_generator(state_words(s))`` is bitwise ``np.random.default_rng(s)``.
    """
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


def draw_child_base(rng: np.random.Generator) -> int:
    """The draw :func:`spawn_child` seeds a child from; advances ``rng``."""
    return int(rng.integers(0, _CHILD_BASE_BOUND))


def spawned_state_words(seeds: Sequence[int], count: int) -> np.ndarray:
    """The state words of ``spawn_child(as_generator(s), i)`` for ``i < count``.

    Children are spawned in index order, as a loop over
    :func:`spawn_child` spawns them. Every parent is hashed in one pass;
    each parent then draws its children's bases (NumPy's bounded draw, on
    its own stream), and every child is hashed in a second pass. Returns
    ``(len(seeds), count, 4)`` words.
    """
    parents = state_words(list(seeds))
    bases = np.array(
        [[draw_child_base(rng) for _ in range(count)] for rng in map(words_generator, parents)],
        dtype=np.uint64,
    ).reshape(len(parents), count)
    return state_words(bases, np.arange(count))


def as_generator(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Passing an existing generator returns it unchanged (shared stream);
    passing ``None`` produces a fresh, OS-entropy-seeded stream; ints give a
    deterministic stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return np.random.default_rng(int(seed))
    raise TypeError(
        f"seed must be None, an int, or numpy.random.Generator, got {type(seed).__name__}"
    )


def spawn_child(rng: np.random.Generator, index: int = 0) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    Used when a component needs several decorrelated streams (e.g. one per
    tree in a random forest) while remaining reproducible: children are
    derived deterministically from the parent's bit generator state.

    Parameters
    ----------
    rng:
        Parent generator (consumed: one draw is taken per spawned child).
    index:
        Mixed into the child seed so that callers deriving several children
        in a loop get distinct streams even if the parent stream were reset.
    """
    if not isinstance(rng, np.random.Generator):
        raise TypeError("rng must be a numpy.random.Generator")
    return np.random.default_rng((draw_child_base(rng), int(index)))
