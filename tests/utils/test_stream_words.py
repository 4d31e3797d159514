"""One seeding pass for many streams, bitwise NumPy's own seeding.

``repro.utils.rng.state_words`` runs ``numpy.random.SeedSequence``'s hash
over arrays of seeds, ``spawned_state_words`` derives the
``spawn_child`` streams of many seeds, and ``words_generator`` seeds a
``Generator`` from four state words. NumPy stays the oracle:

- the words equal ``SeedSequence(e).generate_state(4, np.uint64)`` for
  int entropy anywhere in ``[0, 2**63)`` (edges included) and for
  ``(base, index)`` pairs, with ``base`` one word or two (a one-word base
  moves the index word);
- the generators built from spawned words equal
  ``spawn_child(as_generator(seed), i)`` in bit-generator state and in
  their next normals;
- every row handed to ``PCG64`` is C-contiguous. ``PCG64`` reads the
  raw buffer of the array its seed sequence returns, so a strided view
  of the same four words seeds another stream, which is checked here too.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence

from repro.utils import rng as rng_module
from repro.utils.rng import (
    as_generator,
    spawn_child,
    spawned_state_words,
    state_words,
    words_generator,
)

INT_EDGES = (0, 1, 2**32 - 1, 2**32, 2**63 - 1)
seeds = st.integers(min_value=0, max_value=2**63 - 1)


def _oracle(entropy):
    return np.random.SeedSequence(entropy).generate_state(4, np.uint64)


@settings(max_examples=300, deadline=None)
@given(st.lists(seeds, min_size=1, max_size=8))
@example(list(INT_EDGES))
def test_int_entropy_words_equal_seed_sequence(entropy):
    words = state_words(entropy)
    assert words.shape == (len(entropy), 4) and words.dtype == np.uint64
    for row, e in zip(words, entropy):
        assert row.tobytes() == _oracle(e).tobytes()


bases = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**63 - 1),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(bases, min_size=1, max_size=8), st.sampled_from([0, 1]))
@example([0, 1, 2**32 - 1, 2**32, 2**63 - 2], 0)
@example([0, 1, 2**32 - 1, 2**32, 2**63 - 2], 1)
def test_pair_entropy_words_equal_seed_sequence(base, index):
    words = state_words(base, index)
    for row, b in zip(words, base):
        assert row.tobytes() == _oracle((b, index)).tobytes()


def test_a_one_word_base_moves_the_index_word():
    # (5, 1) is the entropy [5, 1]; a fixed (lo, hi, index) layout would
    # hash [5, 0, 1], which is the entropy of (5, 0, 1), not of (5, 1).
    assert state_words([5], 1)[0].tobytes() == _oracle((5, 1)).tobytes()
    assert _oracle((5, 1)).tobytes() != _oracle((5, 0, 1)).tobytes()


@pytest.fixture
def handed(monkeypatch):
    """Every array a precomputed seed sequence hands to ``PCG64``."""
    rows = []
    generate = rng_module._StateWords.generate_state

    def recording(self, n_words, dtype=np.uint32):
        out = generate(self, n_words, dtype)
        rows.append(out)
        return out

    monkeypatch.setattr(rng_module._StateWords, "generate_state", recording)
    return rows


@settings(max_examples=100, deadline=None)
@given(st.lists(seeds, min_size=1, max_size=6))
@example(list(INT_EDGES))
def test_spawned_generators_equal_spawn_child(entropy):
    words = spawned_state_words(entropy, 2)
    assert words.shape == (len(entropy), 2, 4)
    for seed, pair in zip(entropy, words):
        parent = as_generator(seed)
        for i in range(2):
            reference = spawn_child(parent, i)
            ours = words_generator(pair[i])
            assert ours.bit_generator.state == reference.bit_generator.state
            assert ours.normal(0.0, 0.01, 3).tobytes() == reference.normal(0.0, 0.01, 3).tobytes()


def test_every_row_handed_to_pcg64_is_c_contiguous(handed):
    words = spawned_state_words(list(INT_EDGES), 2)
    for pair in words:
        for row in pair:
            assert row.flags.c_contiguous
            words_generator(row)
    # The parents' generators are built inside the helper, the children's here.
    assert len(handed) == 3 * len(INT_EDGES)
    for out in handed:
        assert out.flags.c_contiguous and out.dtype == np.uint64 and out.shape == (4,)


class _RawWords(ISeedSequence):
    """Hands ``PCG64`` whatever array it is given, as it is."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def test_a_strided_view_of_the_same_words_seeds_another_stream():
    row = state_words([2023])[0]
    strided = np.stack([row, row[::-1]], axis=1)[:, 0]
    assert strided.tobytes() == row.tobytes() and not strided.flags.c_contiguous
    reference = np.random.default_rng(2023).bit_generator.state
    assert np.random.PCG64(_RawWords(row)).state == reference
    assert np.random.PCG64(_RawWords(strided)).state != reference
    # words_generator copies such a view into a contiguous row first.
    assert words_generator(strided).bit_generator.state == reference


def test_precomputed_words_seed_only_a_pcg64():
    with pytest.raises(ValueError, match="PCG64"):
        np.random.MT19937(rng_module._StateWords(state_words([1])[0]))


def test_words_of_another_shape_are_refused():
    for bad in (state_words([1, 2]), state_words([1])[0][:3]):
        with pytest.raises(ValueError, match="4 state words"):
            words_generator(bad)
