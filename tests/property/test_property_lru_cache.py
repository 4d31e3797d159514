"""Property test: the advice cache is exact LRU at every capacity.

``PredictionCache`` is driven side by side with a reference LRU built on
one ``OrderedDict``. Capacities run past the small-cache sizes a
hand-written test would pick, so any eviction that is not globally
least-recent shows up as a differing lookup, length or eviction count.
"""

import random
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import PredictionCache


class _ReferenceLRU:
    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.evictions = 0

    def get(self, key):
        if key not in self.entries:
            return None
        self.entries.move_to_end(key)
        return self.entries[key]

    def put(self, key, value):
        self.entries[key] = value
        self.entries.move_to_end(key)
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_cache_matches_reference_lru(capacity, seed):
    rng = random.Random(seed)
    cache = PredictionCache(capacity)
    reference = _ReferenceLRU(capacity)
    n_keys = rng.randint(1, 2 * capacity)
    for step in range(3 * capacity):
        key = f"key-{rng.randrange(n_keys)}"
        if rng.random() < 0.6:
            cache.put(key, step)
            reference.put(key, step)
        else:
            assert cache.get(key) == reference.get(key)
        assert len(cache) == len(reference.entries)
        assert cache.evictions == reference.evictions
