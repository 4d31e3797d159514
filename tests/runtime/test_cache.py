"""Unit tests for the content-addressed result cache."""

import json

import pytest

from repro.hw.specs import make_mi100_spec, make_v100_spec, scale_spec
from repro.runtime.cache import CACHE_SCHEMA_VERSION, CanonicalJSON, ResultCache, SweepKeys
from repro.runtime.seeding import canonical_json


def _payload(spec, freq=1282.1, seed=7):
    return {
        "device": spec.signature(),
        "app": {"type": "toy", "config": {"n": 3}},
        "point": freq,
        "repetitions": 2,
        "seed": seed,
        "ideal_sensors": False,
    }


class TestKeys:
    def test_key_stable(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_v100_spec()
        assert cache.key_for(_payload(spec)) == cache.key_for(_payload(spec))

    def test_key_includes_device_spec(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key_for(_payload(make_v100_spec())) != cache.key_for(
            _payload(make_mi100_spec())
        )

    def test_key_changes_on_spec_recalibration(self, tmp_path):
        """Any spec change — even one scaled coefficient — invalidates."""
        cache = ResultCache(tmp_path)
        spec = make_v100_spec()
        tweaked = scale_spec(spec, bandwidth=1.01)
        assert cache.key_for(_payload(spec)) != cache.key_for(_payload(tweaked))

    def test_key_changes_on_point_and_seed(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_v100_spec()
        base = cache.key_for(_payload(spec))
        assert base != cache.key_for(_payload(spec, freq=135.0))
        assert base != cache.key_for(_payload(spec, seed=8))


class TestStoreAndStats:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"k": 1})
        value = {"time_s": 1.5, "rep_times_s": [1.4, 1.6]}
        cache.put(key, value, key_payload={"k": 1})
        assert cache.get(key) == value
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1
        assert cache.stats.bytes_written > 0
        assert cache.stats.bytes_read > 0

    def test_miss_on_empty(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"k": 2})
        cache.put(key, {"v": 1})
        cache.path_for(key).write_text("{ torn json")
        assert cache.get(key) is None

    def test_wrong_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"k": 3})
        cache.put(key, {"v": 1})
        record = json.loads(cache.path_for(key).read_text())
        record["schema"] = CACHE_SCHEMA_VERSION + 1
        cache.path_for(key).write_text(json.dumps(record))
        assert cache.get(key) is None

    def test_entry_layout_and_count(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"k": 4})
        cache.put(key, {"v": 1})
        path = cache.path_for(key)
        assert path.parent.name == key[:2]
        assert path.exists()
        assert cache.entry_count() == 1


class TestDigestValidation:
    """Schema v2: every entry carries a value digest, checked on read."""

    def test_entries_store_value_digest(self, tmp_path):
        from repro.runtime.seeding import stable_digest

        cache = ResultCache(tmp_path)
        key = cache.key_for({"k": 5})
        value = {"time_s": 1.5}
        cache.put(key, value)
        record = json.loads(cache.path_for(key).read_text())
        assert record["schema"] == CACHE_SCHEMA_VERSION == 2
        assert record["digest"] == stable_digest(value)

    def test_tampered_value_detected_and_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"k": 6})
        cache.put(key, {"time_s": 1.5})
        path = cache.path_for(key)
        record = json.loads(path.read_text())
        record["value"]["time_s"] = 99.0  # valid JSON, wrong bits
        path.write_text(json.dumps(record))
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        # The poisoned file is unlinked so it can never be served later.
        assert not path.exists()

    def test_recompute_after_corruption_self_heals(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"k": 7})
        cache.put(key, {"time_s": 1.5})
        cache.path_for(key).write_text("{ torn json")
        assert cache.get(key) is None
        # The engine's recompute path: put again, then reads hit cleanly.
        cache.put(key, {"time_s": 1.5})
        assert cache.get(key) == {"time_s": 1.5}
        assert cache.stats.corrupt == 0  # torn JSON counts as plain miss

    def test_missing_digest_field_is_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"k": 8})
        cache.put(key, {"v": 1})
        path = cache.path_for(key)
        record = json.loads(path.read_text())
        del record["digest"]
        path.write_text(json.dumps(record))
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1


def _damage_value(cache, key, value_json, digest="0" * 64):
    """Rewrite ``key``'s entry with ``value_json`` spliced in as its value."""
    cache.path_for(key).write_text(
        '{"digest":"%s","format":"repro.campaign_point","schema":%d,"value":%s}'
        % (digest, CACHE_SCHEMA_VERSION, value_json)
    )


class TestDamagedEntries:
    """Entries no put could have written are corrupt misses, never errors."""

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_value_is_a_corrupt_miss(self, tmp_path, token):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"k": 9})
        cache.put(key, {"time_s": 1.5})
        _damage_value(cache, key, '{"time_s":%s}' % token)
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1 and cache.stats.misses == 1
        assert not cache.path_for(key).exists()

    def test_null_digest_over_undigestable_value_is_a_corrupt_miss(self, tmp_path):
        # A value with no digest must not match a missing digest either.
        cache = ResultCache(tmp_path)
        key = cache.key_for({"k": 10})
        cache.path_for(key).parent.mkdir(parents=True)
        cache.path_for(key).write_text(
            '{"format":"repro.campaign_point","schema":%d,"value":NaN}' % CACHE_SCHEMA_VERSION
        )
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1

    @pytest.mark.parametrize("depth", [700, 100_000])
    def test_deeply_nested_value_is_a_corrupt_miss(self, tmp_path, depth):
        # 700 levels parse but are too deep to digest; 100,000 do not parse.
        cache = ResultCache(tmp_path)
        key = cache.key_for({"k": 11})
        cache.put(key, {"time_s": 1.5})
        _damage_value(cache, key, "[" * depth + "]" * depth)
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1 and cache.stats.misses == 1
        assert not cache.path_for(key).exists()
        cache.put(key, {"time_s": 1.5})
        assert cache.get(key) == {"time_s": 1.5}


class TestSweepKeys:
    def test_put_stores_an_encoded_payload_as_the_dict_would_be(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = _payload(make_v100_spec())
        cache.put("a" * 64, {"time_s": 1.5, "rep_times_s": [1.4, 1.6]}, payload)
        cache.put("b" * 64, {"time_s": 1.5, "rep_times_s": [1.4, 1.6]}, CanonicalJSON.of(payload))
        raw = cache.path_for("a" * 64).read_bytes()
        assert raw == cache.path_for("b" * 64).read_bytes()
        record = json.loads(raw)
        assert raw == canonical_json(record).encode("utf-8")
        assert record["key"] == json.loads(canonical_json(payload))

    @pytest.mark.parametrize("name", ["point", "pointer", "repetitions", "sensor_mode", "seed"])
    def test_shared_fields_must_sort_before_point(self, name):
        with pytest.raises(ValueError, match="sort before 'point'"):
            SweepKeys({"app": 1, name: 2})

