"""Task identity pins: cache keys, task seeds and entry bytes never move.

The engine hashes the parts of a cache key and of a task seed that every
point of an (app, device) sweep shares once per sweep
(:class:`repro.runtime.cache.SweepKeys`,
:class:`repro.runtime.seeding.TaskSeeder`). Users' caches stay warm only
while that path gives exactly what the one-payload API gives
(:meth:`ResultCache.key_for`, :func:`derive_task_seed`), so:

- ``PINS`` holds the entry names (keys), task seeds and entry SHA-256s
  that four small campaigns wrote when every point was still keyed
  through ``key_for`` and seeded through ``derive_task_seed``. They cover
  the V100 and the A100; Cronos, LiGen and MHD; baseline, core-clock and
  ``"<core>|mem<mem>"`` points; a non-result-preserving fault plan; and
  ideal sensors. Never regenerate them: a key or seed that moves is a
  cache every user has to rebuild (bump ``CACHE_SCHEMA_VERSION`` if that
  is the intent). The entry digests also pin the measured values.
- hypothesis draws such campaigns and requires every entry to carry the
  key ``key_for`` gives its payload, as rebuilt here field by field, and
  the seed ``derive_task_seed`` gives, in canonical bytes; it also checks
  ``SweepKeys`` and ``TaskSeeder`` against the oracles on any input, and
  that every value ``put`` writes reads back as a hit.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cronos.app import CronosApplication
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw.specs import make_a100_spec, make_v100_spec
from repro.ligen.app import LigenApplication
from repro.mhd.app import MhdApplication
from repro.runtime.cache import CanonicalJSON, ResultCache, SweepKeys
from repro.runtime.engine import CampaignEngine, app_fingerprint
from repro.runtime.seeding import TaskSeeder, canonical_json, derive_task_seed

OUTLIERS = FaultPlan(seed=3, specs=(FaultSpec(kind="sensor_outlier", probability=0.5),))
RETRIES = FaultPlan(seed=5, specs=(FaultSpec(kind="worker_crash", occurrences=(0,)),))


def _campaigns():
    """``name -> (engine kwargs, run(engine))`` of the pinned campaigns."""
    v100, a100 = make_v100_spec(), make_a100_spec()
    return {
        "v100-cronos-ligen": (
            dict(campaign_seed=0),
            lambda e: e.characterize_many(
                [CronosApplication.from_size(10, 4, 4, n_steps=2), LigenApplication(256, 31, 4)],
                v100, freqs_mhz=[135.0, 1597.0], repetitions=2,
            ),
        ),
        "a100-mhd-grid": (
            dict(campaign_seed=1),
            lambda e: e.characterize_grid(
                [MhdApplication.from_size(6, 12, 8, n_steps=2)], a100,
                freqs_mhz=[210.0, 1410.0], mem_freqs_mhz=[810.0, 1215.0], repetitions=2,
            ),
        ),
        "v100-ligen-outliers": (
            dict(campaign_seed=42, fault_plan=OUTLIERS),
            lambda e: e.characterize(
                LigenApplication(16, 31, 4), v100, freqs_mhz=[900.0], repetitions=2
            ),
        ),
        "a100-cronos-ideal": (
            dict(campaign_seed=7, ideal_sensors=True),
            lambda e: e.characterize(
                CronosApplication.from_size(10, 4, 4, n_steps=1), a100,
                freqs_mhz=[600.0], repetitions=1,
            ),
        ),
    }


#: ``(key, point, seed, sha256 of the entry bytes)`` per entry, by key.
PINS = {
    "v100-cronos-ligen": (
        ("35e3b54a9576d2183fa608c6c5889dcca5841592e9aaf9433a5a3201d0eeeed2", 1597.0,
         3291947583572750853, "990a0341ecfb079d836c2fccca8cc2d8a52cf2497ce01c9cc1572ab8060737fc"),
        ("5ea48f8504dbe79ac8a9b3f515ca2d5c3d21bfdfd0fb611762b9c735ebd59511", "baseline",
         3215190176847650179, "4dbfd948a870f37d4c40c6dc274bd3fa53d3be813d0fe9db7e9c0dce9ddc8a4c"),
        ("70f0e28503d4b7728fda41310fcc92a3112f3d405716245774c2ad8e68ce1d95", 135.0,
         2509446603133250434, "53c2ce6f401756787f97b14334d0bbfb59d0a5778c061d6df1ad868d9bdcd21d"),
        ("8d9618e382b880b9f6a0907e8599eb4049a81f2c1cc493202c766043437db0bb", 1597.0,
         471250796753123700, "200df35e868d17dfcd0135e8f3ff9db802e5cb18f7e79ec96f9059a4e46c98c3"),
        ("c881796981c570b8be7df5ce43e62bb029b3bd14563d927199232f50b7245ac1", 135.0,
         555838198940787534, "5573be01dae74c2880973aee65772c29bb74e843c399a2358bf164f733ed6a9a"),
        ("cd02b576b3fba11fc2ae2db4a190fd3e36e8a26aa82ef58a65cc2248cd1b4803", "baseline",
         3673735853668338011, "81da6cc28b3833b349911ec72e775613c19bd5e3857010c6f9bed46f07daba82"),
    ),
    "a100-mhd-grid": (
        ("443c2a4401378b6970ac8941b9af61e656457af8e81bce581ecb698ae89c8484", 1410.0,
         4217041596479059054, "03fbb50084735ae569ef5ce6de4baafaf4c68475d83f2e861e78ee4398e51594"),
        ("6182bc87c71ee05d2e4ccd20daa09d34cb5d9e5e5dfa17e278f11304a80204e6", 210.0,
         7887478538814745769, "074ee640834d42443369fd176d1473ba676e6a8a872349f8618325319fdc22a1"),
        ("6bd204dfe35037b47125e442412f8f0fc4a0b066d8996e3a6f2c5cfb8991fdb9", "210.0|mem810.0",
         5418434367514050388, "79eec3f4d699b23b62cb5ff4e75ce56fb8fb7943a0d1aae570eaccc2933a8c88"),
        ("6cc6be2f222d95980587283c9290385af047b581553c5f11d7b1164a9c53b52e", "baseline",
         2711278136876294796, "47ed7f9b8024d08d6ac42e0482f8f3764a754fb4b5ed208f83a5441b34f8335d"),
        ("eb38d995e2325227639872bc4c3805756ada33d94ae9b2130d74700b09226203", "1410.0|mem810.0",
         5719910108167749634, "a7e7ab544cc2badbb696b2b5e514c50e8ba5dd6225868b3b65596a08f11f69ce"),
    ),
    "v100-ligen-outliers": (
        ("30462c878d21e317cf910ff0db8d093eba3b61f07d882702285da268b56e538b", "baseline",
         2858150410263806085, "a919e807ea67d9d5a24a2b2210c10948f99bd0dd794ab7b83839fb4e9e44a842"),
        ("e6b8be48890b67c4473dddefc301669df6aa0aa95f34707e8053a286f634910f", 899.7384615384616,
         8858587010871394483, "59001e3146a9f1b26c7c77864676c0466e9225619cdb43c2a1c0ea98a9458812"),
    ),
    "a100-cronos-ideal": (
        ("65908b8b243b0188e6bfb57e8804d014d27d057c08c73efc527db895ffd2e521", "baseline",
         1904916306003524694, "08764cd75aedd697c00e8bf5008182a5c86acc2fd00275498db3673bbcd06f32"),
        ("f54635f4608b45146e1be3375c92a15ff3a61715a043fdaab9881195767b38bd", 600.0,
         4040698019134458492, "ed738b5fbf37139ec201d47a38b4c63cb2a054f46834b9fea27dc2f99f3cd887"),
    ),
}

#: ``CampaignStats`` launch counters of the same runs: launches recorded,
#: unique launches, batched and serial-equivalent model evaluations.
LAUNCH_PINS = {
    "v100-cronos-ligen": (27, 6, 18, 162),
    "a100-mhd-grid": (9, 4, 20, 90),
    "v100-ligen-outliers": (2, 2, 4, 8),
    "a100-cronos-ideal": (13, 4, 8, 26),
}


def _entries(root):
    """``[(key, record, raw bytes)]`` of every entry under ``root``, by key."""
    out = []
    for path in sorted(Path(root).glob("??/*.json")):
        raw = path.read_bytes()
        out.append((path.stem, json.loads(raw), raw))
    return out


@pytest.mark.parametrize("name", sorted(PINS))
def test_engine_writes_the_pinned_keys_seeds_and_bytes(tmp_path, name):
    kwargs, run = _campaigns()[name]
    engine = CampaignEngine(jobs=1, cache=ResultCache(tmp_path), method="replay", **kwargs)
    run(engine)
    written = tuple(
        (key, record["key"]["point"], record["key"]["seed"], hashlib.sha256(raw).hexdigest())
        for key, record, raw in _entries(tmp_path)
    )
    assert written == PINS[name]
    stats = engine.stats
    assert (
        stats.launches_recorded,
        stats.unique_launches,
        stats.launch_evals_replay,
        stats.launch_evals_serial_equivalent,
    ) == LAUNCH_PINS[name]


# -- hypothesis: engine keys and seeds equal the one-payload oracles ---------

_SPECS = {"v100": make_v100_spec(), "a100": make_a100_spec()}
_APPS = {
    "cronos": lambda n: CronosApplication.from_size(10, 4, 4, n_steps=n),
    "ligen": lambda n: LigenApplication(16 * n, 31, 4),
    "mhd": lambda n: MhdApplication.from_size(6, 12, 8, n_steps=n),
}
_PLANS = {"none": None, "retries": RETRIES, "outliers": OUTLIERS}

campaign_st = st.fixed_dictionaries(
    {
        "device": st.sampled_from(sorted(_SPECS)),
        "app": st.sampled_from(sorted(_APPS)),
        "size": st.integers(1, 2),
        "core": st.integers(0, 10_000),
        "mem": st.integers(0, 10_000),
        "repetitions": st.integers(1, 3),
        "campaign_seed": st.integers(0, 2**63 - 1),
        "ideal_sensors": st.booleans(),
        "plan": st.sampled_from(sorted(_PLANS)),
    }
)


def _expected_payload(draw, app, point, seed):
    """The key payload the engine has always hashed, field by field."""
    payload = {
        "device": _SPECS[draw["device"]].signature(),
        "app": app_fingerprint(app),
        "point": point,
        "repetitions": draw["repetitions"],
        "seed": seed,
        "ideal_sensors": draw["ideal_sensors"],
    }
    plan = _PLANS[draw["plan"]]
    if plan is not None and not plan.result_preserving:
        payload["fault_plan"] = plan.fingerprint()
    return payload


@given(campaign_st)
@settings(max_examples=25, deadline=None)
def test_engine_keys_and_seeds_equal_the_one_payload_api(draw):
    spec = _SPECS[draw["device"]]
    app = _APPS[draw["app"]](draw["size"])
    cores = list(spec.core_freqs.freqs_mhz)
    core = float(cores[draw["core"] % len(cores)])
    mems = list(spec.mem_freq_table.freqs_mhz)
    mem = float(mems[draw["mem"] % len(mems)])
    plan = _PLANS[draw["plan"]]
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        engine = CampaignEngine(
            jobs=1, cache=cache, campaign_seed=draw["campaign_seed"],
            ideal_sensors=draw["ideal_sensors"], method="replay",
            fault_plan=plan, max_retries=1,
        )
        engine.characterize_grid(
            [app], spec, freqs_mhz=[core], mem_freqs_mhz=[mem],
            repetitions=draw["repetitions"],
        )
        entries = _entries(root)
    points = {"baseline", core if mem == spec.mem_freq_mhz else f"{core}|mem{mem}"}
    assert {record["key"]["point"] for _, record, _ in entries} == points
    for key, record, raw in entries:
        point = record["key"]["point"]
        seed = derive_task_seed(draw["campaign_seed"], app_fingerprint(app), point)
        assert record["key"]["seed"] == seed
        assert key == cache.key_for(_expected_payload(draw, app, point, seed))
        assert raw == canonical_json(record).encode("utf-8")


# -- hypothesis: the per-sweep primitives equal the oracles on any input -----

json_st = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
head_name_st = st.text(max_size=8).filter(lambda name: name < "point")
point_st = (
    st.just("baseline")
    | st.floats(0.0, 5000.0)
    | st.builds(lambda c, m: f"{c}|mem{m}", st.floats(0.0, 5000.0), st.floats(0.0, 5000.0))
)


@given(
    fields=st.dictionaries(head_name_st, json_st, max_size=4),
    encoded=st.booleans(),
    point=point_st,
    repetitions=st.integers(1, 10),
    seed=st.integers(0, 2**63 - 1),
)
@settings(max_examples=200, deadline=None)
def test_sweep_keys_equal_key_for(fields, encoded, point, repetitions, seed):
    shared = {k: CanonicalJSON.of(v) for k, v in fields.items()} if encoded else fields
    key, payload_json = SweepKeys(shared).key(point, repetitions, seed)
    payload = {**fields, "point": point, "repetitions": repetitions, "seed": seed}
    assert key == ResultCache("unused").key_for(payload)
    assert payload_json == canonical_json(payload)


@given(
    campaign_seed=st.integers(0, 2**63 - 1),
    prefix=st.lists(json_st, max_size=2),
    parts=st.lists(point_st, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_task_seeder_equals_derive_task_seed(campaign_seed, prefix, parts):
    seeder = TaskSeeder(campaign_seed, *prefix)
    assert seeder.seed(*parts) == derive_task_seed(campaign_seed, *prefix, *parts)


@given(value=json_st)
@settings(max_examples=150, deadline=None)
def test_any_value_put_is_read_back_as_a_hit(value):
    # The read side re-derives the digest put stored, for every JSON value.
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        cache.put("c" * 64, value, {"k": 1})
        assert cache.get("c" * 64) == value
        assert cache.stats.hits == 1 and cache.stats.corrupt == 0
