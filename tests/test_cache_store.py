"""Storage layers: entry codec, disk round-trip, recovery."""

import json
import os

import pytest

from repro.cache.store import (
    SCHEMA_VERSION,
    CacheDecodeError,
    CacheEntry,
    PersistentStore,
)


def entry(sig: str, **overrides) -> CacheEntry:
    fields = dict(
        signature=sig,
        workload="G1",
        gpu="A100",
        variant="mcfuser",
        expr="mhnk",
        tiles={"m": 64, "n": 64, "k": 64, "h": 32},
        optimized=True,
        best_time=6.3e-6,
        tuning_seconds=42.0,
    )
    fields.update(overrides)
    return CacheEntry(**fields)


class TestEntryCodec:
    def test_round_trip(self):
        original = entry("a" * 32, hits=3)
        restored = CacheEntry.from_json(original.to_json())
        assert restored == original

    def test_json_serializable(self):
        json.dumps(entry("a" * 32).to_json())

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda d: d.pop("expr"),
            lambda d: d.pop("tiles"),
            lambda d: d.update(best_time="fast"),
            lambda d: d.update(tiles="mhnk"),
            lambda d: d.update(best_time=-1.0),
            lambda d: d.update(signature=""),
        ],
    )
    def test_malformed_entries_rejected(self, mutation):
        data = entry("a" * 32).to_json()
        mutation(data)
        with pytest.raises(CacheDecodeError):
            CacheEntry.from_json(data)

    def test_non_dict_rejected(self):
        with pytest.raises(CacheDecodeError):
            CacheEntry.from_json(["not", "an", "entry"])


class TestPersistentStore:
    def test_round_trip_across_instances(self, tmp_path):
        path = tmp_path / "cache.json"
        store = PersistentStore(path)
        store.put(entry("sig1"))
        reopened = PersistentStore(path)
        got = reopened.get("sig1")
        assert got is not None
        assert got.expr == "mhnk" and got.tiles == {"m": 64, "n": 64, "k": 64, "h": 32}

    def test_hit_counters_persist(self, tmp_path):
        path = tmp_path / "cache.json"
        store = PersistentStore(path)
        store.record_miss()  # misses persist with the next flush (the put)
        store.put(entry("sig1"))
        store.record_hit(store.get("sig1"))
        reopened = PersistentStore(path)
        assert reopened.hits == 1 and reopened.misses == 1
        assert reopened.get("sig1").hits == 1

    def test_miss_alone_does_not_touch_disk(self, tmp_path):
        """A miss is counted lazily — no O(entries) rewrite per lookup."""
        path = tmp_path / "cache.json"
        store = PersistentStore(path)
        store.put(entry("sig1"))
        mtime = os.path.getmtime(path)
        store.record_miss()
        assert os.path.getmtime(path) == mtime
        assert store.misses == 1
        store.flush()  # any later flush settles the pending counter
        assert PersistentStore(path).misses == 1

    def test_concurrent_stores_merge_instead_of_overwriting(self, tmp_path):
        """Two store instances (≈ two warmup processes) on one file must
        both land their entries and counters."""
        path = tmp_path / "cache.json"
        a = PersistentStore(path)
        b = PersistentStore(path)
        a.put(entry("sig-a"))
        b.put(entry("sig-b"))  # must not clobber a's write
        b.record_hit(b.get("sig-b"))
        a.record_hit(a.get("sig-a"))
        merged = PersistentStore(path)
        assert merged.get("sig-a") is not None and merged.get("sig-b") is not None
        assert merged.hits == 2

    def test_corrupted_file_recovers(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{ this is not json")
        store = PersistentStore(path)
        assert len(store) == 0
        assert (tmp_path / "cache.json.corrupt").exists()
        store.put(entry("sig1"))  # store is usable after recovery
        assert PersistentStore(path).get("sig1") is not None

    def test_wrong_schema_version_discarded(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"schema": SCHEMA_VERSION + 1, "entries": {}}))
        store = PersistentStore(path)
        assert len(store) == 0
        assert (tmp_path / "cache.json.corrupt").exists()

    def test_malformed_entry_discards_store(self, tmp_path):
        path = tmp_path / "cache.json"
        doc = {
            "schema": SCHEMA_VERSION,
            "hits": 0,
            "misses": 0,
            "entries": {"sig1": {"signature": "sig1"}},  # missing fields
        }
        path.write_text(json.dumps(doc))
        assert len(PersistentStore(path)) == 0

    def test_eviction_drops_least_recently_used(self, tmp_path):
        store = PersistentStore(tmp_path / "cache.json", max_entries=3)
        for i in range(3):
            store.put(entry(f"sig{i}", last_used=float(i)))
        store.put(entry("sig9", last_used=100.0))
        assert len(store) == 3
        assert store.get("sig0") is None  # oldest evicted
        assert store.get("sig9") is not None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = PersistentStore(tmp_path / "cache.json")
        store.put(entry("sig1"))
        leftovers = [f for f in os.listdir(tmp_path) if ".tmp." in f]
        assert leftovers == []

    def test_clear_removes_file(self, tmp_path):
        path = tmp_path / "cache.json"
        store = PersistentStore(path)
        store.put(entry("sig1"))
        assert path.exists()
        store.clear()
        assert not path.exists() and len(store) == 0

    def test_unwritable_directory_degrades_silently(self, tmp_path):
        missing = tmp_path / "file"
        missing.write_text("x")  # a *file*, so path/"sub" can never be created
        store = PersistentStore(missing / "sub" / "cache.json")
        store.put(entry("sig1"))  # must not raise
        assert store.get("sig1") is not None  # still works in memory

    def test_entries_sorted_most_recent_first(self, tmp_path):
        store = PersistentStore(tmp_path / "cache.json")
        store.put(entry("old", last_used=1.0))
        store.put(entry("new", last_used=2.0))
        assert [e.signature for e in store.entries()] == ["new", "old"]
