"""Tests for the content-addressed result store."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.campaign.store import ResultStore, canonical_json, unit_key


SPEC = {"v": 1, "kind": "experiment", "experiment": "E1", "scale": "quick",
        "seed": 7, "trials": None, "stream": "replay"}


class TestCanonicalisation:
    def test_key_is_order_insensitive(self):
        shuffled = dict(reversed(list(SPEC.items())))
        assert unit_key(SPEC) == unit_key(shuffled)

    def test_key_is_a_sha256_hex(self):
        key = unit_key(SPEC)
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_different_specs_different_keys(self):
        assert unit_key(SPEC) != unit_key({**SPEC, "seed": 8})
        assert unit_key(SPEC) != unit_key({**SPEC, "scale": "full"})
        assert unit_key(SPEC) != unit_key({**SPEC, "stream": "native/cs64"})

    def test_tuple_and_list_params_alias(self):
        a = {"kind": "sweep-point", "params": {"ns": (1, 2)}}
        b = {"kind": "sweep-point", "params": {"ns": [1, 2]}}
        assert unit_key(a) == unit_key(b)

    def test_numpy_scalars_alias_python_scalars(self):
        a = {"kind": "x", "n": np.int64(5), "p": np.float64(0.25)}
        b = {"kind": "x", "n": 5, "p": 0.25}
        assert unit_key(a) == unit_key(b)

    def test_nonfinite_floats_canonicalise(self):
        text = canonical_json({"a": math.inf, "b": math.nan})
        assert json.loads(text) == {"a": "inf", "b": "nan"}


class TestStoreRoundTrip:
    def test_put_get(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = store.put(SPEC, {"rows": [{"n": 1}]}, label="E1", elapsed=0.5)
        assert key == unit_key(SPEC)
        assert key in store
        payload = store.get(key)
        assert payload["result"] == {"rows": [{"n": 1}]}
        assert payload["spec"] == SPEC
        assert payload["meta"]["elapsed"] == 0.5
        assert store.get_result(key) == {"rows": [{"n": 1}]}

    def test_missing_key(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        absent = "0" * 64
        assert absent not in store
        assert store.get(absent) is None

    @pytest.mark.parametrize("key", [
        "not-a-key", "a" * 63, "a" * 65, "A" * 64, "a" * 63 + "g",
        "a" * 64 + "\n", "../" + "a" * 61])
    def test_malformed_key_rejected(self, tmp_path, key):
        store = ResultStore(tmp_path / "s")
        with pytest.raises(ValueError):
            store.object_path(key)

    def test_overwrite_replaces(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put(SPEC, {"value": 1})
        key = store.put(SPEC, {"value": 2})
        assert store.get_result(key) == {"value": 2}
        assert len(store) == 1

    def test_delete(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = store.put(SPEC, {"value": 1})
        assert store.delete(key)
        assert key not in store
        assert not store.delete(key)

    def test_keys_and_len(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        keys = {store.put({**SPEC, "seed": s}, {"s": s}) for s in range(4)}
        assert store.keys() == keys
        assert len(store) == 4

    def test_index_rows_carry_labels(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put(SPEC, {}, label="E1", elapsed=0.25)
        (row,) = store.rows()
        assert row["label"] == "E1"
        assert row["kind"] == "experiment"
        assert row["elapsed"] == 0.25

    def test_reopen_persists(self, tmp_path):
        key = ResultStore(tmp_path / "s").put(SPEC, {"value": 3})
        reopened = ResultStore(tmp_path / "s")
        assert reopened.get_result(key) == {"value": 3}


class TestCrashRecovery:
    def test_reconcile_recovers_unindexed_object(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = store.put(SPEC, {"value": 1}, label="E1")
        # Simulate a crash between object publish and index insert by
        # wiping the index row.
        with store.backend.transaction() as db:
            db.execute("DELETE FROM units")
        assert store.rows() == []
        recovered, dropped = store.reconcile()
        assert (recovered, dropped) == (1, 0)
        assert [row["key"] for row in store.rows()] == [key]

    def test_reconcile_drops_dangling_index_row(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = store.put(SPEC, {"value": 1})
        store.object_path(key).unlink()  # object vanished, row remains
        recovered, dropped = store.reconcile()
        assert (recovered, dropped) == (0, 1)
        assert store.rows() == []
        assert key not in store

    def test_get_never_serves_dangling_rows(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = store.put(SPEC, {"value": 1})
        store.object_path(key).unlink()
        assert store.get(key) is None

    def test_corrupt_object_detected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        key = store.put(SPEC, {"value": 1})
        other = dict(SPEC, seed=99)
        store.object_path(key).write_text(
            json.dumps({"key": unit_key(other), "spec": other,
                        "result": {}, "meta": {}}))
        with pytest.raises(ValueError, match="key mismatch"):
            store.get(key)
