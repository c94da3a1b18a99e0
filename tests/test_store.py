"""The shared persistence primitives: canonical JSON, digests, atomic writes."""

import json
import os

import pytest

from repro import store


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert store.canonical_json({"b": [1, 2], "a": "é"}) == '{"a":"\\u00e9","b":[1,2]}'

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            store.canonical_json({"x": value})

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"])
    def test_rejects_non_json_objects(self, value):
        with pytest.raises(TypeError):
            store.canonical_json({"x": value})


class TestDigest:
    @pytest.mark.parametrize("hexchars", [1, 12, 16, 64])
    @pytest.mark.parametrize("data", ["text", b"bytes", ""])
    def test_length_and_alphabet(self, data, hexchars):
        out = store.digest(data, hexchars)
        assert len(out) == hexchars
        assert set(out) <= set("0123456789abcdef")

    def test_text_is_utf8_of_bytes(self):
        assert store.digest("é", 64) == store.digest("é".encode(), 64)
        assert store.digest("a", 16) == store.digest("a", 64)[:16]


class TestAtomicWrite:
    def test_replaces_content_and_creates_parent(self, tmp_path):
        target = tmp_path / "sub" / "entry.json"
        assert store.atomic_write(target, "old") == target
        store.atomic_write(target, b"new")
        assert target.read_bytes() == b"new"
        assert os.listdir(target.parent) == ["entry.json"]

    def test_failed_replace_keeps_previous_bytes(self, tmp_path, monkeypatch):
        target = tmp_path / "entry.json"
        target.write_bytes(b"previous")

        def boom(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(store.os, "replace", boom)
        with pytest.raises(OSError, match="disk gone"):
            store.atomic_write(target, b"replacement")
        assert target.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["entry.json"]  # no tmp left behind


class TestWriteJsonl:
    def test_line_count_and_strict_objects(self, tmp_path):
        records = [{"b": 1, "a": None}, {"record": "x", "v": [1.5, True]}]
        path = tmp_path / "out" / "records.jsonl"
        assert store.write_jsonl(path, iter(records)) == 2
        lines = path.read_text().splitlines()
        assert lines[0] == '{"b": 1, "a": null}'  # insertion order kept
        assert [json.loads(line) for line in lines] == records

    def test_non_finite_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("kept\n")
        with pytest.raises(ValueError):
            store.write_jsonl(path, [{"ok": 1}, {"bad": float("nan")}])
        assert path.read_text() == "kept\n"


def test_default_cache_dir(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_EBDA_CACHE_DIR", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert store.default_cache_dir() == tmp_path / "repro-ebda"
    monkeypatch.setenv("REPRO_EBDA_CACHE_DIR", str(tmp_path / "env"))
    assert store.default_cache_dir() == tmp_path / "env"
