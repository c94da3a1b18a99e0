"""The shared persistence primitives: canonical JSON, digests, atomic
writes, and the strict readers every artifact loader goes through."""

import ast
import json
import os
from pathlib import Path

import pytest

from repro import store
from repro.errors import EbdaError

ROOT = Path(__file__).resolve().parents[1]


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

    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "records.jsonl"
        path.write_text("kept\n")

        def boom(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(store.os, "replace", boom)
        with pytest.raises(OSError, match="disk gone"):
            store.write_jsonl(path, [{"ok": 1}])
        assert path.read_text() == "kept\n"
        assert os.listdir(tmp_path) == ["records.jsonl"]  # no tmp left behind


def test_default_cache_dir(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_EBDA_CACHE_DIR", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert store.default_cache_dir() == tmp_path / "repro-ebda"
    monkeypatch.setenv("REPRO_EBDA_CACHE_DIR", str(tmp_path / "env"))
    assert store.default_cache_dir() == tmp_path / "env"


class TestReadJsonl:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n\n   \n{"b": [2.5]}\n')
        assert store.read_jsonl(path) == [{"a": 1}, {"b": [2.5]}]

    def test_round_trips_write_jsonl(self, tmp_path):
        records = [{"record": "x", "v": None}, {"record": "y", "w": [1, "é"]}]
        store.write_jsonl(tmp_path / "r.jsonl", records)
        assert store.read_jsonl(tmp_path / "r.jsonl") == records

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite(self, tmp_path, token):
        path = tmp_path / "r.jsonl"
        path.write_text(f'{{"ok": 1}}\n{{"x": {token}}}\n')
        with pytest.raises(EbdaError, match=f"{path}:2: .*strict JSON"):
            store.read_jsonl(path)

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "3", "null"])
    def test_rejects_non_object(self, tmp_path, line):
        path = tmp_path / "r.jsonl"
        path.write_text(f'{{"ok": 1}}\n\n{line}\n')
        with pytest.raises(EbdaError, match=f"{path}:3: not a JSON object"):
            store.read_jsonl(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"ok": 1}\n{"ok": 2}\n{broken\n')
        with pytest.raises(EbdaError, match=f"{path}:3: not valid JSON"):
            store.read_jsonl(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(EbdaError, match="cannot read .*absent.jsonl: file not found"):
            store.read_jsonl(tmp_path / "absent.jsonl")

    def test_directory_is_unreadable(self, tmp_path):
        with pytest.raises(EbdaError, match="cannot read"):
            store.read_jsonl(tmp_path)


class TestReadJson:
    def test_reads_one_object(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"a": [1, {"b": None}]}, indent=2))
        assert store.read_json(path) == {"a": [1, {"b": None}]}

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite(self, tmp_path, token):
        path = tmp_path / "d.json"
        path.write_text(f'{{"x": {token}}}')
        with pytest.raises(EbdaError, match="strict JSON"):
            store.read_json(path)

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("[1, 2]")
        with pytest.raises(EbdaError, match="not a JSON object"):
            store.read_json(path)

    def test_decode_error_names_its_line(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{\n  "a": 1,\n  oops\n}\n')
        with pytest.raises(EbdaError, match=f"{path}:3: not valid JSON"):
            store.read_json(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(EbdaError, match="cannot read .*: file not found"):
            store.read_json(tmp_path / "absent.json")


def _cli_exists(path):
    from repro.cli import build_parser

    args = build_parser().parse_args(["exists", str(path)])
    return args.func(args)


def _ledger_records(path):
    from repro.obs import RunLedger

    return RunLedger(path.parent).records()


def _loaders():
    from repro.analyze.baseline import load_baseline
    from repro.chaos.survival import load_survival
    from repro.chaos.workloads import load_workload
    from repro.fuzz.corpus import load_entry
    from repro.obs.heartbeat import load_heartbeat
    from repro.obs.trace import load_trace
    from repro.sim.metrics import load_metrics
    from tests.sim.test_metrics import validate as validate_metrics

    return {
        "metrics": load_metrics,
        "survival": load_survival,
        "workload": load_workload,
        "trace": load_trace,
        "ledger": _ledger_records,
        "heartbeat": load_heartbeat,
        "corpus": load_entry,
        "baseline": load_baseline,
        "cli-exists": _cli_exists,
        "metrics-validate": validate_metrics,
    }


class TestEveryLoaderIsStrict:
    """Each artifact loader reads through the store: same rule, same error."""

    @pytest.mark.parametrize("name", sorted(_loaders()))
    def test_nan_rejected(self, tmp_path, name):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"record": "meta", "schema": 1, "x": NaN}\n')
        with pytest.raises(EbdaError, match="strict JSON"):
            _loaders()[name](path)

    @pytest.mark.parametrize("name", sorted(set(_loaders()) - {"ledger"}))
    def test_missing_file(self, tmp_path, name):
        with pytest.raises(EbdaError, match="cannot read"):
            _loaders()[name](tmp_path / "absent.jsonl")

    def test_missing_ledger_is_empty(self, tmp_path):
        # A ledger that was never appended to has no records, not an error.
        assert _ledger_records(tmp_path / "ledger.jsonl") == []


#: The only modules allowed to parse JSON themselves: the store's strict
#: readers, the stdlib-only independent certificate checker, the result
#: cache (a corrupt entry is a miss, not an error) and the chaos campaign
#: (in-memory trial bytes, never a file).
JSON_PARSERS = {"store.py", "analyze/certcheck.py", "sim/parallel.py", "chaos/campaign.py"}


def test_no_json_parsing_outside_the_store():
    package = ROOT / "src" / "repro"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        if rel in JSON_PARSERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                parses = any(alias.name in ("load", "loads") for alias in node.names)
            else:
                parses = (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("load", "loads")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "json"
                )
            if parses:
                offenders.append(f"{rel}:{node.lineno}")
    assert offenders == [], f"read JSON through repro.store instead: {offenders}"


#: The one write-mode ``open`` allowed outside the store: the run ledger's
#: append, which adds a line and never rewrites what is there.
APPEND_ONLY = {("obs/ledger.py", "a")}


def _open_mode(call: ast.Call) -> str | None:
    """The constant mode of an ``open(path, mode)`` or ``path.open(mode)``."""
    candidates = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[:2]
    for arg in candidates:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if arg.value and set(arg.value) <= set("rwxabt+"):
                return arg.value
    return None


def test_no_raw_file_writes_outside_the_store():
    package = ROOT / "src" / "repro"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        if rel == "store.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("write_text", "write_bytes"):
                writes = True
            elif name == "open":
                mode = _open_mode(node) or "r"
                writes = bool(set(mode) & set("wax+")) and (rel, mode) not in APPEND_ONLY
            else:
                writes = False
            if writes:
                offenders.append(f"{rel}:{node.lineno}")
    assert offenders == [], f"write files through repro.store.atomic_write: {offenders}"
