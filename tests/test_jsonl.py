"""The artifact format: dataclasses as ordered JSON objects, ISO dates,
and no non-finite numbers."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date

import pytest

from agentdesk.errors import DataError
from agentdesk.jsonl import (
    as_number, read_document, read_jsonl, read_text, write_json, write_jsonl, write_text,
)


@dataclass(frozen=True)
class Point:
    when: date
    value: float
    tags: dict


class TestWrite:
    def test_dataclass_is_its_fields_in_order(self, tmp_path):
        path = write_jsonl(tmp_path / "p.jsonl", [Point(date(2022, 1, 3), 1.5, {"b": 1, "a": 2})])
        assert path.read_text() == (
            '{"when": "2022-01-03", "value": 1.5, "tags": {"b": 1, "a": 2}}\n'
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, tmp_path, bad):
        with pytest.raises(ValueError):
            write_jsonl(tmp_path / "p.jsonl", [{"value": bad}])
        with pytest.raises(ValueError):
            write_json(tmp_path / "p.json", Point(date(2022, 1, 3), bad, {}))


class TestRead:
    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"v": 1}\n\n{"v": 2}\n')
        assert read_jsonl(path, "point", lambda obj: obj["v"]) == [1, 2]

    def test_record_that_does_not_parse_names_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"v": 1}\n{"w": 2}\n')
        with pytest.raises(DataError, match="bad point record at p.jsonl:2"):
            read_jsonl(path, "point", lambda obj: obj["v"])

    def test_data_error_of_a_record_names_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"v": 1}\n{"v": -1}\n')

        def positive(obj):
            if obj["v"] <= 0:
                raise DataError("point must be positive")
            return obj["v"]

        with pytest.raises(DataError, match="bad point record at p.jsonl:2: point must be positive"):
            read_jsonl(path, "point", positive)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="point file not found"):
            read_jsonl(tmp_path / "absent.jsonl", "point", dict)


class TestAtomicWrite:
    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path):
        path = write_jsonl(tmp_path / "p.jsonl", [{"v": 1}])
        with pytest.raises(ValueError):
            write_jsonl(path, [{"v": 2}, {"v": math.nan}])
        assert path.read_text() == '{"v": 1}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["p.jsonl"]

    def test_replaces_existing_file(self, tmp_path):
        path = write_text(tmp_path / "a.txt", "old")
        write_json(path, {"v": 2})
        assert path.read_text() == '{\n  "v": 2\n}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    @pytest.mark.parametrize("target", ["absent/p.jsonl", "dir"])
    def test_unwritable_path_names_file(self, tmp_path, target):
        (tmp_path / "dir").mkdir()
        with pytest.raises(DataError, match=f"cannot write .*{target}"):
            write_jsonl(tmp_path / target, [{"v": 1}])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]


class TestReadInput:
    def test_text_is_utf8(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("caf\u00e9\n", encoding="utf-8")
        assert read_text(path, "note") == "caf\u00e9\n"

    @pytest.mark.parametrize("fault, message", [
        ("missing", "note (file )?not found"),
        ("directory", "cannot read note"),
        ("non-utf8", "cannot read note .*utf-8"),
    ])
    def test_unreadable_file_names_input(self, tmp_path, fault, message):
        path = tmp_path / "t.txt"
        if fault == "directory":
            path.mkdir()
        elif fault == "non-utf8":
            path.write_bytes(b"caf\xe9\n")
        for read in (lambda: read_text(path, "note"), lambda: read_document(path, "note"),
                     lambda: read_jsonl(path, "note", dict)):
            with pytest.raises(DataError, match=message):
                read()

    def test_document_yaml_and_json(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"a": [1, 2]}')
        assert read_document(path, "doc") == {"a": [1, 2]}
        assert read_document(path, "doc", parse=json.loads) == {"a": [1, 2]}

    @pytest.mark.parametrize("text, kind, parse, message", [
        ("a: [unclosed\n", dict, None, "bad doc d.txt"),
        ("{'a': 1}", dict, json.loads, "bad doc d.txt"),
        ("- 1\n", dict, None, "doc must be a mapping, got list"),
        ('{"a": 1}', list, json.loads, "doc must be a list, got dict"),
        ("", dict, None, "doc must be a mapping, got NoneType"),
    ])
    def test_bad_document_names_input(self, tmp_path, text, kind, parse, message):
        path = tmp_path / "d.txt"
        path.write_text(text)
        extra = {} if parse is None else {"parse": parse}
        with pytest.raises(DataError, match=message):
            read_document(path, "doc", kind, **extra)


class TestAsNumber:
    @pytest.mark.parametrize("value", [0, -2, 1.5, 10**300, -1e308],
                             ids=["zero", "int", "float", "large-int", "large-float"])
    def test_a_finite_number_is_returned_as_it_is(self, value):
        assert as_number(value, "x") is value

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, True, None, "1", 10**400, -(10**400),
    ], ids=["nan", "inf", "bool", "null", "string", "int-too-large", "negative-int-too-large"])
    def test_anything_else_is_a_value_error(self, value):
        # math.isfinite and float() raise OverflowError on the large integers
        with pytest.raises(ValueError, match="x must be a finite number"):
            as_number(value, "x")
