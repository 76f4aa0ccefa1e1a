"""The artifact format: dataclasses as ordered JSON objects, ISO dates,
and no non-finite numbers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import pytest

from agentdesk.errors import DataError
from agentdesk.jsonl import read_jsonl, write_json, write_jsonl


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

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="point file not found"):
            read_jsonl(tmp_path / "absent.jsonl", "point", dict)
