"""The on-disk format of run artifacts and exports.

A dataclass is written as a JSON object of its fields in declaration
order, and a date as its ISO string. Non-finite floats are refused, so a
NaN can never reach an artifact silently. JSONL files hold one such
object per line.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from datetime import date as Date
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

from .errors import DataError

T = TypeVar("T")


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _encode_default(obj: Any) -> Any:
    if isinstance(obj, Date):
        return obj.isoformat()
    if is_dataclass(obj):
        # Read field by field: touching obj.__dict__ would make CPython build
        # a dict that stays attached to every record still in memory.
        return {name: getattr(obj, name) for name in _field_names(type(obj))}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# Built once: json.dumps with keyword arguments builds an encoder per call.
_LINE = json.JSONEncoder(default=_encode_default, allow_nan=False)
_PRETTY = json.JSONEncoder(default=_encode_default, allow_nan=False, indent=2)


def write_json(path: str | Path, obj: Any) -> None:
    """Write `obj` as indented JSON with a trailing newline."""
    Path(path).write_text(_PRETTY.encode(obj) + "\n", encoding="utf-8")


def write_jsonl(path: str | Path, rows: Iterable[Any]) -> Path:
    """Write one JSON object per line, replacing any existing file."""
    p = Path(path)
    with p.open("w", encoding="utf-8") as fh:
        fh.writelines(_LINE.encode(row) + "\n" for row in rows)
    return p


def read_jsonl(path: str | Path, what: str, parse: Callable[[dict], T]) -> list[T]:
    """Parse each non-blank line with `parse`. A missing file, or a line that
    does not decode or fit `parse`, raises DataError naming `what`."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"{what} file not found: {p}")
    rows = []
    for lineno, line in enumerate(p.read_text("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(parse(json.loads(line)))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad {what} record at {p.name}:{lineno}: {exc}") from exc
    return rows
