"""The on-disk format of run artifacts and exports, and the one reader of
input files.

A dataclass is written as a JSON object of its fields in declaration
order, a read-only mapping as an object, and a date as its ISO string.
Non-finite floats are refused, so a NaN can never reach an artifact
silently. JSONL files hold one such object per line. Files are replaced
atomically, and a missing, unreadable, non-UTF-8 or unparseable input is
a DataError naming the input.
"""

from __future__ import annotations

import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from datetime import date as Date
from functools import cache
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, TypeVar

import yaml

from .errors import DataError

T = TypeVar("T")


@cache
def _encoder(cls: type) -> Callable[[Any], Any]:
    """How `default=` writes an instance of `cls`, looked up once per type."""
    if issubclass(cls, Date):
        return cls.isoformat
    if cls is MappingProxyType:
        return dict
    if is_dataclass(cls):
        # Read field by field: touching obj.__dict__ would make CPython build
        # a dict that stays attached to every record still in memory.
        names = tuple(f.name for f in fields(cls))
        return lambda obj: {name: getattr(obj, name) for name in names}
    raise TypeError(f"{cls.__name__} is not JSON serializable")


def _encode_default(obj: Any) -> Any:
    return _encoder(type(obj))(obj)


# Built once: json.dumps with keyword arguments builds an encoder per call.
_LINE = json.JSONEncoder(default=_encode_default, allow_nan=False)
_PRETTY = json.JSONEncoder(default=_encode_default, allow_nan=False, indent=2)
encode = _LINE.encode  # `obj` as one JSON line's text, without the newline


def pretty(obj: Any) -> str:
    """`obj` as indented JSON with a trailing newline."""
    return _PRETTY.encode(obj) + "\n"


def plain(obj: Any) -> Any:
    """`obj` as the JSON values it is written as: dicts, lists, strings,
    numbers, booleans and nulls."""
    return json.loads(_LINE.encode(obj))


@contextmanager
def replacing(path: str | Path, line=lambda row: _LINE.encode(row) + "\n") -> Iterator[Callable]:
    """Yield `append(rows)`, which writes `line(row)` (a JSON line by default) for each row to
    a temp file beside `path`. That file replaces `path` when the block ends and is removed
    if it raises, so the old file stays as it was. A failure to open, write or replace that
    file, or a row `line` refuses (a non-finite number, say), is a DataError naming `path`;
    what the block's own code raises passes unchanged."""
    p = Path(path)
    tmp = p.with_name(f".{p.name}.{os.getpid()}.tmp")
    try:
        fh = tmp.open("w", encoding="utf-8")
    except OSError as exc:  # nothing was made, so nothing to remove
        raise DataError(f"cannot write {p}: {exc}") from exc
    def append(rows):
        try:
            fh.writelines(map(line, rows))
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot write {p}: {exc}") from exc
    try:
        try:
            yield append  # the caller's code: what it raises passes unchanged
        except BaseException:
            fh.close()
            raise
        try:
            fh.close()  # writes the rows still buffered
            os.replace(tmp, p)
        except OSError as exc:
            raise DataError(f"cannot write {p}: {exc}") from exc
    finally:  # the temp file is gone once replaced
        tmp.unlink(missing_ok=True)


def write_jsonl(path: str | Path, rows: Iterable[Any]) -> Path:
    """Write one JSON object per line, replacing any existing file."""
    with replacing(path) as append:
        append(rows)
    return Path(path)


def as_str(value: Any, what: str) -> str:
    """`value`, a parsed input's string; anything else (a number or a null,
    say) raises TypeError naming `what`."""
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, got {value!r}")
    return value


def as_number(value: Any, what: str) -> float:
    """`value`, a parsed input's finite number; anything else (a string, a
    null, a NaN, a JSON true/false or an integer too large for a float)
    raises ValueError naming `what`."""
    try:
        if type(value) in (int, float) and math.isfinite(value):
            return value
    except OverflowError:  # math.isfinite(10**400)
        pass
    raise ValueError(f"{what} must be a finite number, not {value!r}")


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def as_date(value: Any, what: str) -> Date:
    """`value`, a parsed input's `YYYY-MM-DD` string, as a date; anything
    else raises ValueError naming `what`. `date.fromisoformat` alone takes
    more forms from Python 3.11 on (`20220103`, `2022-W01-1`), so one input
    would run on one Python and be refused on another."""
    if not (isinstance(value, str) and _ISO_DATE.fullmatch(value)):
        raise ValueError(f"{what} must be a date written YYYY-MM-DD, got {value!r}")
    return Date.fromisoformat(value)


def read_text(path: str | Path, what: str) -> str:
    """The file's text. A missing, unreadable (a directory, say) or non-UTF-8
    file raises DataError naming `what`."""
    p = Path(path)
    try:
        return p.read_text("utf-8")
    except FileNotFoundError as exc:
        raise DataError(f"{what} not found: {p}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {p}: {exc}") from exc


def read_document(path: str | Path, what: str, kind: type | tuple[type, ...] = dict,
                  parse: Callable[[str], Any] = yaml.safe_load) -> Any:
    """The whole file parsed by `parse` (YAML, or JSON with `json.loads`); a
    parse error or a top level that is not a `kind` raises DataError."""
    try:
        doc = parse(read_text(path, what))
    except (yaml.YAMLError, ValueError) as exc:
        raise DataError(f"bad {what} {Path(path).name}: {exc}") from exc
    if not isinstance(doc, kind):
        raise DataError(f"{what} must be a {'list' if kind is list else 'mapping'}, got {type(doc).__name__}")
    return doc


def read_jsonl(path: str | Path, what: str, parse: Callable[[dict], T]) -> list[T]:
    """Parse each non-blank line, a JSON object, with `parse`. A file `read_text`
    refuses, or a line that does not decode to an object or fit `parse`, raises
    DataError naming `what`."""
    p = Path(path)
    rows = []
    for lineno, line in enumerate(read_text(p, f"{what} file").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError(f"a line must be a JSON object, got {type(obj).__name__}")
            rows.append(parse(obj))
        except (DataError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad {what} record at {p.name}:{lineno}: {exc}") from exc
    return rows
