"""A seeded mutation test of the CLI's exit-code contract.

Each case changes one value of one file and runs the command that reads
it: a config value, a price CSV cell (or every close, scaled by one
factor), a news line, a manifest entry, a filing's text, a keyword weight
or term, or one role's scripted stub reply (a JSON text that may carry
numbers no int or float holds) for `run`; a line or value of a finished
run's equity, trades or metrics file for `replay` (and `metrics`), or of
its trajectories for `export-sft`. The inputs have the news-heavy
benchmark's shape, 70 bars long. Every case must exit 0, 2 or 3 without
raising, and a `run` or `export-sft` that exits 0 must have written only
finite numbers.

Tier-1 runs `CASES` cases of seed 1. More seeds and cases:

    PYTHONPATH=src:tests python tests/test_cli_mutations.py SEED CASES
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import operator
import random
import re
import shutil
import sys
import tempfile
from pathlib import Path

import yaml

from agentdesk.cli import main
from agentdesk.config import config_to_dict, load_config
from agentdesk.retrieval import load_keywords

from conftest import news_heavy_env

CASES = 250

# What replaces a JSON or YAML value, and a price CSV cell. A number is
# also scaled or negated in place.
VALUES = (None, True, False, 0, -1, 1, 0.5, 2, 1e308, -1e308, 1e-320, 2.3e-308, 1e-305,
          10**400, math.nan, math.inf, -math.inf, "", "x", "2022-01-03", "20220103",
          [], [1], {}, {"a": 1})
CELLS = ("", "x", "nan", "inf", "-inf", "-1", "0", "1e-320", "2.3e-308", "1e-305", "1e-250",
         "1e308", "1e400", "2022-02-30", "20220103", "2021-12-31", "2030-01-03")
# What every close of a price CSV is multiplied by: a power of two, and
# factors that take closes near the ends of the float range.
SCALES = (8, 1e-300, 1e300, 1e306)
# What replaces a whole JSONL line (a blank line is skipped by every reader),
# or a whole scripted reply.
LINES = ("3.5", "[]", '"x"', "null", "true", "{", "{}", "")

# What a scripted reply's number becomes: values no float or int holds.
UNHELD = (10**400, math.inf, -math.inf, math.nan)
# A reply for each role, every day: a case scripts one of them, changed. The
# run every case starts from scripts none, so its replies are the stub's.
SCRIPT = {
    "news-sentiment:*": {"sentiment": 0.4, "summary": "scripted"},
    "report:*": {"indicators": [{"name": "revenue", "value_text": "up", "citation_chunk": 1}],
                 "summary": "scripted"},
    "forecast:*": {"up": 0.5, "down": 0.2, "sideways": 0.3, "confidence": 0.6, "rationale": "scripted"},
    "style:*": {"style": "aggressive", "confidence": 0.7, "rationale": "scripted"},
    "decision:*": {"action": "buy", "rationale": "scripted"},
}


def _positions(node, at=()):
    """The key path of every value in a parsed document, the root last."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _positions(value, (*at, key))
    yield at


def _value_at(doc, at):
    return functools.reduce(operator.getitem, at, doc)


def _change_value(rng: random.Random, doc):
    """`doc` with one of its values replaced, scaled or removed."""
    at = rng.choice(list(_positions(doc)))
    if not at:
        return rng.choice(VALUES)
    parent = _value_at(doc, at[:-1])
    old, roll = parent[at[-1]], rng.random()
    if roll < 0.1:
        del parent[at[-1]]
    elif roll < 0.4 and type(old) in (int, float):
        parent[at[-1]] = rng.choice((-old, old * 1e300, old * 1e-300, old * 10**rng.randint(1, 30)))
    else:
        parent[at[-1]] = rng.choice(VALUES)
    return doc


def _change_line(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    if rng.random() < 0.3:
        lines[i] = rng.choice(LINES)
    else:
        lines[i] = json.dumps(_change_value(rng, json.loads(lines[i])))
    return "\n".join(lines) + "\n"


def _change_reply(rng: random.Random, text: str) -> str:
    """`text`, a scripted stub file, now scripting one role's reply from
    SCRIPT: replaced whole, with one of its numbers replaced by one of
    UNHELD, or with one of its values changed."""
    script = yaml.safe_load(text) or {}
    role, roll = rng.choice(sorted(SCRIPT)), rng.random()
    reply = json.loads(json.dumps(SCRIPT[role]))
    numbers = [at for at in _positions(reply) if type(_value_at(reply, at)) in (int, float)]
    if roll < 0.3:
        script[role] = rng.choice(LINES)
    else:
        if roll < 0.6 and numbers:
            *path, key = rng.choice(numbers)
            _value_at(reply, path)[key] = rng.choice(UNHELD)
        else:
            reply = _change_value(rng, reply)
        script[role] = json.dumps(reply)
    return yaml.safe_dump(script, sort_keys=False)


def _change_cell(rng: random.Random, text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    row = rows[rng.randrange(len(rows))]
    col = rng.randrange(len(row))
    if col == 1 and rng.random() < 0.3 and row[1] != "close":
        row[1] = repr(float(row[1]) * rng.choice((1e-300, 1e-250, 1e300, -1.0)))
    else:
        row[col] = rng.choice(CELLS)
    return "\n".join(",".join(row) for row in rows) + "\n"


def _scale_closes(rng: random.Random, text: str) -> str:
    """`text`, a price CSV, with every close multiplied by one of SCALES."""
    factor = rng.choice(SCALES)
    header, *rows = text.splitlines()
    scaled = (f"{day},{float(close) * factor!r}" for day, close in (row.split(",") for row in rows))
    return "\n".join([header, *scaled]) + "\n"


def _change_filing(rng: random.Random, text: str) -> str:
    """`text`, a filing, blank, whitespace only, with no sentence end, as one
    very long sentence, or with a byte that is not UTF-8 (written through
    `surrogateescape`)."""
    flat = re.sub(r"[.!?]", "", text)
    return rng.choice(("", " \n\t \n", flat, ", ".join([flat] * 20) + ".", text + "\udcff"))


def _change_yaml(rng: random.Random, text: str) -> str:
    return yaml.safe_dump(_change_value(rng, yaml.safe_load(text)), sort_keys=False)


def _change_json(rng: random.Random, text: str) -> str:
    return json.dumps(_change_value(rng, json.loads(text)))


# (file, how it is changed, the commands that read it). Files under "run/"
# are a finished run's artifacts; the others are its inputs.
TARGETS = (
    ("config.yaml", _change_yaml, ("run",)),
    ("keywords.yaml", _change_yaml, ("run",)),
    ("news.jsonl", _change_line, ("run",)),
    ("prices.csv", _change_cell, ("run",)),
    ("prices.csv", _scale_closes, ("run",)),
    ("reports/filing-1.txt", _change_filing, ("run",)),
    ("reports/manifest.json", _change_json, ("run",)),
    ("run/equity.jsonl", _change_line, ("replay",)),
    ("run/metrics.json", _change_json, ("replay", "metrics")),
    ("run/trades.jsonl", _change_line, ("replay",)),
    ("run/trajectories.jsonl", _change_line, ("export-sft",)),
    ("script.yaml", _change_reply, ("run",)),
)


def _finite(node) -> bool:
    if isinstance(node, float):
        return math.isfinite(node)
    if isinstance(node, (dict, list)):
        return all(map(_finite, node.values() if isinstance(node, dict) else node))
    return True


def _written_numbers_finite(path: Path) -> bool:
    """Whether every number in a written artifact (a file or a run directory) is finite."""
    if path.is_dir():
        return all(map(_written_numbers_finite, path.iterdir()))
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".yaml":
        return _finite(yaml.safe_load(text))
    if path.suffix == ".json":
        return _finite(json.loads(text))
    return all(_finite(json.loads(line)) for line in text.splitlines())


def _args(command: str, case: Path) -> list[str]:
    if command == "run":
        return ["run", "--config", str(case / "config.yaml"), "--prices", str(case / "prices.csv"),
                "--news", str(case / "news.jsonl"), "--reports", str(case / "reports"),
                "--out", str(case / "out")]
    if command == "export-sft":
        return ["export-sft", "--run", str(case / "run"), "--out", str(case / "out" / "sft.jsonl")]
    return [command, "--run", str(case / "run")]


def _exit(args: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(args)


def broken_cases(root: Path, seed: int, cases: int) -> list[str]:
    """The cases of `seed` that break the contract: what each changed and
    what went wrong."""
    env, _ = news_heavy_env(root / "inputs", bars=70, filing_every=30)
    (env.root / "keywords.yaml").write_text(yaml.safe_dump(load_keywords()), encoding="utf-8")
    (env.root / "script.yaml").write_text("{}\n", encoding="utf-8")
    # Every config key, sections included, so any of them can be changed.
    cfg = config_to_dict(load_config(env.config_path))
    cfg.update(keywords_path="keywords.yaml", provider=cfg["provider"] + ",scripted:script.yaml")
    env.config_path.write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")
    assert _exit(_args("run", env.root)) == 0
    (env.root / "out").rename(env.root / "run")
    rng, broken = random.Random(seed), []
    for n in range(cases):
        name, change, commands = rng.choice(TARGETS)
        case = root / f"case-{n}"
        shutil.copytree(env.root, case)
        path = case / name
        path.write_text(change(rng, path.read_text(encoding="utf-8")), encoding="utf-8",
                        errors="surrogateescape")
        (case / "out").mkdir(exist_ok=True)
        for command in commands:
            where = f"case {n} ({name} {change.__name__}, {command})"
            try:
                code = _exit(_args(command, case))
            except Exception as exc:  # the contract's breach, reported with its case
                broken.append(f"{where}: {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 2, 3):
                broken.append(f"{where}: exit {code}")
            elif code == 0 and not _written_numbers_finite(case / "out"):
                broken.append(f"{where}: a non-finite number was written")
        shutil.rmtree(case)
    return broken


def test_one_changed_value_never_breaks_the_exit_code_contract(tmp_path):
    assert broken_cases(tmp_path, seed=1, cases=CASES) == []


if __name__ == "__main__":
    seed, cases = map(int, sys.argv[1:])
    with tempfile.TemporaryDirectory() as tmp:
        found = broken_cases(Path(tmp), seed, cases)
    print("\n".join(found) or f"seed {seed}: {cases} cases, none broke the exit-code contract")
    sys.exit(1 if found else 0)
