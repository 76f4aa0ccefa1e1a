"""Golden digests of a whole run: every artifact of a 70-bar news-heavy run,
with the default flags, with all four ablation flags off, and at a
`dedup_cosine` of 0.5, and the SFT export of each, pinned by SHA-256.

A change that alters an artifact on purpose regenerates these pins
(`python tests/test_golden.py` prints them) and says why, as with
`perfbench/reference.json`.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import yaml

from agentdesk.cli import main

from conftest import news_heavy_env

FLAGS_OFF = {"risk_management": False, "self_reflection": False,
             "rerank_embedding": False, "style_and_state": False}
# At the default 0.92 every item dedupe drops is an exact duplicate; at 0.5
# it drops near-duplicates too, so its cosines reach the trajectories.
NEAR_DUPLICATES = {"dedup_cosine": 0.5}

PINS = {
    "default": {
        "config.yaml": "4f4665dd7d199bad7c70bdf3c7fe2890a9a41f6e8c611981dfa7125f1ae284ae",
        "equity.jsonl": "15193fd18e79d193ad29f91d44a9b94e20459e172acb665f443e3fd9b46c772e",
        "meta.json": "833f24d1cbf3b58627272135e697eeffeee4e4e8ddccb04ab50e6be31acf0872",
        "metrics.json": "7934a96845e589bf43f4f32109f19703ef3e096c7d6c0ae9e3a77204af908598",
        "trades.jsonl": "9a2014484617939a7fdf2e7276f02bb7f3a6dd7c4ade6315f5fc3d83d89d0b49",
        "trajectories.jsonl": "d701623cdf7b5a983be084483fa55f179e1098f9c3ac5a7bbd95dac2a3e123c7",
        "sft.jsonl": "dff50d6bf83c82dfc440c009585bcd2cbd96f90180ee1cd654aa9585dc305c3a",
    },
    "flags-off": {
        "config.yaml": "0c092ed0e2fd1d6768ef457b9fdaa9df64061c52b0cc899154c36c83d19e77dc",
        "equity.jsonl": "ac8452d6f0ffbbc5ff690c8eee1dd84ddb3a8818ed00d34ba2e21e12b2258de5",
        "meta.json": "833f24d1cbf3b58627272135e697eeffeee4e4e8ddccb04ab50e6be31acf0872",
        "metrics.json": "c6a2881aad3570247bb43cea463647221d652f9327ea9ac05aac9ee260d93f4b",
        "trades.jsonl": "dafda1da3f4e81e7700cfe9d683111fdfc6c702357f681815c44da0a08e3030c",
        "trajectories.jsonl": "4f2823498023558d3324969a7e9f53d1c2456d7ee4d5d74f5e71713eb3e36ea0",
        "sft.jsonl": "c7e3da6cba52a60630e21bf0615289fadebc41637788e0f67777fffa4fa89845",
    },
    "near-duplicates": {
        "config.yaml": "fd865055ee05b5ccbb17ebef597a578c72c0dfecb1617868aa77530b0b6237c2",
        "equity.jsonl": "15193fd18e79d193ad29f91d44a9b94e20459e172acb665f443e3fd9b46c772e",
        "meta.json": "833f24d1cbf3b58627272135e697eeffeee4e4e8ddccb04ab50e6be31acf0872",
        "metrics.json": "7934a96845e589bf43f4f32109f19703ef3e096c7d6c0ae9e3a77204af908598",
        "trades.jsonl": "9a2014484617939a7fdf2e7276f02bb7f3a6dd7c4ade6315f5fc3d83d89d0b49",
        "trajectories.jsonl": "22c0839aa639459f6b5cafbaee98945b32c1b89587dbb8edbe3b73213982ef03",
        "sft.jsonl": "426c94cf379cd157bcd8fd9ca4b8336754d798c2d9c2a321b4c62c64014301a9",
    },
}


def digests(root: Path, **config) -> dict[str, str]:
    """The SHA-256 of each file a `run` and an `export-sft` of a 70-bar
    news-heavy environment under `root` write, with `config` in its config."""
    env, _ = news_heavy_env(root, bars=70)
    cfg = yaml.safe_load(env.config_path.read_text(encoding="utf-8"))
    cfg.update(provider="stub:always-up,echo-forecast", **config)
    env.config_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    run = env.out("run")
    assert main(["run", "--config", str(env.config_path), "--prices", str(env.prices),
                 "--news", str(env.news), "--reports", str(env.reports), "--out", str(run)]) == 0
    assert main(["export-sft", "--run", str(run), "--out", str(root / "sft.jsonl")]) == 0
    files = [*sorted(run.iterdir()), root / "sft.jsonl"]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def test_default_run_matches_its_pinned_digests(tmp_path):
    assert digests(tmp_path) == PINS["default"]


def test_run_with_all_flags_off_matches_its_pinned_digests(tmp_path):
    assert digests(tmp_path, flags=FLAGS_OFF) == PINS["flags-off"]


def test_run_that_drops_near_duplicates_matches_its_pinned_digests(tmp_path):
    assert digests(tmp_path, retrieval=NEAR_DUPLICATES) == PINS["near-duplicates"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in (("default", {}), ("flags-off", {"flags": FLAGS_OFF}),
                             ("near-duplicates", {"retrieval": NEAR_DUPLICATES})):
            print(f"{name!r}: {digests(Path(tmp) / name, **config)!r},")
