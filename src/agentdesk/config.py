"""Run configuration: one YAML file with gate/risk/retrieval/band/reward
sections, provider selection, and the four ablation flags."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from datetime import date as Date
from functools import partial
from pathlib import Path
from typing import Any, Mapping

from .datasynth import BandConfig, RewardConfig
from .errors import DataError
from .gate import GateConfig
from .jsonl import as_date, as_number, as_str, read_document
from .retrieval import RetrievalConfig
from .risk import DEFAULT_MULTIPLIERS, RiskConfig, StyleMultipliers, TradingStyle


@dataclass(frozen=True)
class FeatureFlags:
    """Ablation switches; each toggles exactly one documented behavior."""

    risk_management: bool = True
    self_reflection: bool = True
    rerank_embedding: bool = True
    style_and_state: bool = True


@dataclass(frozen=True)
class BacktestConfig:
    symbol: str
    start: Date | None = None
    end: Date | None = None
    initial_cash: float = 100_000.0
    commission_rate: float = 0.001
    seed: int = 0
    provider: str = "stub:sideways"
    embedding_provider: str = "stub"
    reranker_provider: str = "stub"
    provider_endpoint: str | None = None
    provider_model: str | None = None
    credentials_env: str | None = None
    keywords_path: str | None = None
    flags: FeatureFlags = field(default_factory=FeatureFlags)
    gate: GateConfig = field(default_factory=GateConfig)
    risk: RiskConfig = field(default_factory=RiskConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    band: BandConfig = field(default_factory=BandConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)

    def __post_init__(self) -> None:
        if not self.symbol:
            raise DataError("config requires a symbol")
        if self.initial_cash <= 0:
            raise DataError("initial_cash must be positive")
        if not 0 <= self.commission_rate < 1:  # at 1 or more, a sale returns no cash
            raise DataError("bad config value for 'commission_rate': must be at least 0 "
                            f"and below 1, got {self.commission_rate!r}")
        if self.start is not None and self.end is not None and self.start > self.end:
            raise DataError("start date is after end date")


def _as_multipliers(table: Any) -> Mapping[TradingStyle, StyleMultipliers]:
    """Read {style: {sl, tp}} or {style: [sl, tp]} over the defaults: a missing
    style keeps its default, and every style its place, so `config.yaml`
    lists them in style order."""
    if table is None:
        return DEFAULT_MULTIPLIERS
    if not isinstance(table, Mapping):
        raise TypeError("risk.multipliers must map styles to {sl, tp}")
    parsed = {}
    for style, pair in table.items():
        sl, tp = (pair["sl"], pair["tp"]) if isinstance(pair, Mapping) else pair
        parsed[TradingStyle(str(style))] = StyleMultipliers(
            float(_typed("float", sl, f"{style}.sl")), float(_typed("float", tp, f"{style}.tp"))
        )
    return {**DEFAULT_MULTIPLIERS, **parsed}


# The value types a bool, int or float field takes, by annotation; numbers
# must also be finite. Section values are stored as given (an int in a float
# field stays an int); top-level floats and risk multipliers are stored as float.
_SECTION_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float)}


def _typed(annotation: str, value: Any, name: str = "value") -> Any:
    try:
        if type(value) in _SECTION_TYPES[annotation]:
            return value if type(value) is bool else as_number(value, name)
    except ValueError:
        pass
    raise ValueError(f"{name} must be a valid {annotation}, got {value!r}")


def _as_section(cls, value: Any):
    """A section's mapping, or its defaults for a null; `flags: false`, say,
    is refused rather than read as all defaults."""
    value = {} if value is None else value
    if not isinstance(value, Mapping):
        raise TypeError("a config section must be a mapping")
    raw = dict(value)
    for f in fields(cls):
        if f.name in raw and f.type in _SECTION_TYPES:
            _typed(f.type, raw[f.name], f.name)
    if cls is RiskConfig and "multipliers" in raw:
        raw["multipliers"] = _as_multipliers(raw["multipliers"])
    return cls(**raw)


# Readers of top-level scalars, keyed by annotation text (annotations are
# strings in this module); a field of another type fails at import.
_SCALARS = {
    "str": partial(as_str, what="value"),
    "float": lambda value: float(_typed("float", value)),
    "int": partial(_typed, "int"),
    "str | None": lambda value: None if value is None else as_str(value, "value"),
    "Date | None": lambda value: (
        value if value is None or type(value) is Date else as_date(value, "value")),
}


_READERS = {
    f.name: partial(_as_section, f.default_factory)
    if is_dataclass(f.default_factory) else _SCALARS[f.type]
    for f in fields(BacktestConfig)
}


def config_from_dict(raw: Mapping) -> BacktestConfig:
    unknown = set(raw) - set(_READERS)
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = _READERS[key](value)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad config value for {key!r}: {exc}") from exc
    if "symbol" not in values:
        raise DataError("config requires a symbol")
    return BacktestConfig(**values)


def load_config(path: str | Path) -> BacktestConfig:
    return config_from_dict(read_document(path, "config file"))
