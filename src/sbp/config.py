"""Plain-text run configuration: `section.key = value` lines, strictly validated."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigurationError

SBP_MODES = ("qkv", "query_only", "head")
SAMPLERS = ("grid", "random")
SCHEDULES = ("uniform", "increasing", "decreasing")
SHARINGS = ("shared", "independent")


@dataclass
class ModelConfig:
    kind: str = "mlp"            # mlp | vit | conv
    grid: tuple = (8, 8)
    in_channels: int = 3
    width: int = 32              # mlp hidden width
    embed: int = 32              # vit embed dim
    heads: int = 2
    depth: int = 3
    mlp_ratio: int = 2
    channels: int = 16           # conv channels
    kernel: int = 3
    n_classes: int = 2
    sbp_fraction: float = 1.0


@dataclass
class SbpConfig:
    enabled: bool = True
    mode: str = "qkv"            # qkv | query_only | head
    sampler: str = "grid"        # grid | random
    sharing: str = "independent" # shared | independent
    schedule: str = "uniform"    # uniform | increasing | decreasing
    keep_ratio: float = 0.5
    resample_each_step: bool = True


@dataclass
class TrainSection:
    steps: int = 50
    batch_size: int = 16
    lr: float = 0.05
    seed: int = 0


@dataclass
class GradsimConfig:
    variants: str = ""           # comma list of schedule-sampler-mode tokens
    batches: int = 0             # 0 means reuse train.steps


@dataclass
class DataConfig:
    path: str = ""               # SBPD file; empty means synthesize
    count: int = 256
    noise: float = 0.5
    seed: int = 0


@dataclass
class TrainConfig:
    model: ModelConfig
    sbp: SbpConfig
    train: TrainSection
    data: DataConfig
    gradsim: GradsimConfig


def default_config() -> TrainConfig:
    return TrainConfig(ModelConfig(), SbpConfig(), TrainSection(), DataConfig(),
                       GradsimConfig())


def _coerce(name: str, current, raw: str):
    raw = raw.strip()
    t = type(current)
    try:
        if t is bool:
            if raw not in ("true", "false"):
                raise ValueError(raw)
            return raw == "true"
        if t is int:
            return int(raw)
        if t is float:
            return float(raw)
        if t is tuple:
            return tuple(int(p) for p in raw.split("x"))
        return raw
    except ValueError as e:
        raise ConfigurationError(f"bad value for {name}: {raw!r}") from e


def parse_config(text: str) -> TrainConfig:
    """Strict parser: every line is blank, a # comment, or `section.key = value`.

    Unknown sections or keys are errors, not warnings.
    """
    cfg = default_config()
    sections = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected `section.key = value`")
        lhs, rhs = stripped.split("=", 1)
        lhs = lhs.strip()
        if "." not in lhs:
            raise ConfigurationError(f"line {lineno}: key {lhs!r} needs a section prefix")
        section_name, key = lhs.split(".", 1)
        if section_name not in sections:
            raise ConfigurationError(f"line {lineno}: unknown section {section_name!r}")
        section = sections[section_name]
        if key not in {f.name for f in fields(section)}:
            raise ConfigurationError(f"line {lineno}: unknown key {lhs!r}")
        setattr(section, key, _coerce(lhs, getattr(section, key), rhs))
    validate_config(cfg)
    return cfg


def validate_config(cfg: TrainConfig):
    for name, section in vars(cfg).items():
        for key, value in vars(section).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{name}.{key} must be finite, got {value}")
    if cfg.model.kind not in ("mlp", "vit", "conv"):
        raise ConfigurationError(f"unknown model kind {cfg.model.kind!r}")
    if cfg.sbp.mode not in SBP_MODES:
        raise ConfigurationError(f"unknown sbp mode {cfg.sbp.mode!r}")
    if cfg.sbp.sampler not in SAMPLERS:
        raise ConfigurationError(f"unknown sampler {cfg.sbp.sampler!r}")
    if cfg.sbp.sharing not in SHARINGS:
        raise ConfigurationError(f"unknown sharing {cfg.sbp.sharing!r}")
    if cfg.sbp.schedule not in SCHEDULES:
        raise ConfigurationError(f"unknown schedule {cfg.sbp.schedule!r}")
    if not (0 < cfg.sbp.keep_ratio <= 1):
        raise ConfigurationError("sbp.keep_ratio must be in (0, 1]")
    if cfg.train.steps < 1 or cfg.train.batch_size < 1:
        raise ConfigurationError("train.steps and train.batch_size must be >= 1")
    if cfg.train.lr <= 0:
        raise ConfigurationError("train.lr must be positive")
    if len(cfg.model.grid) != 2 or min(cfg.model.grid) < 1:
        raise ConfigurationError("model.grid must be HxW with H and W >= 1")
    for key in ("in_channels", "width", "embed", "heads", "mlp_ratio", "channels", "kernel",
                "n_classes"):
        if getattr(cfg.model, key) < 1:
            raise ConfigurationError(f"model.{key} must be >= 1")
    if cfg.model.depth < (1 if cfg.model.kind == "conv" else 0):
        raise ConfigurationError("model.depth must be >= 0 (>= 1 for conv)")
    if not (0 <= cfg.model.sbp_fraction <= 1):
        raise ConfigurationError("model.sbp_fraction must be in [0, 1]")
    if cfg.data.count < 1:
        raise ConfigurationError("data.count must be >= 1")
    if cfg.train.seed < 0 or cfg.data.seed < 0:
        raise ConfigurationError("train.seed and data.seed must be >= 0")
    if cfg.gradsim.batches < 0:
        raise ConfigurationError("gradsim.batches must be >= 0 (0 reuses train.steps)")


def config_to_text(cfg: TrainConfig) -> str:
    lines = []
    for f in fields(cfg):
        section = getattr(cfg, f.name)
        for g in fields(section):
            v = getattr(section, g.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, tuple):
                v = "x".join(str(p) for p in v)
            lines.append(f"{f.name}.{g.name} = {v}")
    return "\n".join(lines) + "\n"
