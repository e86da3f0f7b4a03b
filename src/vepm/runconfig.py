"""Flat key-value run configuration.

Config files are plain text: one `key = value` per line, `#` comments,
dotted keys for the model/train/sampler sections, e.g.

    dataset = data/cora
    task = node
    model.n_metacommunities = 8
    train.finetune_epochs = 400
    sampler.enabled = true
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, get_type_hints

from .model import ModelConfig
from .training import SamplerConfig, TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    dataset: str = ""
    task: str = "node"
    out: str = "runs/out"
    seed: int = 0
    protocol: str = "xu"
    folds: int = 10
    keep_rate: float = 1.0
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self):
        if self.task not in ("node", "graph"):
            raise ConfigError("task must be 'node' or 'graph'")
        if self.protocol not in ("xu", "zhang"):
            raise ConfigError("protocol must be 'xu' or 'zhang'")
        if not 0.0 < self.keep_rate <= 1.0:
            raise ConfigError(f"keep_rate must lie in (0, 1], got {self.keep_rate}")
        if self.keep_rate < 1.0 and self.task != "node":
            raise ConfigError("keep_rate below 1 needs task = node")
        if self.sampler.enabled and self.task != "node":
            raise ConfigError("sampler.enabled = true needs task = node; "
                              "graph tasks train on whole batches")


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "sampler": SamplerConfig}


def parse_value(key: str, raw: str):
    """`raw` parsed as the type of config key `key`, a top-level field of
    RunConfig or a dotted `section.field`: the one parser of config files
    and ablation values."""
    section, _, name = key.rpartition(".")
    owner = _SECTIONS.get(section) if section else RunConfig
    hints = {} if owner is None else get_type_hints(owner)
    if name not in hints or name in _SECTIONS:
        raise ConfigError(f"unknown config key {key!r}")
    target_type = hints[name]
    raw = raw.strip()
    try:
        if target_type is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        if target_type is str:
            return raw
        # tuples of floats (elbo term weights)
        return tuple(float(p) for p in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_run_config(raw: dict[str, str], overrides: Optional[dict] = None) -> RunConfig:
    """Assemble a RunConfig from raw strings plus typed overrides of its
    top-level keys (the CLI flags); None means not given."""
    top_kwargs: dict = {}
    section_kwargs: dict[str, dict] = {name: {} for name in _SECTIONS}
    for key, value in raw.items():
        if key == "train.seed":
            raise ConfigError("train.seed is not read; set the run's seed with 'seed'")
        if "." in key:
            section, sub = key.split(".", 1)
            section_kwargs[section][sub] = parse_value(key, value)
        else:
            top_kwargs[key] = parse_value(key, value)

    top_kwargs.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    # node tasks default to degree-normalized layers, graph tasks to sum
    task = top_kwargs.get("task", "node")
    section_kwargs["model"].setdefault("layer_kind",
                                       "gcn" if task == "node" else "gin")
    # the run's one seed, copied so that reports show the seed in use
    section_kwargs["train"]["seed"] = top_kwargs.get("seed", RunConfig.seed)
    try:
        cfg = RunConfig(
            model=ModelConfig(**section_kwargs["model"]),
            train=TrainConfig(**section_kwargs["train"]),
            sampler=SamplerConfig(**section_kwargs["sampler"]),
            **top_kwargs,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_run_config(path: str, overrides: Optional[dict] = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return build_run_config(parse_config_text(text), overrides)
