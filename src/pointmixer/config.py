"""Flat key=value run configuration.

One dotted key per line, ``#`` starts a comment, every key has a documented
default, unknown keys are errors. ``parse(render(cfg))`` reproduces the
config exactly, and the effective config is echoed into each run directory
so runs stay diffable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mixer import VARIANTS
from .tasks import TASKS

__all__ = ["Config", "ConfigError", "SCHEMA", "parse", "render", "load", "dump"]


class ConfigError(ValueError):
    pass


def _bool(text: str) -> bool:
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _int_list(text: str):
    return tuple(int(t) for t in text.split(",") if t.strip())


def _float_list(text: str):
    return tuple(float(t) for t in text.split(",") if t.strip())


# key -> (default, parser, help)
SCHEMA: dict[str, tuple] = {
    "data.task": ("cls", str, "task: " + " | ".join(TASKS)),
    "data.seed": (0, int, "dataset seed (PMIX_SEED env var overrides)"),
    "data.points": (256, int, "points per cloud"),
    "data.train_clouds": (120, int, "training clouds"),
    "data.test_clouds": (30, int, "held-out clouds"),
    "data.noise": (0.02, float, "jitter / perturbation scale"),
    "data.classes": (3, int, "classes (cls) or parts (seg)"),
    "data.dir": ("", str, "load clouds from this directory instead of generating"),
    "net.widths": ((32, 64, 128, 256), _int_list, "channel width per level"),
    "net.blocks": ((1, 1, 1, 1), _int_list, "mixing blocks per level"),
    "net.ratios": ((1.0, 0.25, 0.25, 0.25), _float_list, "down-sampling ratio per level"),
    "net.k": (16, int, "neighbors per query"),
    "net.variant": ("softmax", str, "mixing operator: " + " | ".join(VARIANTS)),
    "net.use_intra": (True, _bool, "intra-set mixing blocks"),
    "net.use_inter": (True, _bool, "inter-set mixing blocks (inverse maps)"),
    "net.use_hier": (True, _bool, "mixing transitions; false = maxpool/trilinear baseline"),
    "net.dropout": (0.5, float, "classification head dropout rate"),
    "net.seed": (0, int, "parameter init seed"),
    "train.lr": (0.05, float, "base learning rate"),
    "train.epochs": (30, int, "training epochs"),
    "train.batch": (2, int, "clouds per optimizer step"),
    "train.seed": (0, int, "shuffle / dropout seed"),
    "train.out": ("runs/latest", str, "run directory (config echo, checkpoint, log)"),
    "train.resume": ("", str, "checkpoint to resume parameter values from"),
}


@dataclass
class Config:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def with_overrides(self, **pairs) -> "Config":
        out = dict(self.values)
        for key, value in pairs.items():
            key = key.replace("__", ".")
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            out[key] = value
        return Config(out)


def defaults() -> Config:
    return Config({k: v[0] for k, v in SCHEMA.items()})


def parse(text: str) -> Config:
    values = {k: v[0] for k, v in SCHEMA.items()}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        parser = SCHEMA[key][1]
        try:
            values[key] = parser(val)
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from e
    return Config(values)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render(config: Config) -> str:
    lines = []
    for key in SCHEMA:
        lines.append(f"{key} = {_fmt(config.values[key])}  # {SCHEMA[key][2]}")
    return "\n".join(lines) + "\n"


def load(path) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def dump(config: Config, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(config))


def validate(config: Config):
    v = config.values
    if v["data.task"] not in TASKS:
        raise ConfigError(f"data.task must be {', '.join(TASKS[:-1])}, or {TASKS[-1]}, got {v['data.task']!r}")
    n = len(v["net.widths"])
    if not (len(v["net.blocks"]) == len(v["net.ratios"]) == n) or n == 0:
        raise ConfigError("net.widths, net.blocks, net.ratios must be equally sized and non-empty")
    if v["net.variant"] not in VARIANTS:
        raise ConfigError(f"unknown net.variant {v['net.variant']!r}")
    if v["train.epochs"] < 0 or v["train.batch"] < 1:
        raise ConfigError("train.epochs must be >= 0 and train.batch >= 1")
