"""Experiment configuration: a flat key = value text format.

The format is deliberately trivial (one ``key = value`` pair per line,
``#`` comments, no nesting) so any tool can parse or generate it.  One
canonical example per scheme ships in ``configs/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .constants import DEFAULT_CONSTANTS, SchemeConstants
from .errors import ValidationError
from .model import MODEL_KINDS

__all__ = ["ExperimentConfig", "SCHEMES", "parse_config", "parse_config_text"]

SCHEMES = ("one_channel", "adaptive", "many_channel")
_CONFIG_MODELS = tuple(k for k in MODEL_KINDS if k != "custom")

_BOOL_STRINGS = {"true": True, "1": True, "yes": True,
                 "false": False, "0": False, "no": False}


@dataclass(frozen=True)
class ExperimentConfig:
    model_kind: str
    d: int
    scheme: str
    delta: float
    e_radius: float
    trials: int
    master_seed: int = 0
    constants: SchemeConstants = DEFAULT_CONSTANTS
    worst_case_grid: bool = False
    out_csv: str | None = None
    out_json: str | None = None

    def __post_init__(self):
        if self.model_kind not in _CONFIG_MODELS:    # a config cannot supply generators
            raise ValidationError(f"model {self.model_kind!r} cannot run from a config; "
                                  f"valid models: {', '.join(_CONFIG_MODELS)}")
        if self.scheme not in SCHEMES:
            raise ValidationError(
                f"unknown scheme {self.scheme!r}; valid schemes: {', '.join(SCHEMES)}")
        if self.d < 2:
            raise ValidationError(f"d must be >= 2, got {self.d}")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not (0 < self.delta <= self.e_radius / 5 * (1 + 1e-12) < math.inf):
            raise ValidationError(f"delta/E must lie in (0, 1/5] with E finite, "
                                  f"got delta={self.delta}, E={self.e_radius}")
        if not (0 <= self.master_seed < 2 ** 64):
            raise ValidationError("master_seed must be a 64-bit unsigned integer")


_CONFIG_KEYS = {
    "model": str, "d": int, "scheme": str, "delta": float, "e": float,
    "trials": int, "seed": int, "kappa": float, "alpha": float, "beta": float,
    "p_crit": float, "r_max": int, "refine": bool, "trotter_slices": int,
    "worst_case_grid": bool, "out_csv": str, "out_json": str,
}
# Keys named otherwise in ExperimentConfig; SchemeConstants' own fields go to `constants`.
_FIELD_OF_KEY = {"model": "model_kind", "e": "e_radius", "seed": "master_seed"}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    values: dict = {}
    line_of: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip().lower(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ValidationError(
                f"{source}:{lineno}: unknown key {key!r}; valid keys: "
                f"{', '.join(sorted(_CONFIG_KEYS))}")
        if key in line_of:
            raise ValidationError(f"{source}:{lineno}: key {key!r} given twice, "
                                  f"on lines {line_of[key]} and {lineno}")
        line_of[key] = lineno
        caster = _CONFIG_KEYS[key]
        try:
            if caster is bool:
                values[key] = _BOOL_STRINGS[val.lower()]
            else:
                values[key] = caster(val)
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"{source}:{lineno}: bad value for {key}: {val!r}") from exc

    missing = [k for k in ("model", "d", "scheme", "delta", "e", "trials") if k not in values]
    if missing:
        raise ValidationError(f"{source}: missing required keys: {', '.join(missing)}")
    names = {f.name for f in fields(SchemeConstants)}
    constants = replace(DEFAULT_CONSTANTS, **{k: v for k, v in values.items() if k in names})
    return ExperimentConfig(constants=constants, **{_FIELD_OF_KEY.get(k, k): v
                                                    for k, v in values.items() if k not in names})


def parse_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {p}")
    return parse_config_text(p.read_text(), source=str(p))
