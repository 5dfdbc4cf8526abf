"""Experiment configuration: a flat key = value text format.

The format is deliberately trivial (one ``key = value`` pair per line,
``#`` comments, no nesting) so any tool can parse or generate it.  One
canonical example per scheme ships in ``configs/``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .constants import DEFAULT_CONSTANTS, SchemeConstants, is_int
from .errors import ValidationError
from .estimation import _admit
from .model import MODEL_KINDS

__all__ = ["ExperimentConfig", "parse_config", "parse_config_text"]

_CONFIG_MODELS = tuple(k for k in MODEL_KINDS if k != "custom")

_BOOL_STRINGS = {"true": True, "1": True, "yes": True,
                 "false": False, "0": False, "no": False}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; its (scheme, delta, e_radius) must lie in ``estimation._admit``'s domain."""

    model_kind: str
    d: int
    scheme: str
    delta: float
    e_radius: float
    trials: int
    master_seed: int = 0
    constants: SchemeConstants = DEFAULT_CONSTANTS
    worst_case_grid: bool = False

    def __post_init__(self):
        if self.model_kind not in _CONFIG_MODELS:    # a config cannot supply generators
            raise ValidationError(f"model {self.model_kind!r} cannot run from a config; "
                                  f"valid models: {', '.join(_CONFIG_MODELS)}")
        _admit(self.scheme, self.delta, self.e_radius)
        for name, ok, need in (    # is_int: a bool or a numpy integer is no count
                ("d", is_int(self.d) and self.d >= 2, "an int >= 2"),
                ("trials", is_int(self.trials) and self.trials >= 1, "an int >= 1"),
                ("master_seed", is_int(self.master_seed) and 0 <= self.master_seed < 2 ** 64,
                 "a 64-bit unsigned int"),
                ("constants", isinstance(self.constants, SchemeConstants), "a SchemeConstants"),
                ("worst_case_grid", type(self.worst_case_grid) is bool, "a bool")):
            if not ok:
                raise ValidationError(f"{name} must be {need}, got {getattr(self, name)!r}")


_CONFIG_KEYS = {
    "model": str, "d": int, "scheme": str, "delta": float, "e": float,
    "trials": int, "seed": int, "kappa": float, "alpha": float, "r_max": int,
    "trotter_slices": bool, "worst_case_grid": bool,
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
            values[key] = _BOOL_STRINGS[val.lower()] if caster is bool else caster(val)
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
