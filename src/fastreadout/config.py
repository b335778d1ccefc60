"""Flat key-value configuration files with unit-suffixed quantities.

Frequencies accept Hz/kHz/MHz/GHz suffixes, times accept s/ms/us/ns.
Bare numbers are passed through unchanged.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields

from .errors import ConfigError

_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}

_QUANTITY_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([a-zA-Z]*)\s*$"
)


def parse_quantity(text: str) -> float:
    """Parse a number with an optional frequency or time unit suffix into SI.
    A value that overflows to infinity raises ConfigError."""
    m = _QUANTITY_RE.match(str(text))
    if m is None:
        raise ConfigError(f"cannot parse quantity {text!r}")
    value = float(m.group(1))
    unit = m.group(2).lower()
    if unit in _FREQ_UNITS:
        value *= _FREQ_UNITS[unit]
    elif unit in _TIME_UNITS:
        value *= _TIME_UNITS[unit]
    elif unit != "":
        raise ConfigError(f"unknown unit {m.group(2)!r} in {text!r}")
    if not math.isfinite(value):
        raise ConfigError(f"quantity {text!r} is not finite")
    return value


def require_finite(instance):
    """Raise ConfigError naming the first numeric dataclass field of
    `instance` that is NaN or infinite; None and booleans pass."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


def parse_bool(text: str) -> bool:
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


def parse_int(text: str) -> int:
    try:
        return int(str(text).strip(), 0)
    except ValueError as exc:
        raise ConfigError(f"cannot parse integer {text!r}") from exc


def load_config(path) -> dict[str, str]:
    """Read a flat ``key = value`` file; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    return out
