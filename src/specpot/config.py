"""Strict key=value configuration parsing with [section] headers.

Unknown sections and keys are fatal: a silently ignored typo ("boundry=...")
would corrupt reproducibility of batch experiments, so errors name the
offending key and its line number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError


@dataclass
class ParsedConfig:
    sections: dict[str, dict[str, str]] = field(default_factory=dict)
    lines: dict[tuple[str, str], int] = field(default_factory=dict)

    def section(self, name: str) -> dict[str, str]:
        return self.sections.get(name, {})

    def line_of(self, section: str, key: str) -> int | None:
        return self.lines.get((section, key))


def parse_config_text(text: str) -> ParsedConfig:
    cfg = ParsedConfig()
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            if current in cfg.sections:
                raise ConfigError(f"line {lineno}: duplicate section [{current}]")
            cfg.sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in cfg.sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        cfg.sections[current][key] = value
        cfg.lines[(current, key)] = lineno
    return cfg


def validate_schema(cfg: ParsedConfig, schema: dict[str, tuple[set[str], set[str]]]) -> None:
    """schema maps section -> (allowed keys, required keys); sections absent
    from the schema are rejected, as are unknown keys inside a section."""
    for section in cfg.sections:
        if section not in schema:
            raise ConfigError(f"unknown section [{section}] for this command")
    for section, (allowed, required) in schema.items():
        present = cfg.section(section)
        for key in present:
            if key not in allowed:
                lineno = cfg.line_of(section, key)
                where = f"line {lineno}: " if lineno else ""
                raise ConfigError(f"{where}unknown key {key!r} in [{section}]")
        if required and section not in cfg.sections:
            raise ConfigError(f"missing section [{section}]")
        for key in sorted(required):
            if key not in present:
                raise ConfigError(f"missing key {key!r} in [{section}]")


def get_float(section: dict[str, str], key: str, default: float | None = None) -> float | None:
    if key not in section:
        return default
    try:
        value = float(section[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected a number, got {section[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: expected a finite number, got {section[key]!r}")
    return value


def get_int(section: dict[str, str], key: str, default: int | None = None) -> int | None:
    if key not in section:
        return default
    try:
        return int(section[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected an integer, got {section[key]!r}") from exc


def get_floats(section: dict[str, str], key: str) -> tuple[float, ...]:
    if key not in section or not section[key].strip():
        return ()
    try:
        values = tuple(float(s) for s in section[key].split(","))
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected comma-separated numbers") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"key {key!r}: expected finite numbers, got {section[key]!r}")
    return values
