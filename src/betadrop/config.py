"""JSON run-configuration loading and validation.

The committed schema (config_schema.json) is the single source of defaults;
unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import math
from importlib import resources

from .errors import BetadropError


class ConfigError(BetadropError, ValueError):
    """Malformed or invalid run configuration (a usage error)."""


def _schema() -> dict:
    with resources.files("betadrop").joinpath("config_schema.json").open("rb") as fh:
        return json.load(fh)


def _is_int(v) -> bool:
    return type(v) is int and v >= 0  # type(), not isinstance(): true is a bool, not an int


def _is_number(v) -> bool:
    return type(v) is int or type(v) is float and math.isfinite(v)


# kind -> (how an error message names it, its test)
_KINDS = {
    "null": ("null", lambda v: v is None),
    "string": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("a non-negative integer", _is_int),
    "number": ("a finite number", _is_number),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "list:int": ("a list of non-negative integers",
                 lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "list:number": ("a list of finite numbers",
                    lambda v: isinstance(v, list) and all(map(_is_number, v))),
}


def check_json(value, kinds, what: str, error: type = ConfigError, choices=None):
    """``value`` if it is one of ``choices`` (when given) and of the JSON
    ``kinds``; otherwise raise ``error`` naming ``what``.

    The kinds are the schema's: null, string, bool, int (non-negative),
    number (finite), object, list, list:int and list:number.
    """
    if choices is not None and value not in choices:
        raise error(f"{what} must be one of {choices!r}, got {value!r}")
    if not any(_KINDS[kind][1](value) for kind in kinds):
        expected = " or ".join(_KINDS[kind][0] for kind in kinds)
        raise error(f"{what} must be {expected}, got {value!r}")
    return value


def _validate_section(user, schema_fields: dict, path: str) -> dict:
    """``user`` checked against ``schema_fields``, defaults filled in; a field
    with ``fields`` of its own is a nested section."""
    out = {}
    for key, value in user.items():
        if key not in schema_fields:
            raise ConfigError(f"unknown config {'key' if path else 'section'} {path}{key!r}")
        spec = schema_fields[key]
        if "fields" in spec:
            check_json(value, ["object"], f"config section {key!r}")
            out[key] = _validate_section(value, spec["fields"], f"{key}.")
        else:
            out[key] = check_json(value, spec["type"], f"config key {path}{key!r}",
                                  choices=spec.get("choices"))
    for key, spec in schema_fields.items():
        if key not in out:
            out[key] = (_validate_section({}, spec["fields"], f"{key}.")
                        if "fields" in spec else spec["default"])
    return out


def validate_config(raw) -> dict:
    """Fill defaults and reject unknown keys, wrong kinds and bad choices."""
    return _validate_section(check_json(raw, ["object"], "config root"), _schema(), "")


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        )
    return validate_config(raw)


def describe_defaults() -> str:
    """Human-readable key/default/doc listing used by --help."""
    schema = _schema()
    lines = []
    for section, spec in schema.items():
        if "fields" in spec:
            lines.append(f"{section}:  {spec.get('_doc', '')}")
            for key, fs in spec["fields"].items():
                lines.append(
                    f"  {key} (default {json.dumps(fs['default'])}): {fs.get('doc', '')}"
                )
        else:
            lines.append(
                f"{section} (default {json.dumps(spec['default'])}): {spec.get('doc', '')}"
            )
    return "\n".join(lines)
