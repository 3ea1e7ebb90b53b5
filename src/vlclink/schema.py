"""Build frozen dataclasses from JSON blocks, checking them field by field.

The dataclasses are the only schema: field names, annotations and defaults
come from `dataclasses.fields`, so no key or default is written twice.
"""

import json
import typing
from dataclasses import MISSING, fields, is_dataclass, replace

import numpy as np

from .errors import ConfigError, ParameterError

_EXPECTED = {int: "an integer", float: "a finite number",
             bool: "true or false", str: "a string"}


def checked(value, kind, path, unbounded=False):
    """`value` if it is JSON of the annotated `kind`, else a ConfigError.

    An int excludes bools; a float is any finite non-bool number (or
    "inf"/Infinity when `unbounded`); `list[X]` and `X | None` recurse.
    """
    args = typing.get_args(kind)
    if type(None) in args:
        return None if value is None else checked(value, args[0], path)
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(path, "expected a list")
        return [checked(v, args[0], f"{path}[{i}]")
                for i, v in enumerate(value)]
    if unbounded and value == "inf":
        return np.inf
    if kind is float:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (-np.inf < value < np.inf or unbounded and value == np.inf))
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(path, f"expected {_EXPECTED[kind]}")
    return value


def section(cls, doc, path, base=None, unbounded=()):
    """Build the dataclass `cls` from the JSON object `doc` found at `path`.

    Every key must name a field and every value must fit the field's
    annotation (nested dataclasses recurse, with block paths like
    `channel.model`; a field whose metadata holds a `load(doc, path)`
    function is built by it).  A field without a default is required;
    absent fields keep the default of `base` when given, else the
    dataclass's own.  Float fields named in `unbounded` also take "inf".
    A ParameterError from the dataclass's own checks becomes a ConfigError
    at `path`; a `choices` entry in a field's metadata lists its values.
    """
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected a JSON object")
    spec = {f.name: f for f in fields(cls)}
    for key in doc:
        if key not in spec:
            raise ConfigError(f"{path}.{key}", "unknown key")
    values = {}
    for name, f in spec.items():
        where = f"{path}.{name}"
        if name not in doc:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(where, "missing required entry")
            continue
        block = name if path == "$" else where
        if "load" in f.metadata:
            values[name] = f.metadata["load"](doc[name], block)
        elif is_dataclass(f.type):
            values[name] = section(f.type, doc[name], block)
        else:
            values[name] = checked(doc[name], f.type, where,
                                   name in unbounded)
        choices = f.metadata.get("choices")
        if choices and values[name] not in choices:
            raise ConfigError(where, "expected one of "
                              + ", ".join(map(json.dumps, choices)))
    try:
        return cls(**values) if base is None else replace(base, **values)
    except ParameterError as exc:
        raise ConfigError(path, str(exc)) from exc
