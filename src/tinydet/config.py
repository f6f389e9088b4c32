"""The one reader of dataclasses from JSON.

``dataclasses.asdict`` is the writer: every record that goes to disk is the
``asdict`` of a dataclass.  ``from_dict`` is the reader of a dataset's
``annotations.json`` (``Annotations``) and ``manifest.json``
(``DatasetManifest``, whose ``spec`` stays a plain dict that nothing reads),
a checkpoint's ``manifest.json`` (``CheckpointManifest``, its ``config`` a
``DetectorConfig``), and each ``--config`` section; it accepts exactly what
the dataclass declares, a manifest's ``Literal`` ``format`` first, and
raises ``ValueError`` for anything else.  It imports no other tinydet module.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing

__all__ = ["from_dict", "read_json"]


def coerce(value, hint, where: str):
    """``value`` checked against the type ``hint``: arrays become tuples and
    objects become nested dataclasses; a float field takes an int, and a
    ``Literal`` field one of its values."""
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where}: expected an array, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(coerce(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    if typing.get_origin(hint) is typing.Literal:  # of strings: no other type equals one
        if value in typing.get_args(hint):
            return value
        raise ValueError(f"{where} must be {' or '.join(map(repr, typing.get_args(hint)))}, "
                         f"got {value!r}")
    allowed = (int, float) if hint is float else hint
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, allowed):
        raise ValueError(f"{where}: expected {getattr(hint, '__name__', hint)}, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:  # no float64 holds it
        raise ValueError(f"{where}: the integer does not fit a float64")
    return value


def from_dict(cls, payload, where: str, **fixed):
    """Build the dataclass ``cls`` from a JSON object.

    ``fixed`` holds the fields a command-line flag sets (``seed``); the payload
    may not spell them.  Values of the wrong type, missing keys of fields
    without a default, unknown keys and values the constructor rejects raise
    ``ValueError`` naming ``where`` (the empty string for a file's top level)
    and the key path below it.
    """
    name = where or "top level"
    if not isinstance(payload, dict):
        raise ValueError(f"{name}: expected an object, got {payload!r}")
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in fixed]
    known = [f.name for f in fields]
    kwargs = dict(fixed)
    for f in fields:  # in declared order, so a manifest's format is checked first
        if f.name in payload:
            kwargs[f.name] = coerce(payload[f.name], hints[f.name],
                                    f"{where}.{f.name}" if where else f.name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{name}: missing key {f.name!r}")
    for key in payload:
        if key in fixed:
            raise ValueError(f"{name}: {key!r} is set on the command line, not in a config")
        if key not in kwargs:
            raise ValueError(f"{name}: unknown key {key!r}; known keys: {', '.join(known)}")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from e


def read_json(cls, path: str):
    """The dataclass ``cls`` read from the JSON file at ``path``; an unreadable
    file or a record ``from_dict`` rejects raises ValueError naming ``path``."""
    try:
        with open(path) as f:
            payload = json.load(f)
        return from_dict(cls, payload, "")
    except (OSError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from e
