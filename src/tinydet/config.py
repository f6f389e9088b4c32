"""The one reader of config dataclasses from JSON.

``dataclasses.asdict`` is the writer: every config that goes to disk (the
dataset manifest's ``spec``, the checkpoint manifest's ``config``) is its
``asdict``, and every config that comes in (those two and each ``--config``
section) is read back through ``from_dict``, which accepts exactly what the
dataclass declares and raises ``ValueError`` for anything else.
"""

from __future__ import annotations

import dataclasses
import sys
import typing

__all__ = ["from_dict", "coerce", "fits_float64"]


def fits_float64(value) -> bool:
    """Whether a JSON number fits a float64: an integer past ±1.8e308 does not."""
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def coerce(value, hint, where: str):
    """``value`` checked against the type ``hint``: arrays become tuples and
    objects become nested config dataclasses; a float field takes an int."""
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where}: expected an array, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(coerce(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    allowed = (int, float) if hint is float else hint
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, allowed):
        raise ValueError(f"{where}: expected {getattr(hint, '__name__', hint)}, got {value!r}")
    if isinstance(value, int) and not fits_float64(value):
        raise ValueError(f"{where}: the integer does not fit a float64")
    return value


def from_dict(cls, payload, where: str, **fixed):
    """Build the dataclass ``cls`` from a JSON object.

    ``fixed`` holds the fields a command-line flag sets (``seed``); the payload
    may not spell them.  Unknown keys, values of the wrong type and values the
    constructor rejects raise ``ValueError`` naming ``where``.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{where}: expected an object, got {payload!r}")
    hints = typing.get_type_hints(cls)
    known = [f.name for f in dataclasses.fields(cls) if f.name not in fixed]
    kwargs = dict(fixed)
    for key, value in payload.items():
        if key in fixed:
            raise ValueError(f"{where}: {key!r} is set on the command line, not in a config")
        if key not in known:
            raise ValueError(f"{where}: unknown key {key!r}; known keys: {', '.join(known)}")
        kwargs[key] = coerce(value, hints[key], f"{where}.{key}")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from e
