"""Typed records: the run config, a checkpoint's encoder config and meta, and
a manifest header are all read from JSON data by these rules.

Keys and value types come from dataclass fields. An unknown key, a missing
one (where a record must be complete) or a wrong-typed value raises
SchemaError naming its dotted path. Lists become tuples and ints floats;
nothing else is coerced. A float field refuses the `NaN`, `Infinity` and
`1e999` that `json.loads` reads, and a bool is not an int. A record's
`__post_init__` checks its integer lower bounds with `at_least`, and `read`
puts the record's dotted path in front of what it refuses.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from typing import Any, Mapping

from .errors import CelError, InvalidParamError, SchemaError

_hints = functools.cache(typing.get_type_hints)


def plain(value: Any) -> Any:
    """A record as JSON data: dataclasses as dicts, tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [plain(v) for v in value]
    return value


def read(doc: Any, base: Any, path: str) -> Any:
    """`base`, a dataclass, with the fields the mapping `doc` sets.

    Nested dataclass fields are read the same way, over `base`'s own. A
    CelError raised by the record's own construction is raised again, as the
    same class, with the record's dotted path in front of its message.
    """
    if not isinstance(doc, Mapping):
        raise SchemaError(f"config key '{path}' must be a mapping, got {type(doc).__name__}")
    prefix = f"{path}." if path else ""
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(base)})
    if unknown:
        raise SchemaError(f"unknown config key '{prefix}{unknown[0]}'")
    hints = _hints(type(base))
    values = {
        name: read(value, getattr(base, name), prefix + name)
        if dataclasses.is_dataclass(hints[name]) else check(value, hints[name], prefix + name)
        for name, value in doc.items()
    }
    try:
        return dataclasses.replace(base, **values)
    except CelError as exc:  # the record's own check, named by its dotted path
        raise type(exc)(f"{path}: {exc}" if path else str(exc)) from exc


def read_record(doc: Any, cls: type, path: str) -> Any:
    """A `cls` read from the mapping `doc`, which must set every field."""
    for f in dataclasses.fields(cls):
        if isinstance(doc, Mapping) and f.name not in doc:
            raise SchemaError(f"config key '{path}.{f.name}' is missing")
    return read(doc, cls(), path)


def check(value: Any, hint: Any, key: str) -> Any:
    """`value` as the type `hint`, or a SchemaError naming `key`."""
    want = hint
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(hint):
            return None
        (hint,) = (t for t in typing.get_args(hint) if t is not type(None))
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if isinstance(value, (list, tuple)):
            kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
            if len(kinds) == len(value):
                return tuple(check(v, t, key) for v, t in zip(value, kinds))
    elif hint is float and type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
        raise SchemaError(f"config key '{key}' must be a finite float, got {value!r}")
    elif type(value) is hint:
        return value
    name = want.__name__ if typing.get_origin(want) is None else str(want)
    raise SchemaError(f"config key '{key}' must be {name}, got {value!r}")


def at_least(record: Any, minimum: int, *names: str) -> None:
    """Refuse `record` with InvalidParamError if one of its fields `names` is below `minimum`."""
    for name in names:
        value = getattr(record, name)
        if value < minimum:
            raise InvalidParamError(f"{name} must be at least {minimum}, got {value}")
