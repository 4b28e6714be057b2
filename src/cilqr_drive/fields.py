"""Ranges declared once, on dataclass fields, read by `check_fields` and
by the config registry.  `ranged(kind, default)` declares one of KINDS on
a field, or a tuple of kinds (one per entry) on a tuple field.
"""

from __future__ import annotations

import dataclasses
import math
import operator

# kind -> (the cast a value is stored through, its range, its wording)
KINDS = {
    "finite": (float, math.isfinite, "finite"),
    "positive": (float, lambda v: v > 0.0, "strictly positive"),
    "nonneg": (float, lambda v: v >= 0.0, "nonnegative"),
    "count": (operator.index, lambda v: v >= 1, "an integer >= 1"),
    "index": (operator.index, lambda v: v >= 0, "nonnegative"),
}


def ranged(kind, default=dataclasses.MISSING):
    return dataclasses.field(default=default, metadata={"kind": kind})


def _checked(kind: str, value, name: str):
    """value through kind's cast; ValueError naming name if out of range."""
    cast, in_range, words = KINDS[kind]
    if ((cast is float or isinstance(value, float))
            and not math.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    try:
        value = cast(value)         # numpy integers pass operator.index
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if not in_range(value):
        raise ValueError(f"{name} must be {words}")
    return value


def check_fields(obj) -> None:
    """Check obj's declared fields in order, storing a scalar as an int or
    a float; a field whose default is None may stay None."""
    for field in dataclasses.fields(obj):
        kind, value = field.metadata.get("kind"), getattr(obj, field.name)
        if kind is None or value is None and field.default is None:
            continue
        if not isinstance(kind, tuple):
            object.__setattr__(obj, field.name,
                               _checked(kind, value, field.name))
            continue
        for entry_kind, entry in zip(kind, value):
            _checked(entry_kind, entry, field.name)
        if len(value) != len(kind):
            raise ValueError(f"{field.name} must hold {len(kind)} entries")
