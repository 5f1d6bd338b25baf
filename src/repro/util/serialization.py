"""Payload serialization with size accounting.

Globus Compute limits the size of serialized task arguments and results
(about 10 MB at the time of the paper). We model that limit: payloads are
serialized to a JSON-like canonical text, their size measured, and the FaaS
layer rejects oversized payloads with :class:`repro.errors.PayloadTooLarge`.

Only JSON-compatible data plus tuples/bytes are supported; remote functions
in this simulation exchange plain data, mirroring how CORRECT passes shell
commands in and stdout/stderr text out.
"""

from __future__ import annotations

import base64
import json
from typing import Any

# Matches Globus Compute's documented task/result payload ceiling.
DEFAULT_PAYLOAD_LIMIT = 10 * 1024 * 1024

_INF = float("inf")
_NEG_INF = float("-inf")


def _encode(value: Any) -> Any:
    """Pre-transform values json would mis-serialize (tuples become lists
    natively, so an encoder ``default`` hook never sees them)."""
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(v) for v in value]}
    if isinstance(value, set):
        return {"__set__": [_encode(v) for v in sorted(value, key=repr)]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _decode_hook(obj: dict) -> Any:
    if "__bytes__" in obj and len(obj) == 1:
        return base64.b64decode(obj["__bytes__"])
    if "__tuple__" in obj and len(obj) == 1:
        return tuple(obj["__tuple__"])
    if "__set__" in obj and len(obj) == 1:
        return set(obj["__set__"])
    return obj


# Canonical text of a value that is already plain JSON (no encode walk).
# json.dumps(..., sort_keys=True) constructs a fresh JSONEncoder per
# call; this one is built once and produces identical text.
canonical_dumps = json.JSONEncoder(sort_keys=True).encode

_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def is_flat_record(value: Any) -> bool:
    """True for a dict of ``str`` keys to plain scalars — a value that is
    its own plain-JSON form, so neither the encode walk nor a json
    round-trip changes it."""
    if type(value) is not dict:
        return False
    for key, item in value.items():
        if type(key) is not str or type(item) not in _SCALAR_TYPES:
            return False
    return True


def serialize(value: Any) -> str:
    """Serialize ``value`` to canonical text.

    Raises ``TypeError`` for objects that are not data (open handles, live
    simulation objects...) — remote task payloads must be plain data.
    """
    return canonical_dumps(_encode(value))


def deserialize(text: str) -> Any:
    """Inverse of :func:`serialize`."""
    return json.loads(text, object_hook=_decode_hook)


_PLAIN_TYPES = (str, int, float, bool)


def serialize_call(args: tuple, kwargs: dict) -> str:
    """Canonical payload text for one function call.

    Byte-identical to ``serialize({"args": list(args), "kwargs":
    kwargs})``, but calls whose arguments are all plain scalars — the
    overwhelmingly common case — skip the recursive encode walk, since
    json renders scalars identically with or without it.
    """
    for value in args:
        if value is not None and type(value) not in _PLAIN_TYPES:
            return serialize({"args": list(args), "kwargs": kwargs})
    for value in kwargs.values():
        if value is not None and type(value) not in _PLAIN_TYPES:
            return serialize({"args": list(args), "kwargs": kwargs})
    return canonical_dumps({"args": list(args), "kwargs": kwargs})


def serialized_size(value: Any) -> int:
    """Size in bytes of the serialized representation of ``value``."""
    # Scalars (the overwhelmingly common task result shape) need neither
    # the encode walk nor a json render: json writes finite floats and
    # ints via repr, booleans as true/false (same lengths as True/False),
    # and null for None.
    t = type(value)
    if t is float:
        if value == value and value not in (_INF, _NEG_INF):
            return len(repr(value))
        return len(json.dumps(value))  # nan/inf render as NaN/Infinity
    if t is int or t is bool:
        return len(repr(value))
    if value is None:
        return 4
    if t is str:
        return len(json.dumps(value).encode("utf-8"))
    return len(serialize(value).encode("utf-8"))
