"""Name registry: protocol tokens <-> protocol instances.

The CLI (``--protocol``), the campaign cache key, and sweep grids all
identify protocols by their canonical **token** — ``"flooding"``,
``"push-pull"``, ``"p-flood(transmit_probability=0.3)"``, ... — and
this module resolves tokens back into instances.

Accepted spellings for :func:`resolve_protocol`:

* a :class:`~repro.protocols.base.SpreadingProtocol` instance
  (returned unchanged);
* a bare family name — default parameters
  (``"push-pull"`` -> ``PushPullGossip()``);
* ``name(key=value, ...)`` or the CLI-friendly ``name:key=value,...`` —
  explicit parameters, parsed as int, then float, then bare string
  (``"p-flood:transmit_probability=0.3"``); naming a parameter twice is
  an error.
"""

from __future__ import annotations

from typing import Iterable

from repro.protocols.base import FLOODING, Flooding, SpreadingProtocol
from repro.protocols.zoo import (
    ExpiringFlooding,
    ProbabilisticFlooding,
    PullGossip,
    PushGossip,
    PushPullGossip,
)
from repro.util.validation import require

__all__ = [
    "register_protocol",
    "protocol_names",
    "resolve_protocol",
    "default_zoo",
]

_NAMES: dict[str, type[SpreadingProtocol]] = {}


def register_protocol(protocol_type: type[SpreadingProtocol]) -> None:
    """Register *protocol_type* under its class-level ``name``.

    Re-registering a name replaces the class (last one wins), keeping
    module re-imports idempotent.
    """
    require(isinstance(protocol_type, type)
            and issubclass(protocol_type, SpreadingProtocol),
            "protocol_type must be a SpreadingProtocol subclass")
    require(bool(protocol_type.name), "protocol class must set a name")
    _NAMES[protocol_type.name] = protocol_type


def protocol_names() -> tuple[str, ...]:
    """Registered family names, registration order."""
    return tuple(_NAMES)


def _parse_value(text: str) -> int | float | str:
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text.strip("'\"")


def _parse_token(token: str) -> tuple[str, dict]:
    token = token.strip()
    if ":" in token:
        name, _, body = token.partition(":")
    elif token.endswith(")") and "(" in token:
        name, _, body = token[:-1].partition("(")
    else:
        return token, {}
    params = {}
    for item in filter(None, (part.strip() for part in body.split(","))):
        key, sep, value = item.partition("=")
        require(bool(sep), f"malformed protocol parameter {item!r} in {token!r}")
        key = key.strip()
        require(key not in params,
                f"repeated protocol parameter {key!r} in {token!r}")
        params[key] = _parse_value(value.strip())
    return name.strip(), params


def resolve_protocol(spec: "str | SpreadingProtocol") -> SpreadingProtocol:
    """Resolve a token (or pass an instance through) to a protocol.

    Raises
    ------
    ValueError
        On an unknown family name or parameters the protocol class
        rejects.
    """
    if isinstance(spec, SpreadingProtocol):
        return spec
    name, params = _parse_token(str(spec))
    require(name in _NAMES,
            f"unknown protocol {name!r} (known: {', '.join(_NAMES)})")
    if not params and name == Flooding.name:
        return FLOODING
    try:
        return _NAMES[name](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for protocol {name!r}: {exc}") from exc


def default_zoo() -> tuple[SpreadingProtocol, ...]:
    """Flooding plus the built-in zoo at default parameters — the
    battery the E16 experiment compares."""
    return (FLOODING, ProbabilisticFlooding(), ExpiringFlooding(),
            PushGossip(), PullGossip(), PushPullGossip())


for _cls in (Flooding, ProbabilisticFlooding, ExpiringFlooding,
             PushGossip, PullGossip, PushPullGossip):
    register_protocol(_cls)
del _cls
