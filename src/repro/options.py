"""Typed options: the one base of every frozen settings dataclass.

:class:`Options` checks, serializes and loads a dataclass from its field
annotations; :class:`~repro.config.SimulatorConfig`, the fault profiles
of :mod:`repro.faultinject` and :class:`~repro.loadgen.LoadgenPlan`
derive from it and keep only the rules an annotation cannot state.

* ``int``: a non-negative int (``seed`` any int); ``float``: a finite
  number ``>= 0``; ``bool``: a bool, which passes for nothing else;
* ``str`` / ``Literal[...]``: a string / one of the listed strings;
* ``tuple[int, ...]``, ``dict[int, float]`` and a nested
  :class:`Options` type, which :meth:`Options.to_dict` writes as a
  list, an object with sorted decimal-string keys and a dict of fields
  (the constructor takes those forms too);
* ``X | None``: ``None`` or what ``X`` admits.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, Literal, NamedTuple

from .errors import ConfigurationError


def _same(value: object) -> object:
    return value


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return (_is_int(value) or isinstance(value, float)) \
        and math.isfinite(value) and value >= 0


def _number(text: str) -> object:
    try:
        return int(text)
    except ValueError:
        return float(text)


def _int_key(key: object) -> object:
    """A decimal-string object key back to an int."""
    return int(key) if isinstance(key, str) and key.isdecimal() else key


class _Type(NamedTuple):
    """How one annotation is checked and converted."""

    want: str
    ok: Callable[[object], bool]
    #: value -> its :meth:`Options.to_dict` form
    encode: Callable[[object], object] = _same
    #: a dict form (or anything else, unchanged) -> the value to check
    decode: Callable[[object], object] = _same
    #: one inline ``key=value`` text -> value (:meth:`Options.load`)
    parse: Callable[[str], object] = _number


def _type(hint: object, name: str) -> _Type:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        base = _type(inner, name)

        def optional(convert):
            return lambda value: None if value is None else convert(value)
        return _Type(f"{base.want} or None",
                     lambda value: value is None or base.ok(value),
                     optional(base.encode), optional(base.decode))
    if origin is Literal:
        return _Type(f"one of {', '.join(map(repr, args))}",
                     lambda value: isinstance(value, str) and value in args)
    if isinstance(hint, type) and issubclass(hint, Options):
        return _Type(f"a {hint.__name__} or a dict of its fields",
                     lambda value: isinstance(value, hint),
                     lambda value: value.to_dict(),
                     lambda value: hint.from_dict(value)
                     if isinstance(value, dict) else value)
    if hint == tuple[int, ...]:
        return _Type("a tuple of ints",
                     lambda value: isinstance(value, tuple)
                     and all(map(_is_int, value)),
                     list,
                     lambda value: tuple(value)
                     if isinstance(value, list) else value,
                     lambda text: tuple(int(part)
                                        for part in text.split("+") if part))
    if hint == dict[int, float]:
        return _Type("an object of int keys to finite numbers >= 0",
                     lambda value: isinstance(value, dict)
                     and all(map(_is_int, value))
                     and all(map(_is_number, value.values())),
                     lambda value: {str(key): float(number)
                                    for key, number in sorted(value.items())},
                     lambda value: {_int_key(key): number
                                    for key, number in value.items()}
                     if isinstance(value, dict) else value)
    if hint is bool:
        return _Type("a bool", lambda value: isinstance(value, bool))
    if hint is str:
        return _Type("a string", lambda value: isinstance(value, str))
    if hint is int and name == "seed":
        return _Type("an int", _is_int)
    if hint is int:
        return _Type("a non-negative int",
                     lambda value: _is_int(value) and value >= 0)
    if hint is float:
        return _Type("a finite number >= 0", _is_number)
    raise TypeError(f"no options check for {name}: {hint!r}")


@functools.cache
def _field_types(cls: type) -> dict[str, _Type]:
    """Each field's :class:`_Type`, built once per class."""
    hints = typing.get_type_hints(cls)
    return {spec.name: _type(hints[spec.name], spec.name)
            for spec in dataclasses.fields(cls)}


@dataclass(frozen=True)
class Options:
    """Base of the frozen, annotation-checked settings dataclasses.

    A subclass declares its fields and its own rules (extending
    :meth:`validate`); the base does the rest.
    """

    #: Named instances :meth:`load` resolves (set after each subclass).
    named: ClassVar[dict[str, "Options"]] = {}
    #: What error messages call this options type.
    kind: ClassVar[str] = "options"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError`, naming the field, on a value
        its annotation does not admit (see the module docstring); a
        field given in its dict form is stored decoded."""
        for name, hint in _field_types(type(self)).items():
            given = getattr(self, name)
            value = hint.decode(given)
            if not hint.ok(value):
                raise ConfigurationError(
                    f"{self.kind} {name} must be {hint.want}, "
                    f"got {given!r}")
            if value is not given:
                object.__setattr__(self, name, value)

    def replace(self, **changes: object) -> "Options":
        """Validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_dict(cls, fields: object) -> "Options":
        """Build (and validate) an instance from plain JSON-able fields,
        the inverse of :meth:`to_dict`."""
        if not isinstance(fields, dict):
            raise ConfigurationError(
                f"{cls.kind} must be a JSON object, got "
                f"{type(fields).__name__}")
        unknown = set(fields) - set(_field_types(cls))
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.kind} fields: {sorted(unknown)}")
        return cls(**fields)

    def to_dict(self) -> dict:
        """Every field as plain JSON-able values, in declaration order."""
        return {name: hint.encode(getattr(self, name))
                for name, hint in _field_types(type(self)).items()}

    @classmethod
    def load(cls, spec: "str | dict | Options",
             seed: int | None = None) -> "Options":
        """Resolve a CLI/user spec into a validated instance.

        ``spec`` may be an instance, a dict of fields, a name from
        :attr:`named`, an inline ``key=value[,key=value...]`` string, or
        a JSON file path.  ``seed`` overrides the instance's seed when
        given.
        """
        if isinstance(spec, cls):
            options = spec
        elif isinstance(spec, dict):
            options = cls.from_dict(spec)
        elif spec in cls.named:
            options = cls.named[spec]
        elif "=" in spec:
            hints = _field_types(cls)
            fields: dict[str, object] = {}
            for pair in spec.split(","):
                key, sep, value = pair.partition("=")
                key, value = key.strip(), value.strip()
                if not sep:
                    raise ConfigurationError(
                        f"bad {cls.kind} assignment {pair!r}")
                try:
                    fields[key] = hints[key].parse(value) \
                        if key in hints else value
                except ValueError:
                    raise ConfigurationError(
                        f"{key}={value!r} is not a number") from None
            options = cls.from_dict(fields)
        elif Path(spec).is_file():
            try:
                fields = json.loads(Path(spec).read_text())
            except ValueError as exc:
                raise ConfigurationError(
                    f"{cls.kind} file {spec!r} is not JSON: {exc}") from None
            options = cls.from_dict(fields)
        else:
            raise ConfigurationError(
                f"{cls.kind} {spec!r} is neither a named profile "
                f"({', '.join(sorted(cls.named))}), a key=value list, nor "
                "a JSON file")
        if seed is not None and seed != options.seed:
            options = options.replace(seed=seed)
        return options
