"""Fault-injection profiles.

:class:`Profile` is the one base of every profile type in this package;
its validation, loading and dict round trip follow the field annotations.
A :class:`FaultProfile` is a frozen, validated bundle of injection rates
(what goes wrong, how often) and resilience policy (how the driver fights
back).  Profiles are deterministic: the same profile and seed produce the
same injected fault sequence on every run, which is what makes resilience
experiments reproducible.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from ..errors import ConfigurationError


@functools.cache
def _field_types(cls: type) -> dict[str, object]:
    hints = typing.get_type_hints(cls)
    return {spec.name: hints[spec.name] for spec in dataclasses.fields(cls)}


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse(hint: object, key: str, text: str) -> object:
    """One inline ``key=value`` value; ``a+b`` lists a tuple field."""
    try:
        if hint == tuple[int, ...]:
            return tuple(int(part) for part in text.split("+") if part)
        try:
            return int(text)
        except ValueError:
            return float(text)
    except ValueError:
        raise ConfigurationError(
            f"{key}={text!r} is not a number") from None


@dataclass(frozen=True)
class Profile:
    """Base of the frozen, seeded profile dataclasses.

    A subclass declares its fields, its decisions and its own ranges
    (extending :meth:`validate`); the base does the rest.
    """

    #: Named instances :meth:`load` resolves (set after each subclass).
    named: ClassVar[dict[str, "Profile"]] = {}
    #: What error messages call this profile type.
    kind: ClassVar[str] = "profile"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on an ill-typed field: ``int``
        fields are non-negative ints (``seed`` any int), ``float`` fields
        finite and ``>= 0``, and ``bool`` never passes for a number."""
        for name, hint in _field_types(type(self)).items():
            value = getattr(self, name)
            if hint is int:
                ok = _is_int(value) and (value >= 0 or name == "seed")
                want = "an int" if name == "seed" else "a non-negative int"
            elif hint is float:
                ok = (_is_int(value) or isinstance(value, float)) \
                    and math.isfinite(value) and value >= 0
                want = "a finite number >= 0"
            else:  # tuple[int, ...]
                ok = isinstance(value, tuple) \
                    and all(_is_int(item) for item in value)
                want = "a tuple of ints"
            if not ok:
                raise ConfigurationError(
                    f"{self.kind} {name} must be {want}, got {value!r}")

    def replace(self, **changes: object) -> "Profile":
        """Validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_dict(cls, fields: object) -> "Profile":
        """Build (and validate) a profile from plain JSON-able fields."""
        if not isinstance(fields, dict):
            raise ConfigurationError(
                f"{cls.kind} must be a JSON object, got "
                f"{type(fields).__name__}")
        unknown = set(fields) - set(_field_types(cls))
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.kind} fields: {sorted(unknown)}")
        return cls(**{name: tuple(value) if isinstance(value, list)
                      else value for name, value in fields.items()})

    def to_dict(self) -> dict:
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in dataclasses.asdict(self).items()}

    @classmethod
    def load(cls, spec: "str | dict | Profile",
             seed: int | None = None) -> "Profile":
        """Resolve a CLI/user spec into a validated profile.

        ``spec`` may be an instance, a dict of fields, a name from
        :attr:`named`, an inline ``key=value[,key=value...]`` string, or
        a JSON file path.  ``seed`` overrides the profile's seed when
        given.
        """
        if isinstance(spec, cls):
            profile = spec
        elif isinstance(spec, dict):
            profile = cls.from_dict(spec)
        elif spec in cls.named:
            profile = cls.named[spec]
        elif "=" in spec:
            types = _field_types(cls)
            fields: dict[str, object] = {}
            for pair in spec.split(","):
                key, sep, value = pair.partition("=")
                key, value = key.strip(), value.strip()
                if not sep:
                    raise ConfigurationError(
                        f"bad {cls.kind} assignment {pair!r}")
                fields[key] = _parse(types[key], key, value) \
                    if key in types else value
            profile = cls.from_dict(fields)
        elif Path(spec).is_file():
            try:
                fields = json.loads(Path(spec).read_text())
            except ValueError as exc:
                raise ConfigurationError(
                    f"{cls.kind} file {spec!r} is not JSON: {exc}") from None
            profile = cls.from_dict(fields)
        else:
            raise ConfigurationError(
                f"{cls.kind} {spec!r} is neither a named profile "
                f"({', '.join(sorted(cls.named))}), a key=value list, nor "
                "a JSON file")
        if seed is not None and seed != profile.seed:
            profile = profile.replace(seed=seed)
        return profile


@dataclass(frozen=True)
class FaultProfile(Profile):
    """What to inject, and how the driver is allowed to recover.

    All rates (the ``*_rate`` fields) are per-opportunity probabilities
    drawn from one dedicated RNG stream (``seed``), independent of the
    policy RNG, so enabling injection never perturbs the random
    prefetcher/eviction decisions.
    """

    # --- injection (what goes wrong) ---------------------------------------
    #: Probability one H2D migration transfer fails in flight (the data
    #: never lands; the driver must retry).  D2H write-backs are not failed
    #: — their frames release on a fixed schedule the retry path would
    #: have to unwind — but they do suffer latency spikes.
    transfer_fault_rate: float = 0.0
    #: Probability a transfer (either channel) takes
    #: ``latency_spike_multiplier`` times its modelled latency.
    latency_spike_rate: float = 0.0
    latency_spike_multiplier: float = 4.0
    #: Probability a *new* far-fault's notification to the host is lost
    #: (the warp stays blocked; the fault is redelivered after
    #: ``fault_redelivery_ns``).
    fault_drop_rate: float = 0.0
    #: Probability a new far-fault is delivered to the driver twice.
    fault_duplicate_rate: float = 0.0
    #: Probability the GPU fault buffer transiently overflows on a new
    #: fault: same lost-notification mechanics as a drop, counted apart.
    mshr_overflow_rate: float = 0.0
    #: Probability the driver's batch-service wake-up is delayed by
    #: ``service_delay_ns``.
    service_delay_rate: float = 0.0
    service_delay_ns: float = 100_000.0
    #: Redelivery latency for lost far-fault notifications.
    fault_redelivery_ns: float = 50_000.0

    # --- resilience (how the driver recovers) ------------------------------
    #: Retries per transfer group before :class:`RetryExhaustedError`.
    max_retries: int = 8
    #: Capped exponential backoff between retries, in simulated ns:
    #: ``min(base * multiplier**(attempt-1), cap)``.
    backoff_base_ns: float = 10_000.0
    backoff_multiplier: float = 2.0
    backoff_cap_ns: float = 1_000_000.0
    #: Consecutive failed transfers before the driver degrades from the
    #: active prefetcher to on-demand paging (0 disables degradation).
    degrade_after_failures: int = 4

    #: Seed of the injection RNG stream.
    seed: int = 0

    kind: ClassVar[str] = "fault profile"

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any inconsistent rate."""
        super().validate()
        for name, value in self._rates().items():
            if value > 1.0:
                raise ConfigurationError(
                    f"fault profile {name} must be in [0, 1], got {value!r}")
        for name in ("latency_spike_multiplier", "backoff_multiplier"):
            if getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must be >= 1")

    def _rates(self) -> dict[str, float]:
        """The injection probabilities, by field name."""
        return {name: getattr(self, name) for name in _field_types(type(self))
                if name.endswith("_rate")}

    @property
    def injects_anything(self) -> bool:
        """True when at least one injection rate is nonzero."""
        return any(rate > 0.0 for rate in self._rates().values())

    def backoff_ns(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), capped."""
        if attempt < 1:
            raise ConfigurationError("retry attempts are 1-based")
        try:
            raw = self.backoff_base_ns \
                * self.backoff_multiplier ** (attempt - 1)
        except OverflowError:
            # multiplier**attempt exceeds float range long after the cap
            # has taken over (a retry storm with a huge max_retries)
            raw = self.backoff_cap_ns
        return min(raw, self.backoff_cap_ns)


#: Named profiles for the CLI and experiments, roughly graded by severity.
PROFILES: dict[str, FaultProfile] = {
    "light": FaultProfile(
        transfer_fault_rate=0.01, latency_spike_rate=0.02,
        fault_drop_rate=0.005,
    ),
    "moderate": FaultProfile(
        transfer_fault_rate=0.05, latency_spike_rate=0.05,
        fault_drop_rate=0.02, fault_duplicate_rate=0.02,
        service_delay_rate=0.05,
    ),
    "heavy": FaultProfile(
        transfer_fault_rate=0.15, latency_spike_rate=0.10,
        fault_drop_rate=0.05, fault_duplicate_rate=0.05,
        mshr_overflow_rate=0.02, service_delay_rate=0.10,
    ),
}

FaultProfile.named = PROFILES
