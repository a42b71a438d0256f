"""Fault-injection profiles.

Every profile type in this package derives from
:class:`~repro.options.Options`, whose validation, loading and dict
round trip follow the field annotations.  A :class:`FaultProfile` is a
frozen, validated bundle of injection rates (what goes wrong, how often)
and resilience policy (how the driver fights back).  Profiles are
deterministic: the same profile and seed produce the same injected fault
sequence on every run, which is what makes resilience experiments
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

from ..errors import ConfigurationError
from ..options import Options


@dataclass(frozen=True)
class FaultProfile(Options):
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
        return {spec.name: getattr(self, spec.name)
                for spec in fields(self) if spec.name.endswith("_rate")}

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
