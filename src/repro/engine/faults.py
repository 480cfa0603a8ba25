"""Deterministic fault injection for resilience testing.

The serving stack (scheduler retry/isolation, admission control, the
persistent store's degradation, the network front end) must be provable
in tests and CI,
not only under real crashes.  This module provides a tiny, deterministic
harness: a *fault plan* names failure points that the engine checks at
well-known sites, and every check is inert — one global load and an
identity comparison — unless a plan is active.

Activation
----------
A plan comes from either :func:`install` (programmatic, also used by the
``[resilience]`` config section) or the ``REPRO_FAULTS`` environment
variable, which is read once, on first use.

Spec grammar
------------
Comma-separated specs, each ``kind[:key=value]*``::

    slow_kernel:seconds=0.05          # sleep before one kernel dispatch
    engine_error:times=2              # raise a *transient* FaultInjected twice
    engine_error:after=2              # let 2 kernel calls through, then raise once
    poison_job:match=bad              # jobs whose label contains "bad" always fail
    store_corrupt:times=2             # corrupt 2 persistent-store entries on read
    store_io_error:match=put          # fail one store write with an OSError
    reject_request                    # server refuses one request (503)
    slow_request:seconds=0.2          # server stalls one request before handling
    stream_stall:seconds=0.5          # a stream source stops emitting

``slow_kernel``, ``engine_error``, ``store_corrupt``,
``store_io_error``, ``reject_request`` and ``slow_request`` burn out
after ``times`` triggers (0 = unlimited); ``poison_job`` is persistent
— it models a request that deterministically breaks the engine, so
retrying it never helps and the scheduler must isolate it instead.  The
store kinds target the persistent result store
(:mod:`repro.engine.store`): ``store_corrupt`` flips bytes of an
on-disk entry just before it is read (the checksum must catch it and
quarantine the entry), ``store_io_error`` makes a store IO site raise
``OSError`` (the store must degrade to cache-off, never crash the run).
The request kinds target the network front end
(:mod:`repro.server`): ``reject_request`` makes the server answer one
request with a clean 503 before any scheduler work happens,
``slow_request`` sleeps ``seconds`` before handling — the chaos drills
use them to prove clients see crisp errors/latency, never hangs.
``stream_stall`` targets the streaming subsystem
(:mod:`repro.streaming`): the source goes silent for ``seconds`` before
one emission, which a ``StreamRunner`` with a shorter stall timeout
surfaces as a typed ``StreamStalledError`` instead of hanging the
consumer.  ``match`` restricts any of these to a site substring
(``get`` / ``put`` / ``open`` for the store, the request path — e.g.
``jobs`` — for the server, the source name for streams).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "ENV_VAR",
    "FAULT_KINDS",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "clear",
    "injected",
    "install",
    "kernel_fault",
    "poison_fault",
    "refresh",
    "request_fault",
    "store_fault",
    "stream_fault",
]

#: Environment variable holding a fault plan spec, read on first use.
ENV_VAR = "REPRO_FAULTS"

#: Failure points the harness understands.
FAULT_KINDS = (
    "slow_kernel",
    "engine_error",
    "poison_job",
    "store_corrupt",
    "store_io_error",
    "reject_request",
    "slow_request",
    "stream_stall",
)

#: Keys each spec accepts beyond its kind, with their coercions.
_SPEC_KEYS = {"after": int, "times": int, "seconds": float, "match": str}


class FaultInjected(RuntimeError):
    """An injected failure fired at one of the harness sites.

    ``transient`` mirrors the classification the scheduler's retry
    policy uses: transient faults (``engine_error``) model recoverable
    conditions and are retried; persistent ones (``poison_job``) model
    request-poisoned state and are isolated instead.
    """

    def __init__(self, message: str, *, site: str = "", transient: bool = False):
        super().__init__(message)
        self.site = site
        self.transient = transient


@dataclass
class FaultSpec:
    """One failure point: kind plus trigger bookkeeping."""

    kind: str
    after: int = 0  # calls to let through before the first trigger
    times: int = 1  # triggers before burning out (0 = unlimited)
    seconds: float = 0.0  # slow_kernel sleep duration
    match: str = ""  # poison_job label substring
    fired: int = field(default=0, compare=False)  # triggers so far
    skipped: int = field(default=0, compare=False)  # pass-throughs so far

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known kinds: "
                + ", ".join(FAULT_KINDS)
            )
        if self.after < 0:
            raise ValueError(f"fault {self.kind}: after must be >= 0, got {self.after}")
        if self.times < 0:
            raise ValueError(f"fault {self.kind}: times must be >= 0, got {self.times}")
        if self.seconds < 0:
            raise ValueError(
                f"fault {self.kind}: seconds must be >= 0, got {self.seconds}"
            )
        if self.kind == "poison_job" and not self.match:
            raise ValueError("fault poison_job requires match=<label substring>")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``kind[:key=value]*`` spec."""
        head, *options = text.strip().split(":")
        values: dict[str, object] = {}
        for option in options:
            key, separator, raw = option.partition("=")
            if not separator or key not in _SPEC_KEYS:
                raise ValueError(
                    f"bad fault option {option!r} in {text!r}; expected "
                    "key=value with key in " + ", ".join(sorted(_SPEC_KEYS))
                )
            try:
                values[key] = _SPEC_KEYS[key](raw)
            except ValueError as error:
                raise ValueError(
                    f"bad fault option value {option!r} in {text!r}: {error}"
                ) from None
        return cls(kind=head, **values)  # type: ignore[arg-type]

    @property
    def exhausted(self) -> bool:
        return self.times > 0 and self.fired >= self.times

    def should_fire(self) -> bool:
        """Advance the trigger bookkeeping for one check at this site."""
        if self.exhausted:
            return False
        if self.skipped < self.after:
            self.skipped += 1
            return False
        self.fired += 1
        return True


class FaultPlan:
    """An active set of fault specs, at most one per kind."""

    def __init__(self, specs: Iterable[FaultSpec]):
        self.specs: dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.kind in self.specs:
                raise ValueError(f"duplicate fault kind {spec.kind!r} in plan")
            self.specs[spec.kind] = spec

    @classmethod
    def parse(cls, text: str | None) -> "FaultPlan | None":
        """Parse a comma-separated plan; empty/blank text means no plan."""
        if not text or not text.strip():
            return None
        specs = [FaultSpec.parse(part) for part in text.split(",") if part.strip()]
        return cls(specs) if specs else None

    def get(self, kind: str) -> FaultSpec | None:
        return self.specs.get(kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({list(self.specs.values())!r})"


# Module state: _UNSET means "not yet resolved from the environment";
# None means "resolved, no faults" — the steady state every hot-path
# check short-circuits on with a single identity comparison.
_UNSET: object = object()
_PLAN: "FaultPlan | None | object" = _UNSET
_LOCK = threading.Lock()

def active_plan() -> "FaultPlan | None":
    """The process-wide plan, resolving ``REPRO_FAULTS`` on first use."""
    global _PLAN
    plan = _PLAN
    if plan is _UNSET:
        with _LOCK:
            if _PLAN is _UNSET:
                _PLAN = FaultPlan.parse(os.environ.get(ENV_VAR))
            plan = _PLAN
    return plan  # type: ignore[return-value]


def install(spec: "str | FaultPlan | None") -> "FaultPlan | None":
    """Activate a fault plan (spec string or plan) for this process.

    Installing an empty/None spec clears any active plan.
    """
    global _PLAN
    plan = FaultPlan.parse(spec) if isinstance(spec, str) or spec is None else spec
    with _LOCK:
        _PLAN = plan
    return plan


def clear() -> None:
    """Deactivate fault injection (``REPRO_FAULTS`` is not re-read)."""
    install(None)


def refresh() -> "FaultPlan | None":
    """Drop cached state and re-resolve the plan from the environment."""
    global _PLAN
    with _LOCK:
        _PLAN = _UNSET
    return active_plan()


@contextmanager
def injected(spec: str) -> Iterator["FaultPlan | None"]:
    """Context manager: install a plan, restore the prior one on exit."""
    global _PLAN
    previous_plan = _PLAN
    plan = install(spec)
    try:
        yield plan
    finally:
        with _LOCK:
            _PLAN = previous_plan


# ---------------------------------------------------------------------------
# Hot-path checks.  Each has a one-comparison fast path (``_PLAN is
# None``) so disabled fault injection costs nothing measurable; the
# slow halves live in separate functions to keep the inert path tiny.
# ---------------------------------------------------------------------------


def kernel_fault(site: str = "kernel") -> None:
    """Check the ``slow_kernel`` / ``engine_error`` points at ``site``."""
    if _PLAN is None:
        return
    _kernel_fault_armed(site)


def _kernel_fault_armed(site: str) -> None:
    plan = active_plan()
    if plan is None:
        return
    slow = plan.get("slow_kernel")
    if slow is not None and slow.should_fire():
        time.sleep(slow.seconds)
    error = plan.get("engine_error")
    if error is not None and error.should_fire():
        raise FaultInjected(
            f"injected engine error at {site}", site=site, transient=True
        )


def poison_fault(labels: Iterable[str], site: str = "scheduler") -> None:
    """Check the ``poison_job`` point against a batch's job labels."""
    if _PLAN is None:
        return
    _poison_fault_armed(labels, site)


def _poison_fault_armed(labels: Iterable[str], site: str) -> None:
    plan = active_plan()
    if plan is None:
        return
    spec = plan.get("poison_job")
    if spec is None:
        return
    for label in labels:
        if label and spec.match in label:
            spec.fired += 1
            raise FaultInjected(
                f"injected poison for job {label!r} at {site}",
                site=site,
                transient=False,
            )


def store_fault(site: str = "store") -> str | None:
    """Check the persistent-store failure points at ``site``.

    Returns ``"io_error"`` or ``"corrupt"`` when the matching spec
    fires, ``None`` otherwise.  The store acts on the verdict itself
    (raising ``OSError`` / flipping entry bytes) so this hook stays a
    pure trigger and the blast site lives next to the IO it breaks.
    ``match`` restricts a spec to sites containing the substring
    (``get`` / ``put`` / ``open``).
    """
    if _PLAN is None:
        return None
    return _store_fault_armed(site)


def _store_fault_armed(site: str) -> str | None:
    plan = active_plan()
    if plan is None:
        return None
    for kind, verdict in (("store_io_error", "io_error"), ("store_corrupt", "corrupt")):
        spec = plan.get(kind)
        if spec is None:
            continue
        if spec.match:
            if spec.match not in site:
                continue
        elif kind == "store_corrupt" and "get" not in site:
            # Corruption is a read-side fault: without an explicit
            # ``match``, don't burn triggers at open/put sites where
            # the verdict would be ignored.
            continue
        if spec.should_fire():
            return verdict
    return None


def request_fault(site: str = "server") -> str | None:
    """Check the serving-front-end failure points at ``site``.

    Returns ``"reject"`` when an armed ``reject_request`` spec fires —
    the server answers the request with a clean 503 and never touches
    the scheduler; ``slow_request`` sleeps here (stalling only the one
    request's handler thread) and returns ``None``.  ``match``
    restricts either spec to request paths containing the substring
    (e.g. ``match=jobs`` spares ``/healthz`` probes).
    """
    if _PLAN is None:
        return None
    return _request_fault_armed(site)


def _request_fault_armed(site: str) -> str | None:
    plan = active_plan()
    if plan is None:
        return None
    slow = plan.get("slow_request")
    if slow is not None and (not slow.match or slow.match in site):
        if slow.should_fire():
            time.sleep(slow.seconds)
    reject = plan.get("reject_request")
    if reject is not None and (not reject.match or reject.match in site):
        if reject.should_fire():
            return "reject"
    return None


def stream_fault(site: str = "stream") -> float | None:
    """Check the ``stream_stall`` point at ``site``.

    Returns the stall duration in seconds when an armed spec fires,
    ``None`` otherwise.  The streaming runner acts on the verdict itself
    (going silent for that long before the next emission) so the hook
    stays a pure trigger and the stall lives exactly at the source seam
    the ``StreamStalledError`` timeout watches.  ``match`` restricts the
    spec to sites containing the substring (e.g. the source name).
    """
    if _PLAN is None:
        return None
    return _stream_fault_armed(site)


def _stream_fault_armed(site: str) -> float | None:
    plan = active_plan()
    if plan is None:
        return None
    spec = plan.get("stream_stall")
    if spec is None:
        return None
    if spec.match and spec.match not in site:
        return None
    if spec.should_fire():
        return spec.seconds
    return None
