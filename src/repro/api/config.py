"""Typed, serializable run configuration for the unified Session API.

:class:`RunConfig` is the one object that describes a complete
reproduction run: which workload to trace (``workload``), how the
ProSparsity engine executes it (``engine``), how the accelerator
simulator is configured (``simulator``), how tiles are sampled
(``sampling``), plus the design-sweep grid (``sweep``), the
Sec. VII-G trade-off input (``tradeoff``), and the concurrent-serving
knobs (``scheduler``: queue depth, coalescing window, stream
chunking). Every section is a frozen
dataclass, validated eagerly on construction with the same error wording
the execution layers raise (e.g. an unknown backend reuses
:func:`repro.engine.backends.unknown_backend_error`).

Configs round-trip through TOML and JSON (``from_file``/``to_file``,
``from_dict``/``to_dict``) and support two immutable update idioms:

* :meth:`RunConfig.with_overrides` — dotted-key overrides with native
  values, the sweep-loop workhorse::

      for backend in ("reference", "fused"):
          cfg = base.with_overrides({"engine.backend": backend})

* :meth:`RunConfig.with_sets` — ``"section.key=value"`` strings as the
  CLI's ``--set`` flag passes them, with type coercion driven by the
  target field's annotation.
"""

from __future__ import annotations

import json
import typing

try:  # stdlib on 3.11+; the tomli backport covers 3.10
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - version-dependent
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:
        tomllib = None  # TOML *writing* still works (hand-rolled emitter)
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from repro.arch.ppu import MODES, MODE_PROSPERITY
from repro.baselines import BASELINES
from repro.core.prosparsity import (
    DEFAULT_TILE_K,
    DEFAULT_TILE_M,
    validate_tile_shape,
)
from repro.engine.backends import (
    DEFAULT_BACKEND,
    available_backends,
    unknown_backend_error,
)
from repro.engine.faults import FaultPlan
from repro.engine.store import VERIFY_POLICIES
from repro.workloads import PRESETS

__all__ = [
    "CacheConfig",
    "EngineConfig",
    "OVERLOAD_POLICIES",
    "ResilienceConfig",
    "RunConfig",
    "SamplingConfig",
    "SchedulerConfig",
    "ServerConfig",
    "STREAM_SOURCES",
    "SimulatorConfig",
    "StreamingConfig",
    "SweepConfig",
    "TradeoffConfig",
    "WorkloadConfig",
]


@dataclass(frozen=True)
class WorkloadConfig:
    """Which model/dataset trace a session runs on."""

    model: str = "vgg16"
    dataset: str = "cifar10"
    preset: str = "small"
    seed: int = 7


@dataclass(frozen=True)
class EngineConfig:
    """How the ProSparsity engine executes: backend, cache, tile shape."""

    backend: str = DEFAULT_BACKEND
    cache_size: int = 4096
    tile_m: int = DEFAULT_TILE_M
    tile_k: int = DEFAULT_TILE_K
    verify: bool = False


@dataclass(frozen=True)
class SimulatorConfig:
    """Accelerator-simulation settings (mode ladder + baseline lineup)."""

    mode: str = MODE_PROSPERITY
    baselines: tuple[str, ...] = ("eyeriss", "ptb", "sato", "mint", "stellar", "a100")


@dataclass(frozen=True)
class SamplingConfig:
    """Tile sampling: ``max_tiles`` per workload, ``0`` = exact."""

    max_tiles: int = 24

    @property
    def effective(self) -> int | None:
        """The ``max_tiles`` value execution layers expect (``None`` = exact)."""
        return None if self.max_tiles == 0 else self.max_tiles


@dataclass(frozen=True)
class SweepConfig:
    """Tiling design-sweep grid (Fig. 7): m at fixed k, k at fixed m."""

    m_values: tuple[int, ...] = (64, 128, 256, 512)
    k_values: tuple[int, ...] = (8, 16, 32)


@dataclass(frozen=True)
class TradeoffConfig:
    """Sec. VII-G trade-off input: the measured sparsity increase dS."""

    sparsity_increase: float = 0.1335


@dataclass(frozen=True)
class SchedulerConfig:
    """Concurrent serving: queue depth, coalescing window, stream chunking.

    ``max_inflight`` bounds how many jobs may sit in the scheduler's
    queue at once (further ``submit()`` calls block until space frees).
    ``coalesce_window_ms`` is how long the dispatcher waits after the
    first queued job for more compatible jobs to arrive — every queued
    job is drained at the end of each window, so no job ever waits more
    than one window before dispatch. ``stream_chunk`` is how many
    completed workloads a streaming run groups into one yielded chunk.
    """

    max_inflight: int = 32
    coalesce_window_ms: float = 2.0
    stream_chunk: int = 1


#: Overload policies the scheduler's admission control understands.
OVERLOAD_POLICIES = ("block", "shed")


@dataclass(frozen=True)
class ServerConfig:
    """Network serving front end (:mod:`repro.server`) + tenancy.

    ``host``/``port`` are the listen address (``port=0`` binds an
    ephemeral port, reported by ``ReproServer.port``). ``tenants``
    restricts who may submit: empty means open tenancy (any tenant
    string is accepted, ``default_tenant`` when the request names
    none). Per-tenant quotas bound how much of the scheduler queue one
    tenant may occupy: ``tenant_max_inflight`` is an absolute cap on a
    tenant's queued jobs (0 = none) and ``tenant_queue_share`` a
    fractional cap of ``scheduler.max_inflight`` (1.0 = none); the
    effective quota is the tighter of the two, and a tenant at quota is
    refused with ``SchedulerSaturated`` — other tenants are unaffected.
    ``priorities`` are the priority classes in rank order with one
    positive ``priority_weights`` entry each: every coalesce window the
    dispatcher drains queued jobs in weighted-interleave order (e.g.
    weights ``(4, 1)`` dispatch up to 4 ``interactive`` jobs per
    ``batch`` job), so a flood of one class cannot starve another.
    Requests naming no priority get the first class.
    ``drain_timeout_s`` bounds how long a graceful drain (SIGTERM)
    waits for in-flight requests before shutting down anyway.
    """

    host: str = "127.0.0.1"
    port: int = 0
    tenants: tuple[str, ...] = ()
    default_tenant: str = "anonymous"
    tenant_max_inflight: int = 0
    tenant_queue_share: float = 1.0
    priorities: tuple[str, ...] = ("interactive", "batch")
    priority_weights: tuple[int, ...] = (4, 1)
    drain_timeout_s: float = 30.0


@dataclass(frozen=True)
class ResilienceConfig:
    """Failure handling: supervision, retries, deadlines, admission.

    ``overload_policy`` decides what a full scheduler queue does to new
    ``submit()`` calls: ``"block"`` (default) waits for space — the
    pre-existing backpressure behavior, preserved exactly — while
    ``"shed"`` waits at most ``shed_timeout_ms`` and then raises
    ``SchedulerSaturated``. An explicit ``submit(..., timeout=)`` always
    wins over the policy. ``deadline_ms`` (0 = none) bounds how long a
    job may wait in the queue before dispatch; expired jobs fail with
    ``DeadlineExceeded`` instead of running late. ``retries`` /
    ``retry_backoff_ms`` bound re-dispatch of *transient* failures
    (injected ``engine_error`` faults); poisoned jobs are never retried,
    only isolated. Retries apply only to scheduler-routed jobs
    (``repro batch``, ``repro serve``, ``Session.submit``); a direct
    ``Session.run`` (and so ``repro run``) raises the first failure.
    ``faults`` is a fault
    plan spec for the deterministic injection harness
    (:mod:`repro.engine.faults`) — empty (the default) keeps every
    failure point inert.
    """

    overload_policy: str = "block"
    shed_timeout_ms: float = 100.0
    deadline_ms: float = 0.0
    retries: int = 1
    retry_backoff_ms: float = 10.0
    faults: str = ""


@dataclass(frozen=True)
class CacheConfig:
    """Persistent result store (:mod:`repro.engine.store`).

    ``enabled`` turns the durable digest→records tier on (off by
    default — the in-memory ``engine.cache_size`` LRU is unaffected
    either way). ``path`` is the store root; empty means the user cache
    directory (``REPRO_STORE_DIR`` overrides it). ``max_bytes`` bounds
    the store on disk — publishes past the budget evict
    least-recently-used entries (0 = unbounded). ``verify`` is the read
    policy: ``"checksum"`` (default) validates every entry and
    quarantines corruption, ``"off"`` trusts published bytes.
    """

    enabled: bool = False
    path: str = ""
    max_bytes: int = 256 * 1024 * 1024
    verify: str = "checksum"


#: Stream source kinds :mod:`repro.streaming` provides.
STREAM_SOURCES = ("replay", "poisson", "recurrent")


@dataclass(frozen=True)
class StreamingConfig:
    """Sliding-window streaming inference (:mod:`repro.streaming`).

    ``window`` is how many event-stream timesteps one planner batch
    covers; ``hop`` is how far the window advances per chunk (``0``
    means ``window`` — tumbling, non-overlapping windows; a smaller hop
    re-delivers overlap timesteps as context, e.g. for recurrent
    sources, without re-planning their rows). ``max_inflight_windows``
    bounds how many windows may be buffered ahead of the consumer
    before the source is backpressured. ``source`` picks the event
    source: ``"replay"`` replays the ``[workload]`` trace as a
    timestep stream, ``"poisson"`` draws seeded synthetic spikes at
    ``rate`` (``rows`` x ``cols`` per step for ``steps`` steps), and
    ``"recurrent"`` steps the recurrent cell model with carried hidden
    state. ``stall_timeout_s`` bounds how long the runner waits on a
    silent source before raising ``StreamStalledError`` (0 = forever).
    """

    window: int = 4
    hop: int = 0
    max_inflight_windows: int = 2
    source: str = "replay"
    stall_timeout_s: float = 5.0
    rate: float = 0.15
    rows: int = 256
    cols: int = 64
    steps: int = 16


_SECTIONS: dict[str, type] = {
    "workload": WorkloadConfig,
    "engine": EngineConfig,
    "simulator": SimulatorConfig,
    "sampling": SamplingConfig,
    "sweep": SweepConfig,
    "tradeoff": TradeoffConfig,
    "scheduler": SchedulerConfig,
    "resilience": ResilienceConfig,
    "cache": CacheConfig,
    "server": ServerConfig,
    "streaming": StreamingConfig,
}


def _coerce(text: str, hint) -> object:
    """Coerce a ``--set`` value string to the target field's annotation."""
    if typing.get_origin(hint) is tuple:
        items = [part for part in text.replace("[", "").replace("]", "").split(",")
                 if part.strip()]
        element = (typing.get_args(hint) or (str,))[0]
        return tuple(_coerce(item.strip(), element) for item in items)
    if hint is bool:
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"cannot parse {text!r} as a boolean")
    if hint is int:
        return int(text)
    if hint is float:
        return float(text)
    return text


def _section_from_dict(name: str, cls: type, data: dict):
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"unknown key(s) {unknown} in config section [{name}]; "
            f"known: {sorted(known)}"
        )
    values = {}
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        if typing.get_origin(hints[key]) is tuple and isinstance(value, list):
            value = tuple(value)
        values[key] = value
    return cls(**values)


def _toml_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        # TOML basic strings accept JSON's escape repertoire.
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    raise TypeError(f"cannot serialize {value!r} to TOML")


@dataclass(frozen=True)
class RunConfig:
    """The complete, validated configuration of one reproduction run.

    Frozen: every update goes through :meth:`with_overrides` /
    :meth:`with_sets`, which return new instances. Validation runs on
    construction, so an invalid combination (unknown backend, malformed
    tile shape) fails at config time with the exact error the execution layer
    would raise — never halfway into a run.
    """

    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    simulator: SimulatorConfig = field(default_factory=SimulatorConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    tradeoff: TradeoffConfig = field(default_factory=TradeoffConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    streaming: StreamingConfig = field(default_factory=StreamingConfig)

    def __post_init__(self) -> None:
        self.validate()

    # -- validation -----------------------------------------------------
    def validate(self) -> None:
        """Check cross-field consistency; raise ``ValueError`` on bad combos."""
        workload, engine = self.workload, self.engine
        if workload.preset not in PRESETS:
            raise ValueError(
                f"unknown preset {workload.preset!r}; known: {sorted(PRESETS)}"
            )
        if engine.backend not in available_backends():
            raise unknown_backend_error(engine.backend)
        if engine.cache_size < 0:
            raise ValueError(
                f"cache_size must be >= 0, got {engine.cache_size}"
            )
        validate_tile_shape(engine.tile_m, engine.tile_k)
        if self.simulator.mode not in MODES:
            raise ValueError(
                f"unknown mode {self.simulator.mode!r}; expected one of {MODES}"
            )
        if not self.simulator.baselines:
            raise ValueError(
                "simulator.baselines must name at least one accelerator "
                "(the first is the speedup base)"
            )
        unknown = sorted(set(self.simulator.baselines) - set(BASELINES))
        if unknown:
            raise ValueError(
                f"unknown baseline(s) {unknown}; available: {sorted(BASELINES)}"
            )
        if self.sampling.max_tiles < 0:
            raise ValueError(
                f"max_tiles must be >= 0 (0 = exact), got {self.sampling.max_tiles}"
            )
        for axis, values in (("m_values", self.sweep.m_values),
                             ("k_values", self.sweep.k_values)):
            if not values or any(v < 1 for v in values):
                raise ValueError(
                    f"sweep {axis} must be non-empty positive ints, got {values}"
                )
        if self.tradeoff.sparsity_increase < 0:
            raise ValueError(
                "sparsity_increase must be >= 0, got "
                f"{self.tradeoff.sparsity_increase}"
            )
        if self.scheduler.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.scheduler.max_inflight}"
            )
        if self.scheduler.coalesce_window_ms < 0:
            raise ValueError(
                "coalesce_window_ms must be >= 0, got "
                f"{self.scheduler.coalesce_window_ms}"
            )
        if self.scheduler.stream_chunk < 1:
            raise ValueError(
                f"stream_chunk must be >= 1, got {self.scheduler.stream_chunk}"
            )
        resilience = self.resilience
        if resilience.overload_policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"unknown overload_policy {resilience.overload_policy!r}; "
                f"expected one of {OVERLOAD_POLICIES}"
            )
        for name, value in (
            ("shed_timeout_ms", resilience.shed_timeout_ms),
            ("deadline_ms", resilience.deadline_ms),
            ("retry_backoff_ms", resilience.retry_backoff_ms),
        ):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if resilience.retries < 0:
            raise ValueError(f"retries must be >= 0, got {resilience.retries}")
        # Same eager-validation contract as the engine fields: a bad
        # fault spec fails at config time with the harness's own error.
        FaultPlan.parse(resilience.faults)
        server = self.server
        if not 0 <= server.port <= 65535:
            raise ValueError(f"server port must be in 0..65535, got {server.port}")
        if not server.host:
            raise ValueError("server host must be non-empty")
        if not server.default_tenant:
            raise ValueError("server default_tenant must be non-empty")
        if server.tenants and server.default_tenant not in server.tenants:
            raise ValueError(
                f"server default_tenant {server.default_tenant!r} must appear "
                f"in the tenants list {list(server.tenants)}"
            )
        if server.tenant_max_inflight < 0:
            raise ValueError(
                "server tenant_max_inflight must be >= 0 (0 = no cap), got "
                f"{server.tenant_max_inflight}"
            )
        if not 0 < server.tenant_queue_share <= 1:
            raise ValueError(
                "server tenant_queue_share must be in (0, 1], got "
                f"{server.tenant_queue_share}"
            )
        if not server.priorities:
            raise ValueError(
                "server priorities must name at least one class "
                "(the first is the default)"
            )
        if len(set(server.priorities)) != len(server.priorities):
            raise ValueError(
                f"server priorities must be distinct, got {list(server.priorities)}"
            )
        if len(server.priority_weights) != len(server.priorities):
            raise ValueError(
                f"server priority_weights needs one weight per priority class "
                f"({len(server.priorities)}), got {len(server.priority_weights)}"
            )
        if any(weight < 1 for weight in server.priority_weights):
            raise ValueError(
                "server priority_weights must be positive ints, got "
                f"{list(server.priority_weights)}"
            )
        if server.drain_timeout_s < 0:
            raise ValueError(
                f"server drain_timeout_s must be >= 0, got {server.drain_timeout_s}"
            )
        cache = self.cache
        if cache.max_bytes < 0:
            raise ValueError(
                f"cache max_bytes must be >= 0 (0 = unbounded), got "
                f"{cache.max_bytes}"
            )
        if cache.verify not in VERIFY_POLICIES:
            raise ValueError(
                f"unknown verify policy {cache.verify!r}; choose from "
                + ", ".join(VERIFY_POLICIES)
            )
        streaming = self.streaming
        if streaming.window < 1:
            raise ValueError(
                f"streaming window must be >= 1, got {streaming.window}"
            )
        if not 0 <= streaming.hop <= streaming.window:
            raise ValueError(
                f"streaming hop must be in 0..window ({streaming.window}), "
                f"got {streaming.hop}"
            )
        if streaming.max_inflight_windows < 1:
            raise ValueError(
                "streaming max_inflight_windows must be >= 1, got "
                f"{streaming.max_inflight_windows}"
            )
        if streaming.source not in STREAM_SOURCES:
            raise ValueError(
                f"unknown stream source {streaming.source!r}; expected one "
                f"of {STREAM_SOURCES}"
            )
        if streaming.stall_timeout_s < 0:
            raise ValueError(
                "streaming stall_timeout_s must be >= 0 (0 = no timeout), "
                f"got {streaming.stall_timeout_s}"
            )
        if not 0.0 < streaming.rate <= 1.0:
            raise ValueError(
                f"streaming rate must be in (0, 1], got {streaming.rate}"
            )
        for name, value in (
            ("rows", streaming.rows),
            ("cols", streaming.cols),
            ("steps", streaming.steps),
        ):
            if value < 1:
                raise ValueError(
                    f"streaming {name} must be >= 1, got {value}"
                )

    # -- dict / file round-trip ----------------------------------------
    def to_dict(self) -> dict:
        """Nested plain-type dict (tuples become lists)."""
        out: dict[str, dict] = {}
        for name in _SECTIONS:
            section = getattr(self, name)
            entries = {}
            for f in fields(section):
                value = getattr(section, f.name)
                if isinstance(value, tuple):
                    value = list(value)
                entries[f.name] = value
            out[name] = entries
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = sorted(set(data) - set(_SECTIONS))
        if unknown:
            raise ValueError(
                f"unknown config section(s) {unknown}; known: {sorted(_SECTIONS)}"
            )
        sections = {
            name: _section_from_dict(name, section_cls, data.get(name, {}))
            for name, section_cls in _SECTIONS.items()
        }
        return cls(**sections)

    def to_toml(self) -> str:
        lines: list[str] = []
        for name, entries in self.to_dict().items():
            lines.append(f"[{name}]")
            for key, value in entries.items():
                lines.append(f"{key} = {_toml_value(value)}")
            lines.append("")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Load a config from a ``.toml`` or ``.json`` file."""
        path = Path(path)
        if path.suffix == ".toml":
            if tomllib is None:  # pragma: no cover - version-dependent
                raise RuntimeError(
                    "reading TOML configs needs Python >= 3.11 (tomllib) or "
                    "the 'tomli' backport; use a .json config instead"
                )
            with open(path, "rb") as handle:
                data = tomllib.load(handle)
        elif path.suffix == ".json":
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            raise ValueError(
                f"config file must end in .toml or .json, got {path.name!r}"
            )
        return cls.from_dict(data)

    def to_file(self, path: str | Path) -> Path:
        """Write this config as TOML or JSON, chosen by the file suffix."""
        path = Path(path)
        if path.suffix == ".toml":
            text = self.to_toml()
        elif path.suffix == ".json":
            text = self.to_json()
        else:
            raise ValueError(
                f"config file must end in .toml or .json, got {path.name!r}"
            )
        path.write_text(text, encoding="utf-8")
        return path

    # -- immutable updates ---------------------------------------------
    def with_overrides(self, overrides: dict | None = None, **sections) -> "RunConfig":
        """New config with dotted-key and/or whole-section overrides.

        ``overrides`` maps ``"section.key"`` to a native value::

            cfg.with_overrides({"engine.backend": "reference",
                                "engine.cache_size": 0})

        Section keyword arguments replace fields of one section at once::

            cfg.with_overrides(workload={"model": "lenet5"})

        The receiver is untouched; the returned config is re-validated.
        """
        updates: dict[str, dict] = {}
        for dotted, value in (overrides or {}).items():
            section, _, key = dotted.partition(".")
            if section not in _SECTIONS or not key:
                raise ValueError(
                    f"override key must be 'section.key' with section in "
                    f"{sorted(_SECTIONS)}, got {dotted!r}"
                )
            updates.setdefault(section, {})[key] = value
        for section, mapping in sections.items():
            if section not in _SECTIONS:
                raise ValueError(
                    f"unknown config section {section!r}; known: {sorted(_SECTIONS)}"
                )
            updates.setdefault(section, {}).update(mapping)
        new_sections = {}
        for name, section_cls in _SECTIONS.items():
            current = getattr(self, name)
            if name not in updates:
                new_sections[name] = current
                continue
            known = {f.name for f in fields(section_cls)}
            unknown = sorted(set(updates[name]) - known)
            if unknown:
                raise ValueError(
                    f"unknown key(s) {unknown} in config section [{name}]; "
                    f"known: {sorted(known)}"
                )
            hints = typing.get_type_hints(section_cls)
            coerced = {
                key: tuple(value)
                if typing.get_origin(hints[key]) is tuple
                and isinstance(value, list)
                else value
                for key, value in updates[name].items()
            }
            new_sections[name] = replace(current, **coerced)
        return RunConfig(**new_sections)

    def with_sets(self, assignments: list[str]) -> "RunConfig":
        """Apply CLI-style ``section.key=value`` strings (the ``--set`` flag).

        Value text is coerced by the target field's type annotation:
        ints, floats, booleans, ``none``/``null`` for optional fields,
        and comma-separated lists for tuple fields
        (``--set sweep.m_values=64,128``).
        """
        overrides: dict[str, object] = {}
        for assignment in assignments:
            dotted, sep, text = assignment.partition("=")
            dotted = dotted.strip()
            section, _, key = dotted.partition(".")
            if not sep or section not in _SECTIONS or not key:
                raise ValueError(
                    f"--set expects 'section.key=value' with section in "
                    f"{sorted(_SECTIONS)}, got {assignment!r}"
                )
            section_cls = _SECTIONS[section]
            hints = typing.get_type_hints(section_cls)
            if key not in hints:
                raise ValueError(
                    f"unknown key {key!r} in config section [{section}]; "
                    f"known: {sorted(hints)}"
                )
            overrides[dotted] = _coerce(text.strip(), hints[key])
        return self.with_overrides(overrides)
