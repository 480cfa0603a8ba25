"""Command-line interface: a thin adapter over :class:`repro.api.Session`.

Every subcommand builds one :class:`repro.api.RunConfig` — defaults,
then ``--config file.toml`` (or ``.json``), then explicit flags, then
``--set section.key=value`` overrides, in that order — opens a
:class:`~repro.api.Session`, and renders the structured result as a
table. A run is therefore reproducible from a config file alone:
``repro run --config run.toml`` produces bit-identical records to the
equivalent flag invocation.

Examples
--------
::

    repro density  --model vgg16 --dataset cifar100
    repro simulate --model resnet18 --dataset cifar10 --backend reference
    repro sweep    --model vgg16 --dataset cifar100
    repro tradeoff --sparsity-increase 0.1335
    repro scaling  --model vgg16 --dataset cifar10
    repro run      --model vgg16 --backend fused --verify
    repro run      --config run.toml --set engine.cache_size=0
    repro config dump --set workload.model=lenet5 > run.toml
    repro batch    --config a.toml --config b.toml --set engine.backend=fused
    repro serve    --config serve.toml --port 8707
    repro submit   --url http://127.0.0.1:8707 --count 8 --tenant acme
    repro stream   --model lenet5 --dataset mnist --window 4
    repro stream   --source poisson --url http://127.0.0.1:8707
    repro --version

(Also runnable as ``python -m repro.cli`` when not installed.)
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from importlib import metadata

from repro.analysis.report import format_percent, format_ratio, format_table
from repro.analysis.tradeoff import breakeven_sparsity_increase
from repro.api import (
    STREAM_SOURCES,
    EngineConfig,
    EngineRunResult,
    Job,
    RunConfig,
    Scheduler,
    Session,
    StreamStalledError,
)
from repro.api.client import ServeClient, ServeError
from repro.engine import available_backends
from repro.engine.faults import FaultInjected
from repro.engine.store import ResultStore, default_store_path
from repro.server.protocol import RECORD_MODES
from repro.workloads import PRESETS


def _version() -> str:
    """Package version from installed metadata, else the source tree."""
    try:
        return metadata.version("prosperity-repro")
    except metadata.PackageNotFoundError:  # bare checkout (conftest shim)
        import repro

        return repro.__version__


#: argparse attribute -> RunConfig dotted key. Flags default to ``None``
#: so only explicitly-passed values override the config file.
_FLAG_KEYS = {
    "model": "workload.model",
    "dataset": "workload.dataset",
    "preset": "workload.preset",
    "seed": "workload.seed",
    "max_tiles": "sampling.max_tiles",
    "backend": "engine.backend",
    "cache_size": "engine.cache_size",
    "verify": "engine.verify",
    "sparsity_increase": "tradeoff.sparsity_increase",
    "stream_source": "streaming.source",
    "window": "streaming.window",
    "hop": "streaming.hop",
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < ``--config`` file < flags < ``--set`` overrides.

    Config errors on every surface — an unreadable/invalid ``--config``
    file, a flag value the config rejects (``--cache-size -1``), or a
    bad ``--set`` string —
    exit with a one-line message rather than a traceback.
    """
    if getattr(args, "config", None):
        try:
            config = RunConfig.from_file(args.config)
        except (ValueError, OSError) as exc:
            raise SystemExit(f"repro: error: --config {args.config}: {exc}") from exc
    else:
        config = RunConfig()
    overrides = {}
    for attr, dotted in _FLAG_KEYS.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides[dotted] = value
    if overrides:
        try:
            config = config.with_overrides(overrides)
        except ValueError as exc:
            raise SystemExit(f"repro: error: {exc}") from exc
    sets = getattr(args, "sets", None)
    if sets:
        try:
            config = config.with_sets(sets)
        except ValueError as exc:
            raise SystemExit(f"repro: error: {exc}") from exc
    return config


def build_config(argv: list[str]) -> RunConfig:
    """The exact config a CLI invocation would run with (test seam)."""
    return config_from_args(build_parser().parse_args(argv))


# ---------------------------------------------------------------------------
# Subcommand renderers: Session results -> tables
# ---------------------------------------------------------------------------


def cmd_density(config: RunConfig, session: Session) -> str:
    report = session.density().report
    workload = config.workload
    rows = [
        ["bit (PTB/SATO)", format_percent(report.bit_density)],
        ["structured bit", format_percent(report.structured_density)],
        ["FS neuron (Stellar)", format_percent(report.fs_density)],
        ["product (Prosperity)", format_percent(report.product_density)],
        ["reduction vs bit", format_ratio(report.reduction_vs_bit)],
    ]
    return format_table(
        ["sparsity paradigm", "density"], rows,
        title=f"density — {workload.model}/{workload.dataset} ({workload.preset})",
    )


def cmd_simulate(config: RunConfig, session: Session) -> str:
    reports = session.simulate().reports
    base = reports[config.simulator.baselines[0]]
    rows = [
        [
            name,
            f"{report.seconds * 1e6:.1f}",
            format_ratio(base.seconds / report.seconds),
            f"{report.energy_j * 1e3:.3f}",
            format_ratio(base.energy_j / report.energy_j),
        ]
        for name, report in reports.items()
    ]
    workload = config.workload
    return format_table(
        ["accelerator", "latency us", "speedup", "energy mJ", "EE gain"],
        rows,
        title=(
            f"simulation — {workload.model}/{workload.dataset}"
            f" ({workload.preset})"
        ),
    )


def cmd_sweep(config: RunConfig, session: Session) -> str:
    result = session.sweep()
    rows = [
        [p.tile_m, p.tile_k, format_percent(p.product_density),
         f"{p.latency_vs_bit:.3f}", f"{p.area_mm2:.3f}"]
        for p in result.points
    ]
    workload = config.workload
    return format_table(
        ["m", "k", "pro density", "latency vs bit", "area mm2"], rows,
        title=f"tiling sweep — {workload.model}/{workload.dataset}",
    )


def cmd_tradeoff(config: RunConfig, session: Session) -> str:
    result = session.tradeoff().result
    rows = [
        ["break-even dS", format_percent(breakeven_sparsity_increase())],
        ["measured dS", format_percent(config.tradeoff.sparsity_increase)],
        ["benefit/cost", format_ratio(result.benefit_cost_ratio)],
        ["profitable", "yes" if result.profitable else "no"],
    ]
    return format_table(["quantity", "value"], rows, title="Sec. VII-G trade-off")


def cmd_scaling(config: RunConfig, session: Session) -> str:
    points = session.scaling().points
    rows = [
        [p.num_ppus, p.issue_width, format_ratio(p.speedup),
         format_percent(p.efficiency)]
        for p in points
    ]
    workload = config.workload
    return format_table(
        ["PPUs", "issue width", "speedup", "efficiency"], rows,
        title=f"Sec. VIII-A scaling — {workload.model}/{workload.dataset}",
    )


def cmd_run(config: RunConfig, session: Session) -> str:
    """Batched end-to-end engine run: the high-throughput transform path."""
    result = session.run()
    report = result.report
    rows = [
        [
            run.name,
            run.kind,
            run.tiles,
            format_percent(run.stats.bit_density),
            format_percent(run.stats.product_density),
            format_ratio(run.stats.ops_reduction),
        ]
        for run in report.runs
    ]
    stats = report.stats
    rows.append(
        [
            "TOTAL",
            "",
            report.total_tiles,
            format_percent(stats.bit_density),
            format_percent(stats.product_density),
            format_ratio(stats.ops_reduction),
        ]
    )
    workload = config.workload
    table = format_table(
        ["workload", "kind", "tiles", "bit dens", "pro dens", "reduction"],
        rows,
        title=(
            f"engine run — {workload.model}/{workload.dataset}"
            f" ({workload.preset}) "
            f"backend={report.backend}"
        ),
    )
    footer = (
        f"\nthroughput: {report.tiles_per_sec:,.0f} tiles/sec over "
        f"{report.total_tiles} tiles in {report.total_seconds * 1e3:.1f} ms; "
        f"forest cache: {report.cache_hits} hits / {report.cache_misses} misses "
        f"({report.cache_hit_rate:.1%} hit rate)"
    )
    if report.store_active is not None:
        footer += (
            f"\nstore: {report.store_hits} hits / {report.store_misses} misses, "
            f"{report.store_corrupt} corrupt quarantined, "
            f"{report.store_evictions} evicted"
        )
        if not report.store_active:
            footer += (
                "\nstore: DEGRADED — persistent cache disabled for this "
                "process, runs continue via the kernel path"
            )
    footer += (
        f"\nplan: trace — {report.planned_tiles} tiles -> "
        f"{report.unique_tiles} unique "
        f"({report.dedup_ratio:.2f}x cross-workload dedup)"
    )
    if report.profile:
        footer += "\nprofile: " + "  ".join(
            f"{stage}={seconds * 1e3:.1f}ms"
            for stage, seconds in report.profile.items()
        )
    if result.verified is not None:
        if not result.verified:
            raise SystemExit(
                f"backend {report.backend!r} diverged from the reference oracle"
            )
        footer += "\nverify: tile records bit-identical to the reference backend"
    return table + footer


def cmd_batch(args: argparse.Namespace) -> int:
    """Run many job configs through one shared scheduler.

    Each ``--config`` file becomes one job (``--set`` overrides apply to
    every job); compatible engine jobs coalesce into shared trace-planner
    batches, so concurrent configs share one global dedup, one kernel
    launch per shape bucket, and one engine per engine signature.
    """
    configs = []
    for path in args.configs:
        try:
            config = RunConfig.from_file(path)
            if args.sets:
                config = config.with_sets(args.sets)
        except (ValueError, OSError) as exc:
            raise SystemExit(f"repro: error: --config {path}: {exc}") from exc
        configs.append((path, config))
    jobs = [
        Job(kind=args.kind, config=config, label=str(path))
        for path, config in configs
    ]
    failures = []
    rows = []
    with Scheduler(configs[0][1]) as scheduler:
        handles = scheduler.submit_many(jobs)
        for handle in handles:
            workload = handle.config.workload
            row = [
                handle.job.label,
                handle.job.kind,
                f"{workload.model}/{workload.dataset}",
                handle.config.engine.backend,
            ]
            try:
                result = handle.result()
            except Exception as exc:
                failures.append(f"{handle.job.label}: {exc}")
                rows.append([*row, "FAILED", "-"])
                continue
            if isinstance(result, EngineRunResult):
                summary = (
                    f"{result.report.total_tiles} tiles, "
                    f"{format_percent(result.report.stats.product_density)} pro dens"
                )
            else:
                summary = type(result).__name__.removesuffix("Result").lower()
            rows.append([*row, summary, f"{result.seconds * 1e3:.1f} ms"])
        footer = (
            f"\nscheduler: {scheduler.jobs_submitted} job(s) submitted, "
            f"{scheduler.jobs_coalesced} coalesced across {scheduler.batches} "
            "planner batch(es)"
        )
        # Resilience counters appear only when something actually
        # happened, so the healthy-path footer stays byte-stable.
        stats = scheduler.stats
        incidents = [
            (key, stats[key])
            for key in (
                "jobs_retried",
                "isolation_reruns",
                "jobs_shed",
                "jobs_expired",
            )
            if stats[key]
        ]
        if incidents:
            footer += "\nresilience: " + ", ".join(
                f"{key.replace('_', ' ')}: {value}" for key, value in incidents
            )
        if any(config.cache.enabled for _, config in configs):
            footer += (
                f"\nstore: {stats['store_hits']} hits / "
                f"{stats['store_misses']} misses, "
                f"{stats['store_corrupt']} corrupt quarantined, "
                f"{stats['store_evictions']} evicted"
            )
    table = format_table(
        ["config", "kind", "workload", "backend", "result", "wall"],
        rows,
        title=f"batch — {len(jobs)} job(s) through one scheduler",
    )
    print(table + footer)
    for failure in failures:
        print(f"repro: batch job failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or maintain the persistent result store.

    Opens the store named by the merged config's ``[cache]`` section
    (``path`` empty means the default location) synchronously — no
    engine, no Session — so the subcommand works on a store that no run
    currently owns. ``verify`` exits non-zero when it quarantines
    corrupt entries, for use as a CI health gate.
    """
    config = config_from_args(args)
    cache_cfg = config.cache
    path = cache_cfg.path or default_store_path()
    try:
        store = ResultStore(
            path,
            max_bytes=cache_cfg.max_bytes,
            verify=cache_cfg.verify,
            async_writes=False,
        )
    except ValueError as exc:
        raise SystemExit(f"repro: error: {exc}") from exc
    try:
        if args.cache_command == "stats":
            stats = store.stats()
            rows = [
                ["path", stats.path],
                ["enabled", "yes" if stats.enabled else "no"],
                ["entries", stats.entries],
                ["total bytes", f"{stats.total_bytes:,}"],
                ["max bytes", f"{stats.max_bytes:,}" if stats.max_bytes else "unbounded"],
                ["quarantined", stats.quarantined],
            ]
            if stats.disabled_reason:
                rows.append(["disabled reason", stats.disabled_reason])
            print(format_table(["field", "value"], rows, title="persistent result store"))
            return 0
        if args.cache_command == "clear":
            removed = store.clear()
            print(f"store: removed {removed} entries from {store.directory}")
            return 0
        # verify
        checked, corrupt = store.verify_all()
        print(
            f"store: verified {checked} entries, "
            f"{corrupt} corrupt quarantined"
        )
        return 1 if corrupt else 0
    finally:
        store.close()


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the network serving front end until SIGTERM/SIGINT, then drain.

    The listen address comes from the merged config's ``[server]``
    section (``--host``/``--port`` override it); the rest of the config
    is the default job config network requests overlay. On SIGTERM (or
    Ctrl-C) the server drains gracefully — new jobs are refused with
    503 while every accepted job runs to completion — and the process
    exits 0 only when no in-flight request had to be cut off.
    """
    from repro.server import ReproServer

    config = config_from_args(args)
    overrides = {}
    if args.host is not None:
        overrides["server.host"] = args.host
    if args.port is not None:
        overrides["server.port"] = args.port
    if overrides:
        try:
            config = config.with_overrides(overrides)
        except ValueError as exc:
            raise SystemExit(f"repro: error: {exc}") from exc
    try:
        server = ReproServer(config)
    except OSError as exc:
        raise SystemExit(f"repro: error: cannot bind "
                         f"{config.server.host}:{config.server.port}: {exc}") from exc
    server.start()
    # The address line is machine-readable on purpose: test harnesses
    # and the CI smoke drill parse the URL out of the first line.
    print(f"repro-serve: listening on {server.url}", flush=True)
    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal API
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    while not (stop.is_set() or server.draining):
        stop.wait(0.1)
    print("repro-serve: draining (finishing in-flight jobs)", flush=True)
    clean = server.drain()
    print(
        f"repro-serve: drained {'cleanly' if clean else 'with timeout'}",
        flush=True,
    )
    return 0 if clean else 1


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit jobs to a running ``repro serve`` endpoint concurrently.

    ``--count`` jobs are fired from ``--count`` client threads at once
    (one connection per thread), cycling through the repeatable
    ``--tenant`` / ``--priority`` values — so one invocation exercises
    the server's coalescing window with genuinely mixed multi-tenant
    traffic, which is exactly what the CI serving drill needs.
    """
    tenants = args.tenants or [""]
    priorities = args.priorities or [""]
    count = args.count
    outcomes: list[tuple[object, Exception | None]] = [(None, None)] * count

    def worker(index: int) -> None:
        client = None
        try:
            # Construction can raise too (malformed --url): it must land
            # in the same per-job FAILED row as a submit error.
            client = ServeClient(args.url, timeout=args.timeout)
            result = client.submit(
                args.kind,
                tenant=tenants[index % len(tenants)],
                priority=priorities[index % len(priorities)],
                label=f"submit-{index}",
                records=args.records,
            )
            outcomes[index] = (result, None)
        except Exception as exc:  # noqa: BLE001 - reported per job below
            outcomes[index] = (None, exc)
        finally:
            if client is not None:
                client.close()

    threads = [
        threading.Thread(target=worker, args=(index,), name=f"submit-{index}")
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    rows = []
    failures = []
    for index, (result, error) in enumerate(outcomes):
        if error is not None:
            failures.append(f"submit-{index}: {error}")
            rows.append([f"submit-{index}", tenants[index % len(tenants)] or "-",
                         priorities[index % len(priorities)] or "-",
                         "FAILED", type(error).__name__])
            continue
        report = result.report
        summary = (
            f"{sum(run['tiles'] for run in report['runs'])} tiles"
            if report
            else result.result.get("type", "ok")
        )
        rows.append(
            [f"submit-{index}", result.tenant, result.priority, "ok", summary]
        )
    table = format_table(
        ["job", "tenant", "priority", "status", "result"],
        rows,
        title=f"submit — {count} job(s) to {args.url}",
    )
    footer = ""
    try:
        with ServeClient(args.url, timeout=args.timeout) as client:
            metrics = client.metrics()
        scheduler_stats = metrics["scheduler"]
        dedup = metrics["server"]["dedup"]
        footer = (
            f"\nserver: {scheduler_stats['jobs_submitted']} job(s) submitted, "
            f"{scheduler_stats['jobs_coalesced']} coalesced across "
            f"{scheduler_stats['batches']} planner batch(es); "
            f"last dedup {dedup['last_ratio']:.2f}x"
        )
        by_tenant = scheduler_stats.get("jobs_by_tenant") or {}
        if by_tenant:
            footer += "\ntenants: " + ", ".join(
                f"{tenant}={jobs}" for tenant, jobs in sorted(by_tenant.items())
            )
    except Exception as exc:  # noqa: BLE001 - metrics are best-effort
        footer = f"\nserver: metrics unavailable ({exc})"
    print(table + footer)
    for failure in failures:
        print(f"repro: submit job failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Sliding-window streaming inference, in-process or over the wire.

    One line prints per executed window *as it completes* — the command
    is a live tail of the stream, not a batch report — followed by a
    throughput/dedup summary. With ``--url`` the same stream runs on a
    remote ``repro serve`` endpoint via ``POST /v1/streams`` (the merged
    local config travels as the request config), and the lines render
    from the NDJSON frames as the server flushes them.
    """
    config = config_from_args(args)

    def chunk_line(index, start, stop, tiles, planned, unique, seconds) -> str:
        dedup = (planned / unique) if unique else 1.0
        return (
            f"chunk {index:>3}  steps [{start:>3},{stop:>3})  "
            f"{tiles:>5} tiles  {dedup:.2f}x dedup  {seconds * 1e3:7.1f} ms"
        )

    if args.url:
        client = ServeClient(args.url, timeout=args.timeout)
        try:
            generator = client.stream(config=config, records=args.records)
            while True:
                try:
                    chunk = next(generator)
                except StopIteration as stop:
                    final = stop.value
                    break
                print(
                    chunk_line(
                        chunk.index, chunk.start_step, chunk.stop_step,
                        chunk.tiles, chunk.planned_tiles,
                        chunk.unique_tiles, chunk.seconds,
                    ),
                    flush=True,
                )
        except ServeError as exc:
            # Mid-stream failures arrive as an in-band error frame (the
            # HTTP status is already 200); report them like a failed
            # submit — typed, job-scoped, exit 1 — not a traceback.
            name = getattr(exc, "error_type", "") or type(exc).__name__
            print(f"stream FAILED: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            client.close()
        report = final["report"]
        print(
            f"\nstream — {report['model']} via {args.url}: "
            f"{final['windows']} window(s) over {final['steps']} step(s)"
        )
        print(
            f"throughput: {report['tiles_per_sec']:,.0f} tiles/sec over "
            f"{report['total_tiles']} tiles; cross-window dedup "
            f"{final['dedup_ratio']:.2f}x; forest cache "
            f"{report['cache_hits']} hits / {report['cache_misses']} misses"
        )
        return 0
    with Session(config) as session:
        generator = session.stream_source()
        try:
            while True:
                try:
                    chunk = next(generator)
                except StopIteration as stop:
                    result = stop.value
                    break
                print(
                    chunk_line(
                        chunk.index, chunk.start_step, chunk.stop_step,
                        chunk.tiles, chunk.planned_tiles, chunk.unique_tiles,
                        chunk.seconds,
                    ),
                    flush=True,
                )
        except StreamStalledError as exc:
            print(
                f"stream FAILED: StreamStalledError: {exc}", file=sys.stderr
            )
            return 1
    report = result.report
    print(
        f"\nstream — {report.model} ({config.streaming.source}): "
        f"{result.windows} window(s) over {result.steps} step(s)"
    )
    print(
        f"throughput: {report.tiles_per_sec:,.0f} tiles/sec over "
        f"{report.total_tiles} tiles; cross-window dedup "
        f"{result.dedup_ratio:.2f}x; forest cache "
        f"{report.cache_hits} hits / {report.cache_misses} misses"
    )
    return 0


COMMANDS = {
    "density": cmd_density,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "tradeoff": cmd_tradeoff,
    "scaling": cmd_scaling,
    "run": cmd_run,
}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", metavar="FILE", default=None,
        help="TOML or JSON RunConfig file; explicit flags override it",
    )
    parser.add_argument(
        "--set", dest="sets", action="append", metavar="SECTION.KEY=VALUE",
        default=[],
        help="config override (repeatable, applied after flags), "
        "e.g. --set engine.cache_size=0",
    )


def _add_workload_args(
    parser: argparse.ArgumentParser, sampling: bool = True
) -> None:
    parser.add_argument("--model", default=None,
                        help="model name (config default: vgg16)")
    parser.add_argument("--dataset", default=None,
                        help="dataset name (config default: cifar10)")
    parser.add_argument("--preset", default=None, choices=PRESETS,
                        help="workload preset (config default: small)")
    parser.add_argument("--seed", type=int, default=None,
                        help="trace + sampling seed (config default: 7)")
    if sampling:
        parser.add_argument("--max-tiles", type=int, default=None,
                            help="tile sample cap per workload, 0 = exact "
                            "(config default: 24)")


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", default=None, choices=available_backends(),
        help="ProSparsity transform backend; results are identical, "
        "fused is the fast path and reference the per-tile oracle "
        f"(config default: {EngineConfig.backend})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Prosperity (HPCA 2025) reproduction experiments",
    )
    parser.add_argument(
        "-V", "--version", action="version", version=f"repro {_version()}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in ("density", "simulate", "sweep", "scaling"):
        sub = subparsers.add_parser(name)
        _add_config_args(sub)
        _add_workload_args(sub)
        if name in ("density", "simulate", "sweep"):
            _add_backend_args(sub)
    run = subparsers.add_parser(
        "run", help="trace-planned ProSparsity engine run with backend selection"
    )
    _add_config_args(run)
    # The engine always transforms every tile (no sampling): throughput
    # and cache numbers describe the full workload.
    _add_workload_args(run, sampling=False)
    _add_backend_args(run)
    run.add_argument("--cache-size", type=int, default=None,
                     help="forest cache capacity in distinct tiles, 0 = off "
                     "(config default: 4096)")
    run.add_argument("--verify", action="store_true", default=None,
                     help="re-run through the reference oracle and compare")
    batch = subparsers.add_parser(
        "batch", help="run many configs through one shared scheduler"
    )
    batch.add_argument(
        "--config", dest="configs", action="append", metavar="FILE",
        required=True,
        help="TOML or JSON RunConfig file; repeatable, one job per file — "
        "compatible engine jobs coalesce into shared planner batches",
    )
    batch.add_argument(
        "--set", dest="sets", action="append", metavar="SECTION.KEY=VALUE",
        default=[],
        help="config override applied to every job's config (repeatable)",
    )
    batch.add_argument(
        "--kind", default="run", choices=Session._QUEUEABLE,
        help="experiment to run for every config (default: run)",
    )
    serve = subparsers.add_parser(
        "serve", help="run the network serving front end (HTTP + JSON)"
    )
    _add_config_args(serve)
    serve.add_argument(
        "--host", default=None,
        help="listen address (config default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="listen port, 0 = ephemeral (config default: 0); the bound "
        "URL is printed on the first line",
    )
    submit = subparsers.add_parser(
        "submit", help="submit jobs to a running `repro serve` endpoint"
    )
    submit.add_argument(
        "--url", required=True, metavar="URL",
        help="serving endpoint, e.g. http://127.0.0.1:8707",
    )
    submit.add_argument(
        "--kind", default="run", choices=Session._QUEUEABLE,
        help="experiment to run for every job (default: run)",
    )
    submit.add_argument(
        "--count", type=int, default=1, metavar="N",
        help="how many jobs to submit concurrently (default: 1)",
    )
    submit.add_argument(
        "--tenant", dest="tenants", action="append", metavar="NAME",
        default=[],
        help="tenant to submit as (repeatable; jobs cycle through the "
        "list, default: the server's default tenant)",
    )
    submit.add_argument(
        "--priority", dest="priorities", action="append", metavar="CLASS",
        default=[],
        help="priority class (repeatable; jobs cycle through the list, "
        "default: the server's first class)",
    )
    submit.add_argument(
        "--records", default="digest", choices=RECORD_MODES,
        help="record transport: full arrays, content digest, or none "
        "(default: digest)",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="per-request client timeout (default: 300)",
    )
    stream = subparsers.add_parser(
        "stream", help="sliding-window streaming inference over event traces"
    )
    _add_config_args(stream)
    # Streams transform every tile of every window (no sampling), the
    # same contract as `repro run`.
    _add_workload_args(stream, sampling=False)
    _add_backend_args(stream)
    stream.add_argument(
        "--source", dest="stream_source", default=None, choices=STREAM_SOURCES,
        help="event source: replay the workload trace, Poisson events, or "
        "a recurrent cell (config default: replay)",
    )
    stream.add_argument(
        "--window", type=int, default=None,
        help="timesteps per planner window (config default: 4)",
    )
    stream.add_argument(
        "--hop", type=int, default=None,
        help="window advance in timesteps, 0 = non-overlapping "
        "(config default: 0)",
    )
    stream.add_argument(
        "--url", default=None, metavar="URL",
        help="stream over the wire via POST /v1/streams on a running "
        "`repro serve` endpoint instead of in-process",
    )
    stream.add_argument(
        "--records", default="digest", choices=RECORD_MODES,
        help="record transport for --url mode (default: digest)",
    )
    stream.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="client timeout for --url mode (default: 300)",
    )
    cache_cmd = subparsers.add_parser(
        "cache", help="inspect or maintain the persistent result store"
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "show store location, entry count, size, and quarantine"),
        ("clear", "remove every cached entry (the store stays usable)"),
        ("verify", "checksum every entry, quarantine corrupt ones "
                   "(exit 1 if any)"),
    ):
        sub = cache_sub.add_parser(name, help=help_text)
        _add_config_args(sub)
    trade = subparsers.add_parser("tradeoff")
    _add_config_args(trade)
    trade.add_argument("--sparsity-increase", type=float, default=None,
                       help="measured dS (config default: 0.1335)")
    config_cmd = subparsers.add_parser(
        "config", help="inspect the merged run configuration"
    )
    config_sub = config_cmd.add_subparsers(dest="config_command", required=True)
    dump = config_sub.add_parser(
        "dump", help="print the merged config as TOML (or JSON)"
    )
    _add_config_args(dump)
    dump.add_argument("--json", action="store_true",
                      help="emit JSON instead of TOML")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "batch":
        return cmd_batch(args)
    if args.command == "cache":
        return cmd_cache(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "submit":
        return cmd_submit(args)
    if args.command == "stream":
        return cmd_stream(args)
    config = config_from_args(args)
    if args.command == "config":
        output = config.to_json() if args.json else config.to_toml()
        print(output, end="" if output.endswith("\n") else "\n")
        return 0
    try:
        with Session(config) as session:
            output = COMMANDS[args.command](config, session)
    except FaultInjected as exc:
        raise SystemExit(f"repro: error: {type(exc).__name__}: {exc}") from exc
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
