"""Streaming inference (ISSUE 10): repro.streaming + the wire path.

Acceptance contract: sliding-window streaming over any source produces
records bit-identical to the batch run of the equivalent whole trace —
for every window/hop geometry (including window=1 and window > T), for
every backend, and for the recurrent source whose
hidden state genuinely crosses window boundaries; the Poisson source is
deterministic under its seed; streams ride the scheduler as first-class
``"stream"`` jobs; the ``stream_stall`` fault kind surfaces as a typed
:class:`StreamStalledError` (and recovers when the stall fits the
timeout); and ``POST /v1/streams`` carries all of the above over a real
socket with per-stream ``/metrics`` accounting.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import (
    RunConfig,
    ServeClient,
    ServeError,
    ServeRequestError,
    ServeUnavailable,
    Session,
    StreamRunResult,
    StreamStalledError,
)
from repro.engine import ProsperityEngine, available_backends, faults
from repro.server import ReproServer
from repro.server.protocol import records_digest
from repro.streaming import (
    PoissonEventSource,
    RecurrentSource,
    StreamRunner,
    TraceReplaySource,
)
from repro.workloads import get_trace

LENET = {
    "workload.model": "lenet5",
    "workload.dataset": "mnist",
    "scheduler.coalesce_window_ms": 0.0,
}


def stream_config(**extra) -> RunConfig:
    return RunConfig().with_overrides({**LENET, **extra})


def exhaust(generator):
    """Drain a stream generator into (chunks, StreamResult)."""
    chunks = []
    while True:
        try:
            chunks.append(next(generator))
        except StopIteration as stop:
            return chunks, stop.value


def live_producers() -> list[threading.Thread]:
    """Stream producer threads still running."""
    return [
        thread
        for thread in threading.enumerate()
        if thread.name == "stream-producer" and thread.is_alive()
    ]


def records_by_name(report) -> dict[str, np.ndarray]:
    return {run.name: run.records for run in report.runs}


def batch_records(config: RunConfig) -> dict[str, np.ndarray]:
    with Session(config) as session:
        return records_by_name(session.run().report)


def assert_stream_matches_batch(chunks, result, reference) -> None:
    """The full identity contract: final report AND per-chunk concat."""
    streamed = records_by_name(result.report)
    assert set(streamed) == set(reference)
    for name, expected in reference.items():
        got = streamed[name]
        assert got.shape == expected.shape
        assert np.array_equal(got, expected), name
    concat: dict[str, list[np.ndarray]] = {}
    for chunk in chunks:
        for run in chunk.runs:
            if len(run.records):
                concat.setdefault(run.name, []).append(run.records)
    for name, expected in reference.items():
        pieces = concat.get(name, [])
        got = (
            np.concatenate(pieces)
            if pieces
            else np.empty(0, dtype=expected.dtype)
        )
        assert np.array_equal(got, expected), f"chunk concat for {name}"


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


class TestWindowHopGrid:
    """Every geometry streams bit-identical to batch (lenet5 T=4)."""

    @pytest.mark.parametrize(
        ("window", "hop"),
        [(1, 0), (2, 0), (3, 1), (4, 2), (99, 0)],
        ids=["w1", "w2", "w3h1", "w4h2", "w-gt-T"],
    )
    def test_stream_is_bit_identical_to_batch(self, window, hop):
        config = stream_config(**{
            "streaming.window": window,
            "streaming.hop": hop,
        })
        reference = batch_records(config)
        with Session(config) as session:
            chunks, result = exhaust(session.stream_source())
        assert_stream_matches_batch(chunks, result, reference)
        assert result.steps == 4
        assert chunks[-1].final and not any(c.final for c in chunks[:-1])
        assert [c.index for c in chunks] == list(range(len(chunks)))

    def test_windows_partition_the_stream_clock(self):
        config = stream_config(**{"streaming.window": 3})
        with Session(config) as session:
            chunks, result = exhaust(session.stream_source())
        spans = [(c.start_step, c.stop_step) for c in chunks]
        assert spans[0][0] == 0 and spans[-1][1] == result.steps
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert start == stop


class TestEveryBackend:
    @pytest.mark.parametrize("backend", available_backends())
    def test_stream_matches_batch(self, backend):
        config = stream_config(**{"engine.backend": backend, "streaming.window": 2})
        reference = batch_records(config)
        with Session(config) as session:
            chunks, result = exhaust(session.stream_source())
        assert_stream_matches_batch(chunks, result, reference)
        assert result.report.backend == backend


class TestPoissonSource:
    def test_seeded_determinism(self):
        def make(seed: int) -> PoissonEventSource:
            return PoissonEventSource(
                rate=0.2, rows=32, cols=24, steps=6, seed=seed
            )

        first, second = make(11), make(11)
        for step in range(6):
            assert np.array_equal(
                first.emit(step)["events"], second.emit(step)["events"]
            )
        assert not np.array_equal(
            make(11).emit(0)["events"], make(12).emit(0)["events"]
        )

    def test_stream_matches_batch_of_the_same_events(self):
        config = stream_config(**{"streaming.window": 2})
        with Session(config) as session:
            source = PoissonEventSource(
                rate=0.2, rows=48, cols=32, steps=6, seed=11
            )
            oracle = PoissonEventSource(
                rate=0.2, rows=48, cols=32, steps=6, seed=11
            )
            reference = records_by_name(
                session.engine.run(oracle.batch_trace())
            )
            chunks, result = exhaust(session.stream_source(source))
        assert_stream_matches_batch(chunks, result, reference)

    def test_config_built_source_uses_streaming_knobs(self):
        config = stream_config(**{
            "streaming.source": "poisson",
            "streaming.rows": 16,
            "streaming.cols": 8,
            "streaming.steps": 4,
            "streaming.window": 3,
        })
        with Session(config) as session:
            chunks, result = exhaust(session.stream_source())
        assert result.steps == 4
        streamed = records_by_name(result.report)
        assert set(streamed) == {"events"}


class TestRecurrentSource:
    """Hidden/membrane state must genuinely cross window boundaries."""

    RECURRENT = {
        "workload.model": "recurrent",
        "workload.dataset": "speechcommands",
        "streaming.source": "recurrent",
    }

    def test_window_1_stream_matches_batch(self):
        # window=1 forces a boundary after every frame: equality with the
        # batch trace (one continuous state trajectory) proves carry.
        config = stream_config(**self.RECURRENT, **{"streaming.window": 1})
        reference = batch_records(config)
        with Session(config) as session:
            chunks, result = exhaust(session.stream_source())
        assert_stream_matches_batch(chunks, result, reference)
        assert result.windows == result.steps

    def test_source_state_evolves_across_steps(self):
        source = RecurrentSource()
        before = source.state.hidden.copy()
        source.emit(0)
        source.emit(1)
        assert not np.array_equal(before, source.state.hidden)

    def test_tcres8_replay_matches_batch(self):
        config = stream_config(**{
            "workload.model": "tcres8",
            "workload.dataset": "speechcommands",
            "streaming.window": 2,
        })
        reference = batch_records(config)
        with Session(config) as session:
            chunks, result = exhaust(session.stream_source())
        assert_stream_matches_batch(chunks, result, reference)


class TestSchedulerPaths:
    def test_session_submit_stream_kind(self):
        config = stream_config(**{"streaming.window": 2})
        reference = batch_records(config)
        with Session(config) as session:
            result = session.submit("stream").result()
        assert isinstance(result, StreamRunResult)
        streamed = records_by_name(result.report)
        for name, expected in reference.items():
            assert np.array_equal(streamed[name], expected), name

    def test_scheduler_handle_streams_chunks(self):
        from repro.api import Job, Scheduler

        config = stream_config(**{"streaming.window": 2})
        reference = batch_records(config)
        with Scheduler(config) as scheduler:
            handle = scheduler.submit(Job(kind="stream", config=config))
            chunks = list(handle.chunks())
            result = handle.result()
        assert chunks and chunks[-1].final
        assert isinstance(result, StreamRunResult)
        streamed = records_by_name(result.report)
        for name, expected in reference.items():
            assert np.array_equal(streamed[name], expected), name

    def test_replay_source_explicit_trace(self):
        config = stream_config(**{"streaming.window": 2})
        trace = get_trace("lenet5", "mnist", "small", 7)
        reference = batch_records(config)
        with Session(config) as session:
            chunks, result = exhaust(
                session.stream_source(TraceReplaySource(trace))
            )
        assert_stream_matches_batch(chunks, result, reference)


class TestPassCounters:
    def test_window_counters_exclude_a_concurrent_pass(self):
        """A window that waits on the engine's pass lock while another
        thread runs a trace counts only its own cache lookups, and so
        does the stream's report."""
        engine = ProsperityEngine()
        runner = StreamRunner(
            TraceReplaySource(get_trace("lenet5", "mnist", "small", 7)),
            engine,
            window=2,
        )
        other = get_trace("lenet5", "mnist", "small", 8)
        drained = {}
        consumer = threading.Thread(
            target=lambda: drained.update(out=exhaust(runner.run()))
        )
        with engine.exclusive():
            consumer.start()
            time.sleep(0.3)  # the first window reaches the pass lock
            engine.run(other)
        consumer.join()
        chunks, result = drained["out"]
        for chunk in chunks:
            assert chunk.cache_hits + chunk.cache_misses == chunk.unique_tiles
        report = result.report
        assert report.cache_hits + report.cache_misses == report.unique_tiles


class TestStallFault:
    def test_stall_past_timeout_raises_typed_error(self):
        config = stream_config(**{
            "streaming.window": 2,
            "streaming.stall_timeout_s": 0.2,
        })
        faults.install("stream_stall:seconds=30:times=1")
        with Session(config) as session:
            generator = session.stream_source()
            with pytest.raises(StreamStalledError) as excinfo:
                exhaust(generator)
        assert isinstance(excinfo.value, TimeoutError)
        assert "lenet5" in str(excinfo.value)
        # Cancellation wakes the stalled producer; it does not sleep on.
        assert not live_producers()

    def test_stall_within_timeout_recovers_bit_identical(self):
        config = stream_config(**{
            "streaming.window": 2,
            "streaming.stall_timeout_s": 5.0,
        })
        reference = batch_records(config)
        faults.install("stream_stall:seconds=0.05:times=2")
        with Session(config) as session:
            chunks, result = exhaust(session.stream_source())
        assert_stream_matches_batch(chunks, result, reference)

    def test_stall_spec_match_scopes_by_source_name(self):
        config = stream_config(**{
            "streaming.window": 2,
            "streaming.stall_timeout_s": 0.2,
        })
        faults.install("stream_stall:seconds=30:match=some-other-source")
        with Session(config) as session:
            chunks, result = exhaust(session.stream_source())
        assert result.windows == len(chunks)


class TestWirePath:
    """POST /v1/streams end to end on a real socket."""

    def test_full_mode_is_bit_identical_to_batch(self):
        config = stream_config(**{"streaming.window": 2})
        reference = batch_records(config)
        with ReproServer(config) as server, ServeClient(server.url) as client:
            chunks, final = exhaust(client.stream(records="full"))
            concat: dict[str, list[np.ndarray]] = {}
            for chunk in chunks:
                for run in chunk.runs:
                    if run["records"] is not None and len(run["records"]):
                        concat.setdefault(run["name"], []).append(
                            run["records"]
                        )
            for name, expected in reference.items():
                got = (
                    np.concatenate(concat[name])
                    if name in concat
                    else np.empty(0, dtype=expected.dtype)
                )
                assert np.array_equal(got, expected), name
            assert final["type"] == "StreamResult"
            assert final["steps"] == 4
            for run in final["report"]["runs"]:
                assert run["records"]["blake2b"] == records_digest(
                    reference[run["name"]]
                )

    def test_digest_mode_proves_identity_without_bytes(self):
        config = stream_config(**{"streaming.window": 2})
        reference = batch_records(config)
        with ReproServer(config) as server, ServeClient(server.url) as client:
            chunks, final = exhaust(client.stream(records="digest"))
            assert all(
                run["records"] is None
                for chunk in chunks
                for run in chunk.runs
            )
            for run in final["report"]["runs"]:
                assert run["records"]["blake2b"] == records_digest(
                    reference[run["name"]]
                )

    def test_metrics_account_streams_and_windows(self):
        config = stream_config(**{"streaming.window": 2})
        with ReproServer(config) as server, ServeClient(server.url) as client:
            chunks, _ = exhaust(client.stream(records="none"))
            streams = client.metrics()["server"]["streams"]
            assert streams["total"] == 1
            assert streams["completed"] == 1
            assert streams["failed"] == 0
            assert streams["windows_total"] == len(chunks)
            assert streams["window_latency_ms"]["count"] == len(chunks)
            assert streams["last_dedup_ratio"] >= 1.0

    def test_bad_records_mode_is_preadmission_400(self):
        config = stream_config()
        with ReproServer(config) as server, ServeClient(server.url) as client:
            with pytest.raises(ServeRequestError):
                exhaust(client.stream(records="bogus"))

    def test_non_stream_kind_is_preadmission_400(self):
        config = stream_config()
        with ReproServer(config) as server, ServeClient(server.url) as client:
            status, body = client._request(
                "POST", "/v1/streams", {"kind": "run"}
            )
            assert status == 400
            assert "stream" in body["error"]["message"]

    def test_draining_server_refuses_streams_503(self):
        config = stream_config()
        with ReproServer(config) as server, ServeClient(server.url) as client:
            server.request_drain()
            with pytest.raises(ServeUnavailable):
                exhaust(client.stream())

    def test_runtime_failure_arrives_in_band_and_counts_failed(self):
        config = stream_config()
        with ReproServer(config) as server, ServeClient(server.url) as client:
            with pytest.raises(ServeError):
                exhaust(client.stream(config={"workload": {"model": "nope"}}))
            streams = client.metrics()["server"]["streams"]
            assert streams["total"] == 1 and streams["failed"] == 1

    def test_stream_stall_over_the_wire_is_clean_in_band_error(self):
        config = stream_config(**{
            "streaming.window": 2,
            "streaming.stall_timeout_s": 0.2,
        })
        faults.install("stream_stall:seconds=30:times=1")
        with ReproServer(config) as server, ServeClient(server.url) as client:
            with pytest.raises(ServeError) as excinfo:
                exhaust(client.stream(records="none"))
            assert excinfo.value.error_type == "StreamStalledError"
            assert not live_producers()
