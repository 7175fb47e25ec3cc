"""The service's event journal keeps progress compactly and losslessly.

:class:`repro.serve.events.EventLog` holds every event of every job until
the service stops.  Progress samples are most of them, so each is packed
into one ``struct`` record and rebuilt on read; every read path must
return events equal to the ones published.
"""

import asyncio
import time
import tracemalloc

import pytest

from repro import api, obs
from repro.schema import JobEvent, JobProgress
from repro.serve.events import EventLog, ProgressTracer, read_new_progress

SAMPLES = [
    JobProgress("gp", 0, {"hpwl": 3672.518478202929, "overflow": 0.9161150907968102}),
    JobProgress("gp", 1, {"hpwl": -0.0, "overflow": 1e-300}),
    JobProgress("padding", 2, {"added": 0, "area": 12.5}),
    JobProgress("route", 3, {"rerouted": 47, "hof": 0.098, "vof": 0.049}),
    JobProgress("route", 4, {}),
    JobProgress("gp", 2**40, {"huge": 2**70, "hpwl": 1.0}),  # kept unpacked
    JobProgress("gp", 5, {"hpwl": 2.0, "overflow": 3}),  # int where a float was
]


def publish_all(log: EventLog, job_id: str = "job-1") -> list:
    published = [log.publish(job_id, "state", state="queued")]
    published += [log.publish(job_id, "progress", progress=p) for p in SAMPLES]
    published.append(log.publish(job_id, "state", state="done"))
    return published


def test_events_equal_what_was_published():
    log = EventLog()
    published = publish_all(log)
    publish_all(log, "job-2")
    assert log.events("job-1") == published
    assert [e.seq for e in published] == list(range(len(published)))
    assert log.events("job-1", after=3) == published[4:]
    assert log.events("job-1", after=len(published)) == []
    assert log.last_seq("job-1") == len(published) - 1
    for got, want in zip(log.events("job-1"), published):
        if got.progress is not None:
            # Types survive too: an int metric is not read back as 3.0.
            assert [type(v) for v in got.progress.metrics.values()] == [
                type(v) for v in want.progress.metrics.values()
            ]
            assert repr(got.progress.metrics) == repr(want.progress.metrics)
    assert [JobEvent.from_dict(e.to_dict()) for e in log.events("job-1")] == published


def test_wait_returns_the_same_events():
    async def main():
        log = EventLog()
        waiting = asyncio.ensure_future(log.wait("job-1", after=-1, timeout=5))
        await asyncio.sleep(0)
        first = log.publish("job-1", "progress", progress=SAMPLES[0])
        assert await waiting == [first]
        published = [first] + [
            log.publish("job-1", "progress", progress=p) for p in SAMPLES[1:]
        ]
        assert await log.wait("job-1", after=0, timeout=1) == published[1:]
        assert await log.wait("job-1", after=len(published) - 1, timeout=0.01) == []

    asyncio.run(main())


@pytest.fixture(scope="module")
def progress_file(tmp_path_factory):
    """The progress stream of one OR1200 placement and route."""
    path = tmp_path_factory.mktemp("progress") / "job.jsonl"
    tracer = ProgressTracer(sinks=[obs.JsonlSink(path)])
    with obs.tracing(tracer):
        api.run("OR1200", config=api.RunConfig(scale=0.002), route=True)
    tracer.close()
    return str(path)


def test_a_job_keeps_a_third_of_the_bytes(progress_file):
    samples, _ = read_new_progress(progress_file)
    assert len(samples) > 100

    def traced(build):
        tracemalloc.start()
        try:
            kept = build()
            return tracemalloc.get_traced_memory()[0], kept
        finally:
            tracemalloc.stop()

    # What the log held before: one JobEvent per sample.
    plain, _ = traced(lambda: [
        JobEvent(seq=i, kind="progress", job_id="job-1", ts=time.time(), progress=p)
        for i, p in enumerate(read_new_progress(progress_file)[0])
    ])
    log = EventLog()
    publish_all(log, "warm-up")  # the shared layouts are not per job

    def publish():
        for progress in read_new_progress(progress_file)[0]:
            log.publish("job-1", "progress", progress=progress)

    packed, _ = traced(publish)
    assert packed * 3 <= plain
    assert [e.progress for e in log.events("job-1")] == samples
