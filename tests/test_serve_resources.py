"""The shared resource lifecycle of repro.serve, per kind and per transport.

Jobs, ECO sessions and explorations answer the same four boundary
errors the same way — in process through :class:`ServiceClient` and
over HTTP through :class:`HttpServiceClient` — and the HTTP front end
answers malformed framing and retired unversioned paths with plain
JSON errors.
"""

import asyncio
import http.client
import json
import socket
import threading

import pytest

from repro import api
from repro.serve import (
    HttpServer,
    HttpServiceClient,
    PlacementService,
    ResourceStateError,
    ServiceClient,
    ServiceClosedError,
    ServiceConfig,
    UnknownResourceError,
)

RESIZE = {"kind": "resize_cell", "cell": 1, "width": 4.0}


def _runner(request):
    """A placement stand-in whose route report also scores TPE trials."""
    return {
        "design": request["design"], "flow": "puffer", "hpwl": 1.0,
        "route": {"total_overflow": 1.0, "wirelength": 100.0},
    }


class _Step:
    def to_summary(self):
        return {"version": 0}


class _Engine:
    version = 0

    def __init__(self, request):
        pass

    def start(self):
        return _Step()

    def apply(self, payload, verify="cheap"):
        return _Step()

    def close(self):
        pass


@pytest.fixture()
def served():
    """A fake-runner service + HTTP server on a background loop."""
    started = threading.Event()
    box = {}

    def thread_main():
        async def amain():
            box["service"] = PlacementService(
                ServiceConfig(workers=2, capacity=8), runner=_runner,
                session_engine_factory=_Engine,
            )
            await box["service"].start()
            server = HttpServer(box["service"], port=0)
            box["addr"] = await server.start()
            box["stop"] = asyncio.Event()
            started.set()
            await box["stop"].wait()
            await server.close()
            await box["service"].stop()

        box["loop"] = asyncio.new_event_loop()
        box["loop"].run_until_complete(amain())
        box["loop"].close()

    thread = threading.Thread(target=thread_main, daemon=True)
    thread.start()
    assert started.wait(10)
    yield box
    box["loop"].call_soon_threadsafe(box["stop"].set)
    thread.join(10)


def _transports(box):
    """``(client, call)`` pairs; ``call`` runs a client method to its
    result on the client's side of the transport."""

    def on_loop(fn, *args, **kwargs):
        async def call():
            result = fn(*args, **kwargs)
            return await result if asyncio.iscoroutine(result) else result

        return asyncio.run_coroutine_threadsafe(call(), box["loop"]).result(60)

    def direct(fn, *args, **kwargs):
        return fn(*args, **kwargs)

    return [(ServiceClient(box["service"]), on_loop),
            (HttpServiceClient(*box["addr"]), direct)]


def _field(resource, name):
    return resource[name] if isinstance(resource, dict) else getattr(resource, name)


def _create(client, call, kind):
    if kind == "job":
        return call(client.submit, "OR1200")
    if kind == "session":
        return call(client.create_session, "OR1200")
    return call(client.create_exploration,
                api.ExploreConfig(budget=2, priors="off"))


def _settle(client, call, kind):
    """A created resource driven to a state its stop/delta op rejects."""
    created = _create(client, call, kind)
    rid = _field(created, "id")
    call(client.wait, rid, 60, kind=kind)
    if kind == "session":
        call(client.cancel, rid, kind=kind)
    return rid


def _illegal(client, call, kind, rid):
    if kind == "session":
        return call(client.submit_delta, rid, RESIZE)
    return call(client.cancel, rid, kind=kind)


@pytest.mark.parametrize("kind", ["job", "session", "exploration"])
def test_boundary_errors_match_in_process_and_over_http(served, kind):
    transports = _transports(served)
    managers = served["service"].managers
    for client, call in transports:
        with pytest.raises(UnknownResourceError) as unknown:
            call(client.status, "nope-404", kind=kind)
        assert unknown.value.kind == kind

        rid = _settle(client, call, kind)
        with pytest.raises(ResourceStateError) as conflict:
            _illegal(client, call, kind, rid)
        assert conflict.value.kind == kind

        states = managers[kind].resource.STATES
        with pytest.raises(ValueError, match=states[-1]):
            call(client.list, "bogus", kind=kind)

    # Every kind's own state machine refuses a move out of its end state.
    resource = managers[kind].list()[0]
    with pytest.raises(ResourceStateError):
        resource.transition(resource.STATES[0])

    asyncio.run_coroutine_threadsafe(
        served["service"].drain(), served["loop"]
    ).result(30)
    for client, call in transports:
        with pytest.raises(ServiceClosedError):
            _create(client, call, kind)


def test_session_state_changes_stream_as_events(served):
    client = HttpServiceClient(*served["addr"])
    session = client.create_session("OR1200")
    client.apply_delta(session["id"], RESIZE, wait_timeout=30)
    client.close_session(session["id"])
    events = list(client.follow(session["id"], timeout=30, kind="session"))
    assert [e.state for e in events] == [
        "initializing", "ready", "busy", "ready", "closed",
    ]


def _raw(addr, request: bytes) -> tuple:
    with socket.create_connection(addr, timeout=10) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _sep, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


@pytest.mark.parametrize("length", [b"abc", b"-5"])
def test_malformed_content_length_is_a_400(served, length):
    status, payload = _raw(
        served["addr"],
        b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: " + length
        + b"\r\n\r\n{}",
    )
    assert status == 400
    assert "Content-Length" in payload["error"]


def test_unversioned_path_is_a_plain_404(served):
    conn = http.client.HTTPConnection(*served["addr"], timeout=10)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        payload = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 404
    assert response.getheader("Deprecation") is None
    assert response.getheader("Link") is None
    assert "error" in payload
