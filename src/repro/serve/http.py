"""JSON-over-HTTP front end of the placement service (stdlib only).

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server` —
no framework, no threads — translating requests into calls on the
service's resource managers (:mod:`repro.serve.resources`).  Every
route lives under the versioned ``/v1`` prefix.  Each manager in
``service.managers`` contributes the same generic routes, where
``<kind>`` is its collection (``jobs``, ``sessions``, ``explorations``,
and ``sessions/<sid>/deltas``):

====== ============================== ================================
Method Path                           Action
====== ============================== ================================
POST   ``/v1/<kind>``                 create (``202``)
GET    ``/v1/<kind>``                 list (``?state=`` filters)
GET    ``/v1/<kind>/<id>``            one resource's status
DELETE ``/v1/<kind>/<id>``            cancel a job or exploration,
                                      close a session (not deltas)
GET    ``/v1/<kind>/<id>/events``     the resource's event stream
                                      (``?after=<seq>&wait=<s>`` long-polls)
====== ============================== ================================

plus ``GET /v1/healthz`` (liveness + per-kind state counts),
``GET /v1/metrics`` (service counters and obs instruments) and
``GET /v1/explorations/<id>/report`` (the finished report, 409 until
done).  A path outside this table is a plain 404.

Error mapping (one table for every route): validation problems —
including malformed request framing and an unknown ``?state=`` — are
``400``, unknown ids ``404``, illegal lifecycle moves ``409``, a full
queue ``429`` with a ``Retry-After`` header, drain ``503``.  Every
response is JSON and every connection is single-shot
(``Connection: close``) — clients here are submission scripts and
event followers, not browsers holding keep-alives; the events
long-poll holds the request open server-side instead of keeping the
socket across requests.
"""

from __future__ import annotations

import asyncio
import json
from functools import partial
from http import HTTPStatus

from ..schema import SchemaError
from .resources import (
    QueueFullError,
    ResourceStateError,
    ServiceClosedError,
    UnknownResourceError,
)

#: Request-size guards (a placement request is a few KB of JSON).
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024

#: Longest server-side hold of an events long-poll, seconds.
MAX_EVENT_WAIT = 60.0

#: Exception type -> HTTP status, checked in order (the first match wins).
_ERROR_STATUS = (
    (ServiceClosedError, HTTPStatus.SERVICE_UNAVAILABLE),
    (UnknownResourceError, HTTPStatus.NOT_FOUND),
    (ResourceStateError, HTTPStatus.CONFLICT),
    # SchemaError/UnknownFlowError are ValueErrors; KeyError is
    # StrategyParams' unknown-parameter rejection.
    ((SchemaError, ValueError, KeyError), HTTPStatus.BAD_REQUEST),
)


class _HttpError(Exception):
    """Internal: abort the request with ``status`` and a JSON error."""

    def __init__(self, status: HTTPStatus, message: str, headers=None) -> None:
        self.status = status
        self.message = message
        self.headers = headers or {}
        super().__init__(message)


def _segments(path: str) -> list:
    return [part for part in path.split("/") if part]


class HttpServer:
    """Serves a :class:`PlacementService` over HTTP.

    Args:
        service: the (started) service to expose.
        host: bind address.
        port: bind port (``0`` picks a free one; see :attr:`port` after
            :meth:`start`).
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 8180) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.routes = self._build_routes()
        self._server: asyncio.AbstractServer | None = None

    def _build_routes(self) -> list:
        """``(method, path pattern, handler)`` for every route; ``{name}``
        segments capture path parameters passed to the handler."""
        routes = [
            ("GET", "/v1/healthz", partial(self._read, self.service.healthz)),
            ("GET", "/v1/metrics", partial(self._read, self.service.metrics)),
            ("GET", "/v1/explorations/{id}/report",
             partial(self._read, self.service.explorations.report)),
        ]
        for manager in self.service.managers.values():
            base = f"/v1/{manager.path}"
            if manager.parent is not None:
                base = f"/v1/{manager.parent.path}/{{parent}}/{manager.path}"
            item = base + "/{id}"
            routes += [
                ("POST", base, partial(self._create, manager)),
                ("GET", base, partial(self._list, manager)),
                ("GET", item, partial(self._status, manager)),
                ("GET", item + "/events", partial(self._events, manager)),
            ]
            if manager.delete is not None:
                routes.append(("DELETE", item, partial(self._delete, manager)))
        return routes

    def _match(self, method: str, path: str) -> tuple:
        """``(handler, path params)`` for ``method path``; a path that
        matches under another method is a 405, no match at all a 404."""
        parts = _segments(path)
        allowed = set()
        for route_method, pattern, handler in self.routes:
            pattern_parts = _segments(pattern)
            if len(pattern_parts) != len(parts):
                continue
            params = {}
            for want, got in zip(pattern_parts, parts):
                if want.startswith("{") and want.endswith("}"):
                    params[want[1:-1]] = got
                elif want != got:
                    break
            else:
                if route_method == method:
                    return handler, params
                allowed.add(route_method)
        if allowed:
            raise _HttpError(
                HTTPStatus.METHOD_NOT_ALLOWED,
                f"{method} {path} (allowed: {', '.join(sorted(allowed))})",
            )
        raise _HttpError(HTTPStatus.NOT_FOUND, f"no route for {path}")

    async def start(self) -> tuple:
        """Bind and start accepting; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # One request per connection
    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
                status, payload, headers = await self._dispatch(method, path, body)
            except _HttpError as err:
                status, payload, headers = err.status, {"error": err.message}, err.headers
            await self._respond(writer, status, payload, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> tuple:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                             "headers too large") from None
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                             "headers too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HttpError(HTTPStatus.BAD_REQUEST, f"bad request line: {lines[0]!r}")
        method, path, _version = parts
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise _HttpError(HTTPStatus.BAD_REQUEST,
                             f"bad Content-Length: {raw_length!r}")
        if length > MAX_BODY_BYTES:
            raise _HttpError(HTTPStatus.REQUEST_ENTITY_TOO_LARGE, "body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    async def _dispatch(self, method: str, path: str, body: bytes) -> tuple:
        path, _sep, query = path.partition("?")
        handler, params = self._match(method, path)
        try:
            status, payload = await handler(params, query, body)
        except QueueFullError as exc:
            raise _HttpError(
                HTTPStatus.TOO_MANY_REQUESTS, str(exc),
                headers={"Retry-After": f"{exc.retry_after:g}"},
            ) from None
        except _HttpError:
            raise
        except Exception as exc:
            for error_type, error_status in _ERROR_STATUS:
                if isinstance(exc, error_type):
                    raise _HttpError(error_status, str(exc)) from None
            raise
        return status, payload, {}

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    async def _read(self, fn, params, query, body) -> tuple:
        """A read-only route: ``fn`` of the path parameters."""
        return HTTPStatus.OK, fn(*params.values())

    @staticmethod
    def _lookup(manager, params):
        """The addressed resource (``None`` for collection routes) after
        checking the parent; an id under another parent is unknown."""
        parent = params.get("parent")
        if parent is not None:
            manager.parent.get(parent)
        return manager.get(params["id"], parent) if "id" in params else None

    async def _create(self, manager, params, query, body) -> tuple:
        self._lookup(manager, params)
        scope = [params["parent"]] if "parent" in params else []
        resource = manager.create(self._parse_body(body), *scope)
        return HTTPStatus.ACCEPTED, resource.to_wire()

    async def _list(self, manager, params, query, body) -> tuple:
        self._lookup(manager, params)
        resources = manager.list(_query_param(query, "state"), params.get("parent"))
        return HTTPStatus.OK, {manager.path: [r.to_wire() for r in resources]}

    async def _status(self, manager, params, query, body) -> tuple:
        return HTTPStatus.OK, self._lookup(manager, params).to_wire()

    async def _delete(self, manager, params, query, body) -> tuple:
        resource = self._lookup(manager, params)
        return HTTPStatus.OK, manager.delete(resource.id).to_wire()

    async def _events(self, manager, params, query, body) -> tuple:
        resource_id = self._lookup(manager, params).id
        after = _numeric_param(query, "after", int, -1)
        wait = _numeric_param(query, "wait", float, 0.0)
        if wait > 0:
            events, done = await manager.wait_events(
                resource_id, after=after, timeout=min(wait, MAX_EVENT_WAIT)
            )
        else:
            events = manager.events(resource_id, after)
            done = manager.get(resource_id).terminal
        return HTTPStatus.OK, {
            f"{manager.kind}_id": resource_id,
            "events": [event.to_dict() for event in events],
            "next_after": events[-1].seq if events else after,
            "stream_done": done,
        }

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_body(body: bytes) -> dict:
        try:
            return json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(HTTPStatus.BAD_REQUEST, f"bad JSON body: {exc}") from None

    async def _respond(self, writer: asyncio.StreamWriter, status: HTTPStatus,
                       payload: dict, headers: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = [
            f"HTTP/1.1 {status.value} {status.phrase}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


def _query_param(query: str, name: str) -> str | None:
    for pair in query.split("&"):
        key, _sep, value = pair.partition("=")
        if key == name and value:
            return value
    return None


def _numeric_param(query: str, name: str, cast, default):
    raw = _query_param(query, name)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError:
        raise _HttpError(
            HTTPStatus.BAD_REQUEST, f"query parameter {name!r} must be {cast.__name__}"
        ) from None
