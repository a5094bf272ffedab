"""JSON-over-HTTP wire protocol for :mod:`repro.serve`.

A deliberately small HTTP/1.1 subset — request line, headers,
``Content-Length``-framed bodies, keep-alive — parsed directly off
asyncio streams.  Enough for curl, :mod:`http.client` and load
generators; no chunked encoding, no TLS, no multipart.

Every response body is a JSON envelope::

    {"ok": true,  "result": {...}, "elapsed_ms": 12.3}
    {"ok": false, "error": {"code": "queue_full", "message": "..."}}

Status codes carry the service semantics (docs/internals.md §10):

=====  ==================  =============================================
 200    ok                  request served
 400    bad_request         malformed JSON / unknown NF / bad params
 404    not_found           unknown endpoint
 405    method_not_allowed  wrong verb for the endpoint
 413    payload_too_large   body above ``MAX_BODY_BYTES``
 429    queue_full          admission queue at capacity (backpressure)
 500    internal            job raised; traceback in the error detail
 503    draining            server is draining (SIGTERM received)
 504    deadline_exceeded   per-request deadline hit (job cancelled)
=====  ==================  =============================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

#: Hard cap on request bodies (a full NF source is ~10 KiB; 8 MiB is
#: generous for packet batches and keeps one client from ballooning
#: server memory).
MAX_BODY_BYTES = 8 << 20
#: Cap on a single header line / the request line.
MAX_LINE_BYTES = 16 << 10
MAX_HEADERS = 100

STATUS_REASONS: Dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: status → machine-readable error code used in envelopes.
ERROR_CODES: Dict[int, str] = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    408: "request_timeout",
    413: "payload_too_large",
    429: "queue_full",
    500: "internal",
    503: "draining",
    504: "deadline_exceeded",
}


class ProtocolError(Exception):
    """A malformed or oversized request; carries the HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        # HTTP/1.1 default is keep-alive unless the client opts out.
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Dict[str, Any]:
        """The body as a JSON object (empty body → empty dict)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        return payload


async def read_request(reader) -> Optional[HttpRequest]:
    """Parse one request off the stream; None on a clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, ValueError):
        return None
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(400, "request line too long")
    try:
        method, target, _version = line.decode("latin-1").strip().split(" ", 2)
    except ValueError:
        raise ProtocolError(400, f"malformed request line: {line[:80]!r}")

    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        if len(raw) > MAX_LINE_BYTES:
            raise ProtocolError(400, "header line too long")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header: {raw[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ProtocolError(400, "too many headers")

    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(400, f"bad Content-Length: {length_text!r}")
    if length < 0:
        raise ProtocolError(400, "negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except Exception:
            return None

    split = urlsplit(target)
    query = {
        key: values[-1] for key, values in parse_qs(split.query).items()
    }
    return HttpRequest(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialize one HTTP response (headers + body) to bytes."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def ok_envelope(result: Any, **extra: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {"ok": True, "result": result}
    out.update(extra)
    return out


def error_envelope(status: int, message: str, **extra: Any) -> Dict[str, Any]:
    error: Dict[str, Any] = {
        "code": ERROR_CODES.get(status, "error"),
        "message": message,
    }
    error.update(extra)
    return {"ok": False, "error": error}


def json_response(
    status: int,
    envelope: Dict[str, Any],
    *,
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    body = (json.dumps(envelope) + "\n").encode("utf-8")
    return render_response(
        status, body, keep_alive=keep_alive, extra_headers=extra_headers
    )


def parse_client_response(status: int, body: bytes) -> Tuple[bool, Dict[str, Any]]:
    """Client-side envelope decode; tolerates non-JSON error bodies."""
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, json.JSONDecodeError):
        payload = {"ok": False, "error": {"code": "bad_response",
                                          "message": body[:200].decode("latin-1")}}
    if not isinstance(payload, dict):
        payload = {"ok": False, "error": {"code": "bad_response",
                                          "message": repr(payload)[:200]}}
    ok = bool(payload.get("ok", status == 200))
    return ok, payload
