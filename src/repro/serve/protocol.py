"""Wire protocol of the planning service.

One request is one JSON object: either a bare
:class:`~repro.scenarios.spec.ScenarioSpec` dictionary, or an envelope
``{"id": <str|int>, "spec": {...}}`` when the client wants its responses
matched back to requests (the stdin transport interleaves responses in
completion order).  One response is one JSON object with ``status`` of
``"ok"`` or ``"error"``:

``ok``
    Carries the spec's canonical ``content_hash``, the point ``record``
    (bit-identical to what ``repro sweep`` writes for the same spec),
    ``from_cache`` (served from the on-disk artifact cache), ``dedup``
    (this request attached to an already-in-flight identical solve) and
    ``elapsed_s`` (queue + solve wall time for *this* waiter).
``error``
    Carries a typed ``error`` kind from :data:`ERROR_STATUS` plus a
    human-readable ``message``.  The kind, not the message, is the API.

Responses are encoded with sorted keys (:func:`encode_response`) so equal
records serialize identically — the differential server-vs-direct tests
compare these encodings byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Union

from repro.scenarios.spec import ScenarioSpec

#: Typed error kinds and the HTTP status each maps to.  The stdin transport
#: carries the kind only; HTTP clients get both.
ERROR_STATUS: Dict[str, int] = {
    "bad_request": 400,
    "spec_error": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "payload_too_large": 413,
    "overloaded": 503,
    "draining": 503,
    "timeout": 504,
    "internal": 500,
}

RequestId = Optional[Union[str, int]]


class SpecError(ValueError):
    """The request payload does not describe a valid scenario spec."""


@dataclass(frozen=True)
class PlanRequest:
    """A parsed planning request: an optional client id plus the spec."""

    id: RequestId
    spec: ScenarioSpec


def request_id_of(payload: Any) -> RequestId:
    """Best-effort id extraction for error responses to unparsable requests."""
    if isinstance(payload, Mapping):
        candidate = payload.get("id")
        if isinstance(candidate, (str, int)) and not isinstance(candidate, bool):
            return candidate
    return None


def parse_request(payload: Any) -> PlanRequest:
    """Validate one request payload into a :class:`PlanRequest`.

    Raises :class:`SpecError` for anything the server should answer with a
    ``spec_error`` response: non-object payloads, unknown envelope fields,
    and spec dictionaries :meth:`ScenarioSpec.from_dict` rejects or whose
    spec cannot be content-hashed.
    """
    if not isinstance(payload, Mapping):
        raise SpecError("request must be a JSON object")
    request_id: RequestId = None
    spec_payload: Any = payload
    if "spec" in payload:
        unknown = set(payload) - {"id", "spec"}
        if unknown:
            raise SpecError(f"unknown envelope fields {sorted(unknown)}")
        request_id = payload.get("id")
        spec_payload = payload["spec"]
        if request_id is not None and (
            isinstance(request_id, bool) or not isinstance(request_id, (str, int))
        ):
            raise SpecError("request id must be a string or an integer")
    if not isinstance(spec_payload, Mapping):
        raise SpecError("spec must be a JSON object")
    try:
        spec = ScenarioSpec.from_dict(dict(spec_payload))
        # The server keys dedup and the artifact cache on the content hash,
        # so a spec that cannot be hashed is as invalid as one that cannot
        # be built.  Values nested past the interpreter's recursion limit
        # fail either way with RecursionError.
        spec.content_hash()
    except (KeyError, TypeError, ValueError, RecursionError) as error:
        raise SpecError(f"invalid scenario spec: {error}") from None
    return PlanRequest(id=request_id, spec=spec)


def parse_request_line(line: str) -> PlanRequest:
    """Parse one newline-delimited-JSON request line (the stdin transport)."""
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as error:
        # Nesting deeper than the interpreter's recursion limit makes the
        # decoder raise RecursionError rather than a ValueError.
        raise SpecError(f"invalid JSON: {error}") from None
    return parse_request(payload)


def ok_response(
    request_id: RequestId,
    *,
    content_hash: str,
    record: Mapping[str, Any],
    from_cache: bool,
    dedup: bool,
    elapsed_s: float,
) -> Dict[str, Any]:
    """A successful planning response."""
    return {
        "status": "ok",
        "id": request_id,
        "content_hash": content_hash,
        "from_cache": bool(from_cache),
        "dedup": bool(dedup),
        "elapsed_s": round(float(elapsed_s), 6),
        "record": dict(record),
    }


def error_response(kind: str, message: str, request_id: RequestId = None) -> Dict[str, Any]:
    """A typed error response; ``kind`` must be one of :data:`ERROR_STATUS`."""
    if kind not in ERROR_STATUS:
        raise ValueError(f"unknown error kind {kind!r}; expected one of {sorted(ERROR_STATUS)}")
    return {"status": "error", "id": request_id, "error": kind, "message": message}


def http_status(response: Mapping[str, Any]) -> int:
    """The HTTP status code a response maps to (200 for ``ok``)."""
    if response.get("status") == "ok":
        return 200
    return ERROR_STATUS.get(str(response.get("error")), 500)


def encode_response(response: Mapping[str, Any]) -> str:
    """Canonical one-line JSON encoding (sorted keys, NaN literals allowed,
    matching the artifact cache's serialization of records)."""
    return json.dumps(response, sort_keys=True)
