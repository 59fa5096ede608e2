"""The error taxonomy table: one place mapping exceptions to the wire.

Every exception class in :mod:`repro.errors` has exactly one row here giving
its stable wire ``code``, its HTTP status, and whether a client may blindly
retry.  The table is the single source of truth in *both* directions:

* server side, :func:`rule_for` picks the most specific row for a raised
  exception so the HTTP layer never string-matches error messages;
* client side, :func:`reconstruct` rebuilds a typed exception from a wire
  code + details, so ``RemoteGraphService`` raises the *same* exception
  classes an in-process system would (``AdmissionRejectedError`` keeps its
  ``queue_depth`` attribute).

``tests/test_api_envelopes.py`` asserts the table is exhaustive over
:mod:`repro.errors` and that codes are unique, so adding an exception
without classifying it fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import errors as _errors
from repro.errors import GraphCacheError, ServerError


@dataclass(frozen=True)
class ErrorRule:
    """One row of the taxonomy: exception class → wire code + HTTP status."""

    exception: type[BaseException]
    code: str
    http_status: int
    #: True when the condition is transient and the same request may succeed
    #: if simply retried (backpressure, shutdown races) — pure client advice.
    retryable: bool = False


#: Exception attributes that ride along as structured ``details`` on the
#: wire (only those present on the instance and JSON-representable).
DETAIL_ATTRIBUTES = (
    "vertex",
    "u",
    "v",
    "budget",
    "name",
    "queue_depth",
    "shard",
    "respawns",
    "deadline_seconds",
)

#: The taxonomy, ordered most-specific-first: :func:`rule_for` returns the
#: first row whose class matches, so subclasses must precede their bases.
ERROR_TABLE: tuple[ErrorRule, ...] = (
    # serving: transient verdicts a client is expected to handle
    ErrorRule(_errors.AdmissionRejectedError, "admission-rejected", 429, retryable=True),
    ErrorRule(_errors.DeadlineExceededError, "timeout", 504, retryable=True),
    ErrorRule(_errors.ShardWorkerError, "shard-worker", 503, retryable=True),
    ErrorRule(_errors.ServerClosedError, "server-closed", 503, retryable=True),
    ErrorRule(_errors.RecordingStateError, "recording-state", 409),
    ErrorRule(_errors.ProtocolError, "protocol", 400),
    ErrorRule(_errors.ServerError, "server", 500),
    # graph data model: the request carried a bad pattern graph
    ErrorRule(_errors.VertexNotFoundError, "graph-vertex-not-found", 400),
    ErrorRule(_errors.EdgeNotFoundError, "graph-edge-not-found", 400),
    ErrorRule(_errors.DuplicateVertexError, "graph-duplicate-vertex", 400),
    ErrorRule(_errors.GraphError, "graph", 400),
    ErrorRule(_errors.GraphFormatError, "graph-format", 400),
    # execution engines: server-side faults
    ErrorRule(_errors.BudgetExceededError, "isomorphism-budget-exceeded", 500),
    ErrorRule(_errors.IsomorphismError, "isomorphism", 500),
    ErrorRule(_errors.IndexError_, "index", 500),
    ErrorRule(_errors.UnknownMethodError, "unknown-method", 400),
    ErrorRule(_errors.MethodError, "method", 500),
    ErrorRule(_errors.UnknownPolicyError, "unknown-policy", 400),
    ErrorRule(_errors.CacheCapacityError, "cache-capacity", 400),
    ErrorRule(_errors.CacheError, "cache", 500),
    # caller-supplied inputs
    ErrorRule(_errors.WorkloadError, "workload", 400),
    ErrorRule(_errors.ConfigurationError, "configuration", 400),
    # the base class: anything intentionally raised but not special-cased
    ErrorRule(GraphCacheError, "internal", 500),
)

#: The wire code of a missed deadline (HTTP 504).  Historically a "codeless
#: code" with no class behind it; it is now backed by
#: :class:`~repro.errors.DeadlineExceededError`, so clients get the typed
#: exception while the wire shape stays exactly what pre-deadline servers
#: spoke.
TIMEOUT_CODE = "timeout"
#: A code with no :mod:`repro.errors` class behind it (a non-library
#: exception escaped the pipeline); reconstructs to :class:`ServerError`.
UNKNOWN_CODE = "unexpected"

_FALLBACK_RULE = ErrorRule(GraphCacheError, UNKNOWN_CODE, 500)

_BY_CODE = {rule.code: rule for rule in ERROR_TABLE}


def rule_for(exc: BaseException) -> ErrorRule:
    """The most specific taxonomy row for ``exc`` (fallback: 500/unexpected)."""
    for rule in ERROR_TABLE:
        if isinstance(exc, rule.exception):
            return rule
    return _FALLBACK_RULE


def details_for(exc: BaseException) -> dict:
    """The structured attributes of ``exc`` that travel on the wire."""
    details = {}
    for attribute in DETAIL_ATTRIBUTES:
        value = getattr(exc, attribute, None)
        if value is None:
            continue
        if isinstance(value, (str, int, float, bool)):
            details[attribute] = value
        else:  # graph ids may be arbitrary objects; keep them readable
            details[attribute] = repr(value)
    return details


def reconstruct(code: str, message: str, details: dict | None = None) -> GraphCacheError:
    """Rebuild the typed exception a wire error envelope describes.

    The class is instantiated without running its (often positional)
    ``__init__`` so the exact server-side message survives verbatim; the
    structured details are restored as attributes.
    """
    rule = _BY_CODE.get(code)
    if rule is None or rule.code == UNKNOWN_CODE:
        return ServerError(message)
    cls = rule.exception
    if not issubclass(cls, GraphCacheError):  # pragma: no cover - table invariant
        return ServerError(message)
    exc = cls.__new__(cls)
    Exception.__init__(exc, message)
    for attribute, value in (details or {}).items():
        if attribute in DETAIL_ATTRIBUTES:
            setattr(exc, attribute, value)
    # AdmissionRejectedError always carries its queue depth in-process; mirror that
    if isinstance(exc, _errors.AdmissionRejectedError) and not hasattr(exc, "queue_depth"):
        exc.queue_depth = None
    return exc
