"""Envelope + protocol tests: round trips, the one wire version, taxonomy.

Three invariants lock the service boundary:

* **serialisation is lossless** — every envelope survives
  ``to_wire`` → ``json`` → ``from_wire`` (hypothesis drives random
  graphs/metadata through the round trip);
* **there is one wire version** — every payload declares ``"version": 2``;
  one that declares nothing, or anything else (a legacy flat v1 payload
  included), is a :class:`ProtocolError` naming the version spoken;
* **the error taxonomy is exhaustive** — every exception class in
  :mod:`repro.errors` has exactly one row in ``ERROR_TABLE`` (adding an
  exception without classifying it fails here), codes are unique, no row is
  shadowed by an earlier superclass row, and typed exceptions survive the
  wire round trip with their structured attributes intact.
"""

from __future__ import annotations

import inspect
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import errors as errors_module
from repro.api.envelopes import (
    PROTOCOL_VERSION,
    ErrorEnvelope,
    MetricsSnapshot,
    QueryRequest,
    QueryResponse,
    parse_request,
    parse_response,
    require_version,
)
from repro.api.taxonomy import ERROR_TABLE, UNKNOWN_CODE, rule_for
from repro.errors import (
    AdmissionRejectedError,
    GraphCacheError,
    ProtocolError,
    ServerClosedError,
    ServerError,
)
from repro.graph.graph import Graph
from repro.query_model import Query, QueryType


def small_graph(num_vertices: int = 4, graph_id=7) -> Graph:
    graph = Graph(graph_id=graph_id)
    for vertex in range(num_vertices):
        graph.add_vertex(vertex, label=f"L{vertex % 2}")
    for vertex in range(1, num_vertices):
        graph.add_edge(vertex - 1, vertex)
    return graph


# ---------------------------------------------------------------------- #
# request envelopes
# ---------------------------------------------------------------------- #
class TestQueryRequest:
    def test_round_trip(self):
        request = QueryRequest(graph=small_graph(), query_type="supergraph",
                               metadata={"origin": "test"}, request_id="r-1")
        wire = json.loads(json.dumps(request.to_wire()))
        assert wire["version"] == 2 and wire["request_id"] == "r-1"
        parsed = parse_request(wire)
        assert QueryRequest.from_wire(wire).to_wire() == wire
        assert parsed.request_id == "r-1"
        assert parsed.query_type is QueryType.SUPERGRAPH
        assert parsed.metadata == {"origin": "test"}
        assert parsed.graph.to_dict() == request.graph.to_dict()

    def test_from_query_and_back(self):
        query = Query(graph=small_graph(), query_type=QueryType.SUBGRAPH,
                      metadata={"tag": "x"})
        request = QueryRequest.from_query(query, request_id=3)
        rebuilt = request.to_query()
        assert rebuilt.query_type is query.query_type
        assert rebuilt.metadata == {"tag": "x"}
        assert rebuilt.query_id != query.query_id  # fresh executable identity

    @pytest.mark.parametrize("payload,message", [
        ("not a dict", "JSON object"),
        ({"version": 3, "query": {}}, "declares protocol version 3"),
        ({"version": 2}, "no 'query' object"),
        ({"version": 2, "query": {"query_type": "subgraph"}}, "no 'graph'"),
        ({"version": 2, "query": {"graph": {"vertices": []}},
          "request_id": ["no"]}, "request_id"),
        ({}, "declares no protocol version"),
        ({"version": 2, "query": {"graph": {"vertices": [[0, "A"]], "edges": []},
                                  "query_type": "sideways"}}, "unknown query type"),
        ({"version": 2, "query": {"graph": {"vertices": [[0, "A"]], "edges": []},
                                  "metadata": "nope"}}, "'metadata'"),
    ])
    def test_malformed_requests_raise_protocol_error(self, payload, message):
        with pytest.raises(ProtocolError, match=message):
            parse_request(payload)


# ---------------------------------------------------------------------- #
# response envelopes
# ---------------------------------------------------------------------- #
class TestQueryResponse:
    def make_response(self, **overrides) -> QueryResponse:
        fields = dict(
            answer=frozenset({1, 5, "g9"}),
            query_id=12,
            query_type=QueryType.SUBGRAPH,
            hits={"exact": False, "sub": 2, "super": 0},
            tests={"dataset": 3, "baseline": 11, "probe": 4},
            stage_seconds={"filter": 0.001, "verify": 0.02},
            total_seconds=0.025,
            queue_seconds=0.004,
            batch_size=4,
            request_id="q-9",
        )
        fields.update(overrides)
        return QueryResponse(**fields)

    def test_round_trip(self):
        response = self.make_response()
        wire = json.loads(json.dumps(response.to_wire()))
        assert wire["version"] == PROTOCOL_VERSION
        assert set(wire["result"]) == {"answer", "query_id", "query_type", "hits",
                                       "tests", "stage_seconds", "total_seconds",
                                       "server"}
        assert wire["result"]["server"] == {"queue_seconds": 0.004, "batch_size": 4}
        parsed = QueryResponse.from_wire(wire)
        assert parsed == response

    def test_parse_response_picks_the_right_envelope(self):
        ok = parse_response(self.make_response().to_wire())
        assert isinstance(ok, QueryResponse)
        err = parse_response(
            ErrorEnvelope.from_exception(ServerClosedError("draining")).to_wire())
        assert isinstance(err, ErrorEnvelope)
        assert err.code == "server-closed"


# ---------------------------------------------------------------------- #
# the one wire version
# ---------------------------------------------------------------------- #
class TestOneVersion:
    def test_a_declared_v2_payload_passes_through(self):
        payload = {"version": 2, "query": {}}
        assert require_version(payload) is payload

    @pytest.mark.parametrize("declared", [None, 1, "2", True, 2.0, 3],
                             ids=repr)
    def test_anything_else_names_the_version_spoken(self, declared):
        payload = {"graph": {}} if declared is None else {"version": declared}
        with pytest.raises(ProtocolError, match="version 2 is the only one spoken"):
            require_version(payload)

    def test_every_reader_checks_it(self):
        """No reader accepts a legacy flat (v1-shaped) payload."""
        flat_request = {"graph": small_graph().to_dict(), "query_type": "subgraph"}
        flat_response = {"answer": [1], "query_id": 1}
        flat_error = {"error": "queue full", "queue_depth": 4}
        for reader, payload in ((parse_request, flat_request),
                                (QueryResponse.from_wire, flat_response),
                                (ErrorEnvelope.from_wire, flat_error),
                                (parse_response, flat_error)):
            with pytest.raises(ProtocolError, match="declares no protocol version"):
                reader(payload)


# ---------------------------------------------------------------------- #
# the error taxonomy
# ---------------------------------------------------------------------- #
def library_exception_classes() -> list[type]:
    return [
        obj for obj in vars(errors_module).values()
        if inspect.isclass(obj) and issubclass(obj, GraphCacheError)
    ]


class TestTaxonomy:
    def test_table_is_exhaustive_over_repro_errors(self):
        """Every library exception class has its *own* row (not inherited)."""
        classified = {rule.exception for rule in ERROR_TABLE}
        missing = [cls.__name__ for cls in library_exception_classes()
                   if cls not in classified]
        assert not missing, (
            f"exception classes without a taxonomy row: {missing}; "
            "add them to repro.api.taxonomy.ERROR_TABLE"
        )

    def test_codes_are_unique(self):
        codes = [rule.code for rule in ERROR_TABLE]
        assert len(codes) == len(set(codes))

    def test_no_row_is_shadowed_by_an_earlier_superclass(self):
        """First-match lookup requires subclasses before their bases."""
        for later_index, later in enumerate(ERROR_TABLE):
            for earlier in ERROR_TABLE[:later_index]:
                assert not (
                    issubclass(later.exception, earlier.exception)
                    and later.exception is not earlier.exception
                ), (
                    f"{later.exception.__name__} (code {later.code!r}) is "
                    f"unreachable behind {earlier.exception.__name__}"
                )

    def test_rule_for_picks_most_specific(self):
        exc = AdmissionRejectedError(8)
        assert rule_for(exc).code == "admission-rejected"
        assert rule_for(ServerError("x")).code == "server"
        assert rule_for(GraphCacheError("x")).code == "internal"

    def test_admission_rejection_round_trips_with_queue_depth(self):
        """A 429 carries the queue bound as its one structured detail."""
        original = AdmissionRejectedError(16)
        envelope = ErrorEnvelope.from_exception(original, request_id="r")
        assert envelope.code == "admission-rejected"
        assert envelope.http_status == 429 and envelope.retryable
        assert envelope.details == {"queue_depth": 16}

        wire = json.loads(json.dumps(envelope.to_wire()))
        parsed = ErrorEnvelope.from_wire(wire, http_status=429)
        assert parsed == envelope
        rebuilt = parsed.to_exception()
        assert isinstance(rebuilt, AdmissionRejectedError)
        assert rebuilt.queue_depth == 16
        assert not hasattr(rebuilt, "shard")
        assert str(rebuilt) == str(original)
        with pytest.raises(TypeError):
            AdmissionRejectedError(16, shard=3)

    def test_every_code_reconstructs_its_class(self):
        for rule in ERROR_TABLE:
            envelope = ErrorEnvelope(code=rule.code, message="boom",
                                     http_status=rule.http_status)
            rebuilt = envelope.to_exception()
            assert isinstance(rebuilt, rule.exception), rule.code
            assert str(rebuilt) == "boom"

    def test_unknown_and_timeout_codes_degrade_to_server_error(self):
        assert isinstance(
            ErrorEnvelope(code=UNKNOWN_CODE, message="x").to_exception(), ServerError)
        assert isinstance(
            ErrorEnvelope.timeout("slow").to_exception(), ServerError)
        assert isinstance(
            ErrorEnvelope(code="never-heard-of-it", message="x").to_exception(),
            ServerError)

    def test_non_library_exception_classifies_as_unexpected(self):
        envelope = ErrorEnvelope.from_exception(RuntimeError("kaput"))
        assert envelope.code == UNKNOWN_CODE
        assert envelope.http_status == 500
        assert "RuntimeError" in envelope.message


# ---------------------------------------------------------------------- #
# metrics snapshot
# ---------------------------------------------------------------------- #
class TestMetricsSnapshot:
    def test_wire_round_trip(self):
        snapshot = MetricsSnapshot(
            statistics={"aggregate": {"num_queries": 3, "hit_ratio": 0.5}},
            cache={"population": 2},
        )
        parsed = MetricsSnapshot.from_wire(json.loads(json.dumps(snapshot.to_wire())))
        assert parsed == snapshot
        assert parsed.aggregate["num_queries"] == 3

    def test_missing_statistics_rejected(self):
        with pytest.raises(ProtocolError):
            MetricsSnapshot.from_wire({"cache": {}})


# ---------------------------------------------------------------------- #
# property test: serialisation survives arbitrary graphs and metadata
# ---------------------------------------------------------------------- #
vertex_labels = st.sampled_from(["A", "B", "C", ""])
json_values = st.one_of(st.integers(-1000, 1000), st.booleans(),
                        st.text(max_size=8), st.none())


@st.composite
def wire_graphs(draw) -> Graph:
    graph_id = draw(st.one_of(st.integers(0, 99), st.text(min_size=1, max_size=6)))
    graph = Graph(graph_id=graph_id)
    num_vertices = draw(st.integers(1, 8))
    for vertex in range(num_vertices):
        graph.add_vertex(vertex, label=draw(vertex_labels))
    possible = [(u, v) for u in range(num_vertices) for v in range(u + 1, num_vertices)]
    for u, v in draw(st.lists(st.sampled_from(possible), unique=True, max_size=12)
                     if possible else st.just([])):
        graph.add_edge(u, v)
    return graph


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=wire_graphs(),
       query_type=st.sampled_from(list(QueryType)),
       metadata=st.dictionaries(st.text(max_size=6), json_values, max_size=4),
       request_id=st.one_of(st.none(), st.integers(0, 999), st.text(min_size=1, max_size=8)))
def test_request_envelope_serialisation_round_trips(graph, query_type, metadata,
                                                    request_id):
    request = QueryRequest(graph=graph, query_type=query_type,
                           metadata=metadata, request_id=request_id)
    wire = json.loads(json.dumps(request.to_wire()))  # must be JSON-safe
    parsed = parse_request(wire)
    assert parsed.graph.to_dict() == graph.to_dict()
    assert parsed.query_type is query_type
    assert parsed.metadata == metadata
    assert parsed.request_id == request_id


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(answer=st.sets(st.one_of(st.integers(0, 999), st.text(min_size=1, max_size=6)),
                      max_size=10),
       hits=st.fixed_dictionaries({"exact": st.booleans(), "sub": st.integers(0, 9),
                                   "super": st.integers(0, 9)}),
       tests=st.fixed_dictionaries({"dataset": st.integers(0, 99),
                                    "baseline": st.integers(0, 99),
                                    "probe": st.integers(0, 99)}),
       stage_seconds=st.dictionaries(st.sampled_from(["filter", "probe", "verify"]),
                                     st.floats(0, 1, allow_nan=False), max_size=3),
       total=st.floats(0, 10, allow_nan=False))
def test_response_envelope_serialisation_round_trips(answer, hits, tests,
                                                     stage_seconds, total):
    response = QueryResponse(
        answer=frozenset(answer), query_id=1, query_type=QueryType.SUBGRAPH,
        hits=hits, tests=tests, stage_seconds=stage_seconds, total_seconds=total,
    )
    wire = json.loads(json.dumps(response.to_wire()))
    parsed = QueryResponse.from_wire(wire)
    assert parsed.answer == frozenset(answer)
    assert parsed.hits == hits and parsed.tests == tests
    assert parsed.stage_seconds == stage_seconds
    assert parsed.total_seconds == pytest.approx(total)
