"""The application front end (Figure 1, steps 1-3, 7-8 and 16-18).

The front end is the only component users talk to: it stores incoming
documents in the file store and posts load requests; it posts queries
and, when a response message arrives, fetches the results from the file
store and returns them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Generator

from repro.cloud.provider import CloudProvider
from repro.telemetry.spans import maybe_span
from repro.warehouse.messages import (LOADER_QUEUE, QUERY_QUEUE,
                                      RESPONSE_QUEUE, LoadRequest,
                                      QueryRequest, QueryResponse)


@dataclass(frozen=True)
class FetchedResult:
    """A query's results as returned to the user (step 18)."""

    query_id: int
    payload: bytes
    fetched_at: float


class Frontend:
    """Front-end operations, all generator methods (simulated I/O)."""

    def __init__(self, cloud: CloudProvider, document_bucket: str,
                 results_bucket: str) -> None:
        self._cloud = cloud
        self._document_bucket = document_bucket
        self._results_bucket = results_bucket
        self._query_ids = itertools.count(1)

    def _span(self, name: str, **attributes: Any):
        hub = getattr(self._cloud.env, "telemetry", None)
        tracer = hub.tracer if hub is not None else None
        return maybe_span(tracer, "frontend." + name, **attributes)

    # -- ingestion ------------------------------------------------------------

    def store_document(self, uri: str, data: bytes,
                       ) -> Generator[Any, Any, None]:
        """Steps 1-2: store an arriving document in the file store."""
        yield from self._cloud.resilient.s3.put(self._document_bucket, uri, data)

    def request_load(self, uri: str) -> Generator[Any, Any, None]:
        """Step 3: post a load request referencing a stored document."""
        yield from self._cloud.resilient.sqs.send(LOADER_QUEUE, LoadRequest(uri=uri))

    def ingest(self, uri: str, data: bytes) -> Generator[Any, Any, None]:
        """Store a document and request its indexing (steps 1-3)."""
        yield from self.store_document(uri, data)
        yield from self.request_load(uri)

    # -- querying --------------------------------------------------------------

    def submit(self, request: Any) -> Generator[Any, Any, int]:
        """Steps 7-8: post a typed query envelope; returns its query id.

        ``request`` is a :class:`repro.tenancy.envelope.QueryRequest`.
        The envelope is flattened onto the wire message; the submission
        span carries the tenant (when not the single-owner default) so
        billing can attribute the SQS send, and the wire message
        carries it so workers label their processing spans too.
        """
        from repro.tenancy.tenant import DEFAULT_TENANT
        query_id = next(self._query_ids)
        attributes = {"query": request.name, "query_id": query_id}
        if request.tenant != DEFAULT_TENANT:
            attributes["tenant"] = request.tenant
        wire_tenant = "" if request.tenant == DEFAULT_TENANT \
            else request.tenant
        with self._span("submit_query", **attributes):
            yield from self._cloud.resilient.sqs.send(
                QUERY_QUEUE,
                QueryRequest(query_id=query_id, text=request.source(),
                             name=request.name, degraded=request.degraded,
                             tenant=wire_tenant))
        return query_id

    def await_response(self) -> Generator[Any, Any, FetchedResult]:
        """Steps 16-18: take the next response, fetch its results."""
        with self._span("await_response"):
            body, handle = yield from self._cloud.resilient.sqs.receive(
                RESPONSE_QUEUE)
            assert isinstance(body, QueryResponse)
            payload = yield from self._cloud.resilient.s3.get(
                self._results_bucket, body.result_key)
            yield from self._cloud.resilient.sqs.delete(
                RESPONSE_QUEUE, handle)
        return FetchedResult(query_id=body.query_id, payload=payload,
                             fetched_at=self._cloud.env.now)
