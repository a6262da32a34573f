"""A thin per-tenant service facade over the warehouse.

The WebContent XML Store shape: tenants talk to a narrow
submit/poll/mutate API and never see queues, stores or manifests.
:class:`TenantFacade` binds one tenant to one warehouse and speaks the
typed envelope exclusively:

- :meth:`submit` posts a :class:`~repro.tenancy.envelope.QueryRequest`
  and deduplicates retries by idempotency key — resubmitting the same
  key returns the original query id without enqueueing a second copy;
- :meth:`poll` is non-blocking: it drains one response if the response
  queue has any, else reports ``pending`` without advancing time past
  the depth probe;
- :meth:`mutate` runs live-index mutations under ETag-style optimistic
  concurrency, modelled on the conditional put the manifest's live-head
  flip already uses: the caller conditions on the index-version tag it
  last read (``"<index>:<version>"``); a stale tag yields a
  ``conflict`` response carrying the current tag instead of raising.

All methods are simulation generators (run them with
``cloud.env.run_process``); warehouse imports stay lazy so
``repro.tenancy`` never drags the warehouse stack in at import time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Generator

from repro.errors import ConfigError
from repro.tenancy.envelope import (MutationResponse, QueryRequest,
                                    QueryResponse)

__all__ = ["TenantFacade", "MUTATION_KINDS"]

#: Mutation kinds the facade accepts, mapped on to warehouse methods.
MUTATION_KINDS = ("add", "delete", "update", "compact")


def _etag(live: Any) -> str:
    """The live head's version tag (what conditional flips guard)."""
    return "{}:{}".format(live.name, live.version)


class TenantFacade:
    """One tenant's handle on a shared warehouse."""

    def __init__(self, warehouse: Any, tenant: str) -> None:
        if not tenant or any(c.isspace() for c in tenant):
            raise ConfigError(
                "TenantFacade tenant must be a non-empty token, got "
                "{!r}".format(tenant))
        self._warehouse = warehouse
        self.tenant = tenant
        #: idempotency key → query id of the first submission.
        self._submitted: Dict[str, int] = {}
        self.deduplicated = 0

    # -- queries -------------------------------------------------------------

    def submit(self, request: QueryRequest) -> Generator[Any, Any, int]:
        """Post one envelope; returns its query id (idempotently)."""
        if request.tenant != self.tenant:
            request = replace(request, tenant=self.tenant)
        key = request.idempotency_key
        if key and key in self._submitted:
            self.deduplicated += 1
            return self._submitted[key]
        query_id = yield from self._warehouse.frontend.submit(request)
        if key:
            self._submitted[key] = query_id
        return query_id

    def poll(self) -> Generator[Any, Any, QueryResponse]:
        """One response if any has landed, else a ``pending`` marker."""
        cloud = self._warehouse.cloud
        from repro.warehouse.messages import RESPONSE_QUEUE
        if not cloud.sqs.approximate_depth(RESPONSE_QUEUE):
            return QueryResponse(query_id=0, tenant=self.tenant,
                                 status="pending",
                                 fetched_at=cloud.env.now)
        fetched = yield from self._warehouse.frontend.await_response()
        return QueryResponse(query_id=fetched.query_id,
                             tenant=self.tenant,
                             payload=fetched.payload, status="ok",
                             fetched_at=fetched.fetched_at)

    # -- mutations -----------------------------------------------------------

    def etag(self, live: Any) -> str:
        """The current version tag of a live index handle."""
        return _etag(live)

    def mutate(self, live: Any, kind: str, if_match: str,
               **kwargs: Any) -> MutationResponse:
        """Run one mutation iff ``if_match`` is still the current tag.

        ``kind`` selects the warehouse mutation (``add``: kwargs
        ``increment``; ``delete``: ``uris``;
        ``update``: ``uri`` and ``data``; ``compact``: optional
        ``max_units``/``retire``).  On a tag mismatch nothing runs and
        the response carries the current tag for the retry read.
        """
        if kind not in MUTATION_KINDS:
            raise ConfigError(
                "mutation kind must be one of {}, got {!r}".format(
                    "/".join(MUTATION_KINDS), kind))
        current = _etag(live)
        if if_match != current:
            return MutationResponse(tenant=self.tenant, kind=kind,
                                    etag=current, status="conflict")
        warehouse = self._warehouse
        tag = "ingest:{}:tenant:{}:{}".format(live.name, self.tenant,
                                              kind)
        if kind == "add":
            report = warehouse.add_documents(live, kwargs["increment"],
                                             tag=tag)
        elif kind == "delete":
            report = warehouse.delete_documents(
                live, kwargs["uris"], tag=tag)
        elif kind == "update":
            report = warehouse.update_document(
                live, kwargs["uri"], kwargs["data"], tag=tag)
        else:
            report = warehouse.compact_index(
                live, max_units=kwargs.get("max_units"),
                retire=bool(kwargs.get("retire", False)),
                tag="compact:{}:tenant:{}".format(live.name,
                                                  self.tenant))
        return MutationResponse(tenant=self.tenant, kind=kind,
                                etag=_etag(live), status="applied",
                                report=report)
