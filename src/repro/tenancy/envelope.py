"""The typed request/response envelope for the warehouse front door.

Every public way to ask the warehouse a question now goes through one
frozen :class:`QueryRequest`: tenant identity, the query (a parsed
:class:`~repro.query.pattern.Query` or raw source text), a display
name, an idempotency key and the degraded-path flag travel together
instead of as positional plumbing.  Responses come back as
:class:`QueryResponse` (queries) and :class:`MutationResponse`
(mutations through the facade, with the ETag that optimistic
concurrency was checked against).

The wire message on the SQS query queue stays
:class:`repro.warehouse.messages.QueryRequest` — this envelope is the
*public* shape; the frontend flattens it onto the wire and stamps the
tenant so workers and billing can attribute the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import ConfigError
from repro.query.parser import query_to_source
from repro.query.pattern import Query
from repro.tenancy.tenant import DEFAULT_TENANT

__all__ = ["QueryRequest", "QueryResponse", "MutationResponse"]


@dataclass(frozen=True)
class QueryRequest:
    """One tenant's question, as submitted to the front door.

    Attributes
    ----------
    query:
        A parsed :class:`~repro.query.pattern.Query` or raw source
        text.
    tenant:
        Owning tenant; defaults to the single-owner tenant so existing
        deployments need no changes.
    name:
        Display label for reports; derived from ``query.name`` when
        left empty and a parsed query is given.
    idempotency_key:
        Non-empty keys let the facade deduplicate retries: resubmitting
        the same key returns the original query id without enqueueing
        a second copy.
    degraded:
        Route to the degraded (coarser, cheaper) access path.
    """

    query: Union[Query, str]
    tenant: str = DEFAULT_TENANT
    name: str = ""
    idempotency_key: str = ""
    degraded: bool = False

    def __post_init__(self) -> None:
        if not self.tenant or any(c.isspace() for c in self.tenant):
            raise ConfigError(
                "QueryRequest.tenant must be a non-empty token, got "
                "{!r}".format(self.tenant))
        if not isinstance(self.query, (Query, str)):
            raise ConfigError(
                "QueryRequest.query must be a Query or source text, "
                "got {!r}".format(type(self.query).__name__))
        if isinstance(self.query, str) and not self.query.strip():
            raise ConfigError("QueryRequest.query text must not be empty")
        if not self.name and isinstance(self.query, Query):
            object.__setattr__(self, "name", self.query.name)

    def source(self) -> str:
        """The query as source text (what goes on the wire)."""
        if isinstance(self.query, Query):
            return query_to_source(self.query)
        return self.query


@dataclass(frozen=True)
class QueryResponse:
    """One answered query, as handed back by the facade/runtime.

    ``status`` is ``"ok"`` for a fetched result and ``"pending"`` while
    the answer has not landed on the response queue yet (non-blocking
    :meth:`~repro.tenancy.facade.TenantFacade.poll`).
    """

    query_id: int
    tenant: str = DEFAULT_TENANT
    name: str = ""
    payload: bytes = b""
    status: str = "ok"
    submitted_at: float = 0.0
    fetched_at: float = 0.0


@dataclass(frozen=True)
class MutationResponse:
    """Outcome of one optimistic-concurrency mutation.

    ``etag`` is the index-version tag the mutation was conditioned on
    (``"<index>:<version>"``, the live head the manifest flip itself
    guards with a conditional put).  ``status`` is ``"applied"`` when
    the condition held and the mutation ran, ``"conflict"`` when the
    caller's ``if_match`` tag lost the race; on conflict ``etag``
    carries the *current* tag so the caller can re-read and retry.
    """

    tenant: str
    kind: str
    etag: str
    status: str = "applied"
    report: Optional[object] = field(default=None, compare=False)

    @property
    def applied(self) -> bool:
        """True when the mutation took effect (no conflict, no error)."""
        return self.status == "applied"
