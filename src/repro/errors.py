"""Exception hierarchy for the repro library.

Every exception raised by the library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subsystems raise the most
specific subclass that applies; messages always name the offending object
(attribute, provider, query) so failures are diagnosable without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A scheme, cluster, or client was configured inconsistently.

    Examples: threshold ``k`` larger than the number of providers ``n``,
    duplicate provider evaluation points, or an attribute scheme that does
    not cover the attribute's domain.
    """


class ShareError(ReproError):
    """Share material is malformed or insufficient for reconstruction."""


class ReconstructionError(ShareError):
    """Fewer than ``k`` usable shares were available, or interpolation of
    the collected shares did not yield a value inside the declared domain."""


class DomainError(ReproError):
    """A value lies outside the domain an encoding or scheme was built for."""


class EncodingError(DomainError):
    """A non-numeric value could not be encoded to (or decoded from) its
    numeric representation."""


class QueryError(ReproError):
    """A query is malformed or unsupported by the engine that received it."""


class UnsupportedQueryError(QueryError):
    """The query shape is recognised but outside the scheme's capability.

    The paper itself notes such cases (e.g. joins across attributes from
    *different* domains, Sec. V-A); we surface them explicitly rather than
    silently computing something wrong.
    """


class ParseError(QueryError):
    """The SQL text could not be parsed."""


class ProviderError(ReproError):
    """A provider-side failure (storage corruption, unknown table, ...)."""


class ProviderUnavailableError(ProviderError):
    """The provider is crashed/partitioned and cannot serve requests."""


class WireError(ReproError):
    """A value the wire format's headers cannot carry (a string or an
    integer past 4,095 bytes, a container past 2^28 items, a type the
    format has no rule for), or bytes that are no encoding of a value."""


class QuorumError(ReproError):
    """Fewer than ``k`` providers responded; the query cannot complete."""


class IntegrityError(ReproError):
    """Verification of provider responses failed.

    Raised by the trust layer when a Merkle proof, completeness chain, or
    challenge token does not check out — i.e. a provider returned tampered,
    dropped, or fabricated results.
    """


class CompletenessError(IntegrityError):
    """A range result is provably missing tuples (broken hash chain)."""


class SchemaError(ReproError):
    """Table/column definitions are inconsistent or violated by a row."""


class ServiceError(ReproError):
    """The concurrent query service layer could not process a request."""


class ServiceOverloadedError(ServiceError):
    """Admission control rejected a query: in-flight and queue bounds full.

    Explicit backpressure is the service-layer contract (ISSUE-3): the
    caller sees a loud rejection it can retry, instead of the service
    growing threads without bound.  The message names both limits so the
    operator knows which knob to turn.
    """


class TxnError(ReproError):
    """The transactional write path could not process a statement or batch."""


class WALError(TxnError):
    """The write-ahead log is corrupt or could not be read/written.

    Torn tails (a partially written final record, the expected artifact of
    a crash mid-append) are *not* errors — replay truncates them.  This is
    raised for corruption anywhere before the tail, which indicates real
    damage rather than an interrupted append.
    """


class SimulatedCrash(ReproError):
    """Raised by fault-injection kill points to model a process crash.

    Deliberately *not* a :class:`TxnError`: recovery tests must observe the
    crash escape the transaction layer exactly like a SIGKILL would, not be
    swallowed by a ``except TxnError`` handler.
    """
