"""Per-table sharing configuration.

:class:`TableSharing` binds a plaintext :class:`TableSchema` to concrete
sharing machinery:

* **searchable** columns → :class:`OrderPreservingScheme` instances keyed
  by the column's *domain label* (Sec. V-A: "our polynomials are
  constructed for each domain not for each attribute"), enabling
  provider-side filtering and cross-table joins on shared labels;
* **non-searchable** columns → one random :class:`ShamirScheme`
  (information-theoretic secrecy, no provider-side predicates).

It owns encoding (via each column's codec), splitting a plaintext row into
``n`` share rows, and reconstructing plaintext from ≥ k share rows.

Result sets are reconstructed column by column
(:meth:`TableSharing.reconstruct_rows`, from the providers' column-major
:class:`~repro.sim.network.ShareRows`): per responding-provider set and
column, one kernel call — :func:`~repro.core.kernels.batch_reconstruct`
for random columns, the exact-integer
:func:`~repro.core.kernels.batch_reconstruct_integer` for
order-preserving ones — then one ``Codec.decode_many``.  The per-value
methods (:meth:`~TableSharing.reconstruct_value`,
:meth:`~TableSharing.combine_sum`) reach the same two kernels one cell
at a time.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..errors import QueryError, ReconstructionError, UnsupportedQueryError
from ..sim.network import ShareRows
from ..sim.rng import DeterministicRNG
from ..sqlengine.schema import Column, TableSchema
from .encoding import DecimalCodec, IntegerCodec
from .kernels import (
    batch_reconstruct,
    batch_reconstruct_integer,
    reconstruct_integer,
)
from .order_preserving import OrderPreservingScheme
from .secrets import ClientSecrets
from .shamir import ShamirScheme

ShareRow = Dict[str, Optional[int]]


class TableSharing:
    """Sharing machinery for one outsourced table."""

    def __init__(
        self,
        schema: TableSchema,
        secrets: ClientSecrets,
        threshold: int,
        rng: DeterministicRNG,
        op_schemes: Optional[Dict[str, OrderPreservingScheme]] = None,
    ) -> None:
        if threshold < 2:
            raise QueryError(
                "outsourcing requires threshold k >= 2: with k=1 a single "
                "provider could reconstruct every value by itself"
            )
        self.schema = schema
        self.secrets = secrets
        self.threshold = threshold
        self._rng = rng.substream(f"table/{schema.name}")
        self.random_scheme = ShamirScheme(secrets, threshold)
        self._codecs = {c.name: c.codec() for c in schema.columns}
        self._op: Dict[str, OrderPreservingScheme] = {}
        shared_registry = op_schemes if op_schemes is not None else {}
        for column in schema.columns:
            if not column.searchable:
                continue
            label = column.effective_domain_label(schema.name)
            scheme = shared_registry.get(label)
            if scheme is None:
                domain = self._codecs[column.name].domain()
                scheme = OrderPreservingScheme(
                    secrets,
                    domain,
                    threshold=threshold,
                    label=label,
                )
                shared_registry[label] = scheme
            else:
                self._check_domain_compatible(column, scheme)
            self._op[column.name] = scheme

    def _check_domain_compatible(
        self, column: Column, scheme: OrderPreservingScheme
    ) -> None:
        domain = self._codecs[column.name].domain()
        if (domain.lo, domain.hi) != (scheme.domain.lo, scheme.domain.hi):
            raise QueryError(
                f"column {self.schema.name}.{column.name} declares domain "
                f"label {column.domain_label!r} but its domain "
                f"[{domain.lo},{domain.hi}] differs from the label's "
                f"[{scheme.domain.lo},{scheme.domain.hi}] — join-compatible "
                "columns must share a domain (Sec. V-A)"
            )

    # -- introspection ------------------------------------------------------

    @property
    def n_providers(self) -> int:
        return self.secrets.n_providers

    def is_searchable(self, column: str) -> bool:
        return column in self._op

    def codec(self, column: str):
        try:
            return self._codecs[column]
        except KeyError:
            raise QueryError(
                f"table {self.schema.name} has no column {column!r}"
            ) from None

    def op_scheme(self, column: str) -> OrderPreservingScheme:
        try:
            return self._op[column]
        except KeyError:
            raise UnsupportedQueryError(
                f"column {self.schema.name}.{column} is not searchable: it is "
                "randomly shared, so providers cannot filter or order by it"
            ) from None

    def domain_label(self, column: str) -> str:
        return self.op_scheme(column).label

    # -- encoding -----------------------------------------------------------

    def encode(self, column: str, value) -> Optional[int]:
        """Plaintext value → domain integer (None passes through for NULL)."""
        if value is None:
            return None
        return self.codec(column).encode(value)

    def decode(self, column: str, number: Optional[int]):
        if number is None:
            return None
        return self.codec(column).decode(number)

    # -- sharing ---------------------------------------------------------------

    def share_value(self, column: str, value) -> List[Optional[int]]:
        """All n shares of one column value (NULL → None everywhere)."""
        encoded = self.encode(column, value)
        if encoded is None:
            return [None] * self.n_providers
        if column in self._op:
            return self._op[column].split(encoded)
        return self.random_scheme.split(
            self.random_scheme.field.encode_signed(encoded), self._rng
        )

    def share_row(self, row: Dict[str, object]) -> List[ShareRow]:
        """A full plaintext row → one share row per provider."""
        return [dict(batch)[0] for batch in self.share_rows([row], [0])]

    def share_rows(
        self, rows: Sequence[Dict[str, object]], row_ids: Sequence[int]
    ) -> List[ShareRows]:
        """Validate and share a batch of plaintext rows: :meth:`share_encoded`
        of their :meth:`TableSchema.encode_rows`."""
        return self.share_encoded(self.schema.encode_rows(rows), row_ids)

    @telemetry.spanned("scheme.share_encoded")
    def share_encoded(
        self, encoded: Dict[str, List[Optional[int]]], row_ids: Sequence[int]
    ) -> List[ShareRows]:
        """Share a batch :meth:`TableSchema.encode_rows` validated (a bad
        cell raised its ``SchemaError`` there, before anything is drawn):
        ``result[i]`` is provider i's upload, the rows under ``row_ids``
        (aligned with ``encoded``'s columns) as one column-major
        :class:`ShareRows`.

        Only the columns ``encoded`` holds are shared.  Column-major end
        to end, the write-side twin of :meth:`reconstruct_rows`, and no
        row dict.  An order-preserving column shares each distinct value
        once — equal values have equal polynomials, hence equal shares
        (Sec. IV): ``split_columns``'s per-provider lists are the upload
        as they are, or, when the column holds a duplicate or NULL, mapped
        back by one ``dict.get`` per provider.  Randomly-shared cells each
        get a fresh polynomial, drawn row by row in column order — the RNG
        stream of one :meth:`share_value` per cell — by one
        ``split_columns`` whose per-provider lists each column takes every
        ``width``-th share of; a NULL cell draws nothing.
        """
        n = self.n_providers
        names = tuple(encoded)
        row_ids = list(row_ids)
        if not row_ids:
            return [ShareRows(row_ids, names, [()] * len(names)) for _ in range(n)]
        #: column → per provider, its shares of the column
        by_provider: Dict[str, Sequence[Sequence[Optional[int]]]] = {}
        random_columns = [name for name in names if name not in self._op]
        if random_columns:
            encode_signed = self.random_scheme.field.encode_signed
            # row-major, the order the RNG stream is drawn in
            flat = [v for row in zip(*[encoded[name] for name in random_columns]) for v in row]
            shared = self.random_scheme.split_columns(
                [encode_signed(v) for v in flat if v is not None], self._rng
            )
            if None in flat:
                shared = [
                    [None if v is None else next(drawn) for v in flat]
                    for drawn in map(iter, shared)
                ]
            width = len(random_columns)
            for offset, name in enumerate(random_columns):
                by_provider[name] = [shares[offset::width] for shares in shared]
        for name in names:
            scheme = self._op.get(name)
            if scheme is None:
                continue
            numbers = encoded[name]
            distinct = dict.fromkeys(numbers)
            if len(distinct) == len(numbers) and None not in distinct:
                by_provider[name] = scheme.split_columns(numbers)
                continue
            distinct.pop(None, None)
            keys = list(distinct)
            by_provider[name] = [
                list(map(dict(zip(keys, shares)).get, numbers))
                for shares in scheme.split_columns(keys)
            ]
        return [
            ShareRows(row_ids, names, [by_provider[name][i] for name in names])
            for i in range(n)
        ]

    # -- query-time share computation (Sec. V-A rewriting) ------------------------

    def query_share(self, column: str, value, provider_index: int) -> int:
        """share(v, i) for a query literal on a searchable column."""
        encoded = self.encode(column, value)
        if encoded is None:
            raise QueryError("cannot compute a share of NULL")
        return self.op_scheme(column).share(encoded, provider_index)

    # -- reconstruction --------------------------------------------------------------

    def reconstruct_value(
        self, column: str, shares: Dict[int, Optional[int]]
    ):
        """Plaintext value from a provider-index → share mapping.

        NULL is represented by None at every provider; a mix of None and
        integers is share corruption and raises.
        """
        non_null = {i: s for i, s in shares.items() if s is not None}
        if not non_null:
            return None
        if len(non_null) != len(shares):
            raise ReconstructionError(
                f"column {column}: NULL-presence disagreement across "
                f"providers {sorted(set(shares) - set(non_null))}"
            )
        if column in self._op:
            encoded = self._op[column].reconstruct(non_null)
        else:
            encoded = self.random_scheme.field.decode_signed(
                self.random_scheme.reconstruct(non_null)
            )
        return self.decode(column, encoded)

    def reconstruct_value_checked(
        self,
        column: str,
        shares: Dict[int, Optional[int]],
        suspects: Sequence[int] = (),
    ) -> Tuple[object, List[int]]:
        """Error-corrected value plus the provider indexes whose shares
        disagree.

        The checked read's primitive: a minority of tampered shares is
        outvoted (Reed–Solomon-style k-subset vote), and the indexes whose
        supplied share does not lie on the winning polynomial (random
        columns) or match the deterministic recomputed share
        (order-preserving columns) are *blamed*.  NULL handling: the
        majority camp wins and the minority camp is blamed; an exact tie
        is corruption evidence with no majority to trust and raises a
        :class:`ReconstructionError` naming both camps.

        ``suspects`` — providers already blamed elsewhere (other columns
        or rows) — break otherwise-ambiguous robust votes on random
        columns; at exactly k+1 shares the k-subset vote alone cannot
        isolate one bad share, but deterministic evidence from the row's
        order-preserving columns can.
        """
        nulls = {i for i, s in shares.items() if s is None}
        non_null = {i: s for i, s in shares.items() if s is not None}
        if len(nulls) * 2 > len(shares):
            return None, sorted(non_null)
        if nulls and len(nulls) * 2 == len(shares):
            raise ReconstructionError(
                f"column {column}: NULL-presence tie — providers "
                f"{sorted(nulls)} returned NULL while providers "
                f"{sorted(non_null)} returned shares; no majority to "
                "decide which camp is corrupt"
            )
        if column in self._op:
            encoded, blamed = self._op[column].reconstruct_robust_with_blame(
                non_null
            )
        else:
            element, blamed = self.random_scheme.reconstruct_robust_with_blame(
                non_null, suspects=suspects
            )
            encoded = self.random_scheme.field.decode_signed(element)
        return self.decode(column, encoded), sorted(set(blamed) | nulls)

    def reconstruct_row_checked(
        self,
        share_rows: Dict[int, ShareRow],
        columns: Optional[List[str]] = None,
        suspects: Sequence[int] = (),
    ) -> Tuple[Dict[str, object], List[int]]:
        """Error-corrected variant of :meth:`reconstruct_row` with blame.

        Returns ``(row, blamed_indexes)`` where the blame list is the
        union over columns of providers whose shares were inconsistent
        with the decoded value.

        Order-preserving columns are decoded first: their shares are
        deterministic, so blame from them is unconditional, and it then
        disambiguates random-column votes that would otherwise tie at
        exactly k+1 shares (one tampered share there makes every
        k-subset a majority candidate).  ``suspects`` seeds that blame
        set with evidence the caller accumulated from other rows.
        """
        if len(share_rows) < self.threshold:
            raise ReconstructionError(
                f"need shares from at least k={self.threshold} providers, "
                f"got {len(share_rows)}"
            )
        names = columns if columns is not None else self.schema.column_names
        row: Dict[str, object] = {}
        row_blamed: set = set()
        for column in sorted(names, key=lambda c: c not in self._op):
            value, bad = self.reconstruct_value_checked(
                column,
                {index: r.get(column) for index, r in share_rows.items()},
                suspects=row_blamed | set(suspects),
            )
            row[column] = value
            row_blamed.update(bad)
        return {column: row[column] for column in names}, sorted(row_blamed)

    def reconstruct_row(
        self, share_rows: Dict[int, ShareRow], columns: Optional[List[str]] = None
    ) -> Dict[str, object]:
        """Plaintext row from per-provider share rows (≥ k of them)."""
        if len(share_rows) < self.threshold:
            raise ReconstructionError(
                f"need shares from at least k={self.threshold} providers, "
                f"got {len(share_rows)}"
            )
        names = columns if columns is not None else self.schema.column_names
        out: Dict[str, object] = {}
        for column in names:
            out[column] = self.reconstruct_value(
                column,
                {index: row.get(column) for index, row in share_rows.items()},
            )
        return out

    def reconstruct_rows(
        self,
        share_rows: Dict[int, ShareRows],
        columns: Optional[List[str]] = None,
    ) -> List[Dict[str, object]]:
        """Batched :meth:`reconstruct_row` over rows the same providers
        answered: ``share_rows[i]`` is provider i's result, every one
        holding the same rows in the same order.

        Column-major from the provider's arrays to here: each column is
        one pass — the responders' share sequences go to one kernel call
        untransposed (exact-integer for order-preserving columns, GF(p)
        for random ones) interpolating at the first k providers, one
        ``decode_many`` decodes it — and a dict per row is built only at
        the very end.  Values, NULL handling, quorum checks and error
        messages are those of :meth:`reconstruct_row` per row.
        """
        threshold = self.threshold
        if len(share_rows) < threshold:
            raise ReconstructionError(
                f"need shares from at least k={threshold} providers, "
                f"got {len(share_rows)}"
            )
        names = columns if columns is not None else self.schema.column_names
        responders = sorted(share_rows)
        xs = tuple(self.secrets.point_for(i) for i in responders[:threshold])
        by_column = [
            dict(zip(share_rows[i].columns, share_rows[i].shares))
            for i in responders
        ]
        n_rows = len(share_rows[responders[0]])
        # a column a provider left out reads as NULL there, like ``row.get``
        absent = (None,) * n_rows
        decoded = [
            self._reconstruct_column(
                column,
                responders,
                xs,
                [shares.get(column, absent) for shares in by_column],
            )
            for column in names
        ]
        if not decoded:
            return [{} for _ in range(n_rows)]
        return [dict(zip(names, values)) for values in zip(*decoded)]

    def _reconstruct_column(
        self,
        column: str,
        responders: List[int],
        xs: Tuple[int, ...],
        share_lists: List[Sequence[Optional[int]]],
    ) -> List[object]:
        """One column of one responder group: shares → plaintext values.

        ``share_lists[j]`` is provider ``responders[j]``'s shares of the
        column, one per row; ``xs`` are the points of the first k
        responders, whose shares are the ones interpolated.
        """
        if any(None in shares for shares in share_lists):
            return self._reconstruct_nullable_column(
                column, responders, xs, share_lists
            )
        codec = self.codec(column)
        op_scheme = self._op.get(column)
        if op_scheme is None:
            field = self.random_scheme.field
            decode_signed = field.decode_signed
            cells = list(zip(*share_lists[: len(xs)]))
            return codec.decode_many(
                [decode_signed(e) for e in batch_reconstruct(field, xs, cells)]
            )
        encoded = batch_reconstruct_integer(xs, share_lists[: len(xs)])
        lo, hi = op_scheme.domain.lo, op_scheme.domain.hi
        if encoded and not (lo <= min(encoded) and max(encoded) <= hi):
            value = next(v for v in encoded if not lo <= v <= hi)
            raise ReconstructionError(
                f"reconstructed value {value} outside domain "
                f"[{lo}, {hi}]; shares are corrupt"
            )
        return codec.decode_many(encoded)

    def _reconstruct_nullable_column(
        self,
        column: str,
        responders: List[int],
        xs: Tuple[int, ...],
        share_lists: List[List[Optional[int]]],
    ) -> List[object]:
        """:meth:`_reconstruct_column` for a column holding a None.

        A cell is NULL when every responder says so; a mix of None and
        shares is corruption.  The non-NULL cells go back through the
        batched path.
        """
        live: List[int] = []
        for position, shares in enumerate(zip(*share_lists)):
            nulls = [i for i, s in zip(responders, shares) if s is None]
            if not nulls:
                live.append(position)
            elif len(nulls) != len(responders):
                raise ReconstructionError(
                    f"column {column}: NULL-presence disagreement across "
                    f"providers {nulls}"
                )
        values: List[object] = [None] * len(share_lists[0])
        decoded = self._reconstruct_column(
            column,
            responders,
            xs,
            [[shares[p] for p in live] for shares in share_lists],
        )
        for position, value in zip(live, decoded):
            values[position] = value
        return values

    # -- aggregate reconstruction -------------------------------------------------------

    def combine_sum(
        self, column: str, partials: Dict[int, int], count: int
    ) -> Optional[object]:
        """Plaintext SUM from per-provider partial share sums.

        Linearity holds for both schemes: summed random shares interpolate
        mod p to the signed-encoded total; summed order-preserving shares
        interpolate exactly over the integers to the encoded total.  The
        encoded total is then decoded (e.g. fixed-point scaling undone).
        """
        if count == 0:
            return None
        if len(partials) < self.threshold:
            raise ReconstructionError(
                f"SUM needs partials from k={self.threshold} providers"
            )
        if column in self._op:
            chosen = sorted(partials.items())[: self.threshold]
            xs = tuple(self.secrets.point_for(i) for i, _ in chosen)
            encoded_total = reconstruct_integer(xs, [s for _, s in chosen])
        else:
            field = self.random_scheme.field
            reduced = {i: s % field.modulus for i, s in partials.items()}
            encoded_total = field.decode_signed(
                self.random_scheme.reconstruct(reduced)
            )
        return self._decode_sum(column, encoded_total)

    def _decode_sum(self, column: str, encoded_total: int):
        """Decode a summed encoded value (sums live outside the domain)."""
        codec = self.codec(column)
        # DecimalCodec scales by 10^scale; IntegerCodec is identity; other
        # types are rejected before aggregation reaches here.
        if isinstance(codec, IntegerCodec):
            return encoded_total
        if isinstance(codec, DecimalCodec):
            return Decimal(encoded_total) / (10**codec.scale)
        raise QueryError(
            f"column {column} is not numeric; SUM/AVG are undefined"
        )
