"""Encodings from attribute values to finite integer domains (Sec. V-B).

The sharing schemes operate on integers from a finite ordered domain, so
every attribute type gets a codec that maps values to such a domain while
**preserving order**.  Order preservation is what turns string prefix
queries ("name starts with 'AB'") and between-queries ("name between
'Albert' and 'Jack'") into numeric range queries, exactly as Sec. V-B
prescribes.

Codecs:

* :class:`IntegerCodec` — identity on a declared [lo, hi] range.
* :class:`StringCodec` — the paper's base-27 scheme: pad to a fixed width
  with ``*`` (blank = 0), enumerate ``* < A < ... < Z``, read as a base-27
  numeral.  The paper's own example ("ABC**" → (12300)_27 = 21998878) is a
  doctest below.
* :class:`DecimalCodec` — fixed-point decimals via integer scaling.
* :class:`DateCodec` — proleptic-Gregorian ordinal days.
* :class:`BooleanCodec` — False < True.

Null handling: SQL NULLs never reach a codec — the storage layer shares a
separate presence bit — so codecs reject ``None`` loudly.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from typing import Dict, Generic, List, Sequence, Tuple, TypeVar

from .. import telemetry
from ..errors import EncodingError
from .order_preserving import IntegerDomain

V = TypeVar("V")

#: The paper's alphabet: blank then A..Z, 27 symbols, blank smallest.
STRING_ALPHABET = "*ABCDEFGHIJKLMNOPQRSTUVWXYZ"

#: Extension: digits sort before letters (ASCII-like), base 37.  The paper
#: only defines the 27-symbol alphabet; this preset covers usernames and
#: codes with digits while preserving the same enumeration construction.
EXTENDED_ALPHABET = "*0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"

PAD_CHAR = "*"


class ColumnEncodingError(EncodingError):
    """:meth:`Codec.encode_many` refused the value at ``position``: the
    message is that of the error :meth:`Codec.encode` raised (``__cause__``)."""

    def __init__(self, position: int, cause: Exception) -> None:
        super().__init__(str(cause))
        self.position = position


def _encode_each(encode, values: Sequence) -> List[int]:
    """``[encode(v) for v in values]``, a failure re-raised with its position."""
    out: List[int] = []
    try:
        for value in values:
            out.append(encode(value))
    except Exception as exc:
        raise ColumnEncodingError(len(out), exc) from exc
    return out


class Codec(Generic[V]):
    """Order-preserving bijection between a value type and an integer domain."""

    def domain(self) -> IntegerDomain:
        raise NotImplementedError

    def encode(self, value: V) -> int:
        raise NotImplementedError

    def encode_many(self, values: Sequence[V]) -> List[int]:
        """Encode (and so validate) a whole column, the write-path twin of
        :meth:`decode_many`: ``[encode(v) for v in values]``, the first bad
        value raising a :class:`ColumnEncodingError` with its position."""
        return _encode_each(self.encode, values)

    def decode(self, number: int) -> V:
        raise NotImplementedError

    @telemetry.spanned("codec.decode_many")
    def decode_many(self, numbers: Sequence[int]) -> List[V]:
        """Decode a whole column: ``[decode(n) for n in numbers]``.

        Codecs on the read path override this to hoist per-call work out
        of the loop; every cell is still range-checked and the first bad
        one raises what :meth:`decode` raises for it.
        """
        return [self.decode(number) for number in numbers]


@dataclass(frozen=True)
class IntegerCodec(Codec[int]):
    """Identity codec for integers within [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise EncodingError(f"empty integer domain [{self.lo}, {self.hi}]")

    def domain(self) -> IntegerDomain:
        return IntegerDomain(self.lo, self.hi)

    def encode(self, value: int) -> int:
        if value is None:
            raise EncodingError("NULL must be handled before encoding")
        if not isinstance(value, int) or isinstance(value, bool):
            raise EncodingError(f"expected int, got {type(value).__name__}")
        if not self.lo <= value <= self.hi:
            raise EncodingError(
                f"integer {value} outside declared domain [{self.lo}, {self.hi}]"
            )
        return value

    def decode(self, number: int) -> int:
        if not self.lo <= number <= self.hi:
            raise EncodingError(
                f"encoded value {number} outside domain [{self.lo}, {self.hi}]"
            )
        return number

    @telemetry.spanned("codec.decode_many")
    def decode_many(self, numbers: Sequence[int]) -> List[int]:
        lo, hi = self.lo, self.hi
        for number in numbers:
            if not lo <= number <= hi:
                self.decode(number)  # raises
        return list(numbers)


@dataclass(frozen=True)
class StringCodec(Codec[str]):
    """Base-|alphabet| enumeration of fixed-width strings (Sec. V-B).

    >>> codec = StringCodec(width=5)
    >>> codec.encode("ABC")  # digits (1,2,3,0,0) base 27
    572994
    >>> codec.decode(572994)
    'ABC'

    The paper states "ABC**" = (12300)_27 "corresponds to 21998878 in
    decimals", but 21998878 exceeds 27^5 - 1 = 14348906, so that constant
    cannot be any width-5 base-27 numeral; the digit expansion
    1*27^4 + 2*27^3 + 3*27^2 = 572994 is the consistent reading and is what
    this codec (and EXPERIMENTS.md) reports.

    Shorter strings are right-padded with ``*`` (value 0), so the encoding
    sorts exactly like trailing-blank-padded string comparison; prefix
    queries become ranges via :meth:`prefix_range`.

    The default alphabet is the paper's 27-symbol ``* A..Z``; pass
    ``alphabet=EXTENDED_ALPHABET`` (base 37, with digits) for identifiers
    like usernames.  The pad symbol must be the alphabet's first (and
    smallest) character.
    """

    width: int = 5
    alphabet: str = STRING_ALPHABET

    def __post_init__(self) -> None:
        if self.width < 1:
            raise EncodingError(f"string width must be >= 1, got {self.width}")
        if len(self.alphabet) < 2 or self.alphabet[0] != PAD_CHAR:
            raise EncodingError(
                "alphabet must start with the pad character '*' and have at "
                "least one real symbol"
            )
        if len(set(self.alphabet)) != len(self.alphabet):
            raise EncodingError("alphabet contains duplicate symbols")

    @property
    def base(self) -> int:
        return len(self.alphabet)

    @cached_property
    def _digits(self) -> Dict[str, int]:
        return {ch: digit for digit, ch in enumerate(self.alphabet)}

    @cached_property
    def _domain(self) -> IntegerDomain:
        return IntegerDomain(0, self.base**self.width - 1)

    @cached_property
    def _pairs(self) -> Tuple[str, ...]:
        """Every two-symbol string, indexed by its base² digit."""
        return tuple(high + low for high in self.alphabet for low in self.alphabet)

    def domain(self) -> IntegerDomain:
        return self._domain

    def normalize(self, value: str) -> str:
        """Uppercase and validate; returns the unpadded canonical form."""
        if value is None:
            raise EncodingError("NULL must be handled before encoding")
        if not isinstance(value, str):
            raise EncodingError(f"expected str, got {type(value).__name__}")
        upper = value.upper()
        if len(upper) > self.width:
            raise EncodingError(
                f"string {value!r} longer than declared width {self.width}"
            )
        for ch in upper:
            if ch == PAD_CHAR or ch not in self.alphabet:
                raise EncodingError(
                    f"character {ch!r} outside the A-Z alphabet in {value!r}"
                    if self.alphabet is STRING_ALPHABET
                    else f"character {ch!r} outside the alphabet in {value!r}"
                )
        return upper

    def encode(self, value: str) -> int:
        canonical = self.normalize(value)
        base, digits = self.base, self._digits
        number = 0
        for ch in canonical:
            number = number * base + digits[ch]
        # right-padding with ``*`` (digit 0) is a shift
        return number * base ** (self.width - len(canonical))

    def encode_many(self, values: Sequence[str]) -> List[int]:
        # loaded columns repeat values (names, departments): each distinct
        # string is validated and enumerated once per call
        encoded: Dict[str, int] = {}

        def encode(value: str) -> int:
            number = encoded.get(value) if type(value) is str else None
            if number is None:
                number = encoded[value] = self.encode(value)
            return number

        return _encode_each(encode, values)

    def decode(self, number: int) -> str:
        if not self._domain.contains(number):
            raise EncodingError(
                f"encoded value {number} outside base-{self.base} domain of "
                f"width {self.width}"
            )
        # two symbols per divmod; an odd width leaves the first one alone
        pairs, chunks = self._pairs, []
        for _ in range(self.width // 2):
            number, pair = divmod(number, len(pairs))
            chunks.append(pairs[pair])
        if self.width % 2:
            chunks.append(self.alphabet[number])
        return "".join(reversed(chunks)).rstrip(PAD_CHAR)

    @telemetry.spanned("codec.decode_many")
    def decode_many(self, numbers: Sequence[int]) -> List[str]:
        # result columns repeat values (names, departments): each distinct
        # number is checked and expanded once per call
        decoded: dict = {}
        out: List[str] = []
        for number in numbers:
            text = decoded.get(number)
            if text is None:
                text = decoded[number] = self.decode(number)
            out.append(text)
        return out

    def prefix_range(self, prefix: str) -> Tuple[int, int]:
        """The [lo, hi] encoded range of all strings starting with ``prefix``.

        Implements Sec. V-B's observation that "name starts with AB" is a
        range query after enumeration.
        """
        canonical = self.normalize(prefix)
        lo = self.encode(canonical)
        tail = self.width - len(canonical)
        hi = lo + (self.base**tail - 1) if tail > 0 else lo
        return lo, hi


@dataclass(frozen=True)
class DecimalCodec(Codec[Decimal]):
    """Fixed-point decimals: value * 10^scale must be an in-range integer."""

    lo: Decimal
    hi: Decimal
    scale: int = 2

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise EncodingError(f"scale must be >= 0, got {self.scale}")
        if self.lo > self.hi:
            raise EncodingError(f"empty decimal domain [{self.lo}, {self.hi}]")
        for bound in (self.lo, self.hi):
            if (bound * 10**self.scale) % 1 != 0:
                raise EncodingError(
                    f"bound {bound} not representable at scale {self.scale}"
                )

    @cached_property
    def _factor(self) -> int:
        return 10**self.scale

    @cached_property
    def _domain(self) -> IntegerDomain:
        return IntegerDomain(
            int(self.lo * self._factor), int(self.hi * self._factor)
        )

    def domain(self) -> IntegerDomain:
        return self._domain

    def encode(self, value: Decimal) -> int:
        if value is None:
            raise EncodingError("NULL must be handled before encoding")
        as_decimal = Decimal(value) if not isinstance(value, Decimal) else value
        scaled = as_decimal * self._factor
        if scaled != scaled.to_integral_value():
            raise EncodingError(
                f"decimal {value} has more than {self.scale} fractional digits"
            )
        number = int(scaled)
        if not self._domain.contains(number):
            raise EncodingError(
                f"decimal {value} outside domain [{self.lo}, {self.hi}]"
            )
        return number

    def decode(self, number: int) -> Decimal:
        if not self._domain.contains(number):
            raise EncodingError(f"encoded value {number} outside decimal domain")
        return Decimal(number) / self._factor


@dataclass(frozen=True)
class DateCodec(Codec[datetime.date]):
    """Dates as proleptic-Gregorian ordinals within [lo, hi]."""

    lo: datetime.date = datetime.date(1900, 1, 1)
    hi: datetime.date = datetime.date(2100, 12, 31)

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise EncodingError(f"empty date domain [{self.lo}, {self.hi}]")

    @cached_property
    def _domain(self) -> IntegerDomain:
        return IntegerDomain(self.lo.toordinal(), self.hi.toordinal())

    def domain(self) -> IntegerDomain:
        return self._domain

    def encode(self, value: datetime.date) -> int:
        if value is None:
            raise EncodingError("NULL must be handled before encoding")
        if not isinstance(value, datetime.date) or isinstance(
            value, datetime.datetime
        ):
            raise EncodingError(f"expected date, got {type(value).__name__}")
        if not self.lo <= value <= self.hi:
            raise EncodingError(
                f"date {value} outside domain [{self.lo}, {self.hi}]"
            )
        return value.toordinal()

    def decode(self, number: int) -> datetime.date:
        if not self._domain.contains(number):
            raise EncodingError(f"encoded value {number} outside date domain")
        return datetime.date.fromordinal(number)


@dataclass(frozen=True)
class BooleanCodec(Codec[bool]):
    """Booleans with False < True."""

    def domain(self) -> IntegerDomain:
        return IntegerDomain(0, 1)

    def encode(self, value: bool) -> int:
        if value is None:
            raise EncodingError("NULL must be handled before encoding")
        if not isinstance(value, bool):
            raise EncodingError(f"expected bool, got {type(value).__name__}")
        return int(value)

    def decode(self, number: int) -> bool:
        if number not in (0, 1):
            raise EncodingError(f"encoded boolean must be 0 or 1, got {number}")
        return bool(number)
