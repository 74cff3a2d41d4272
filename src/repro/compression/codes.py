"""Universal integer codes used to compress adjacency gaps.

The WebGraph framework [Boldi & Vigna, WWW'04] — cited by the paper as
the canonical downstream compressor for summarization outputs — encodes
adjacency-list gaps with universal codes.  This module provides the four
codes the literature uses most:

``unary``        best for very small values (run of 1s terminated by 0)
``gamma``        Elias γ: unary length prefix + binary remainder
``delta``        Elias δ: γ-coded length prefix + binary remainder
``rice(k)``      Golomb-Rice with power-of-two divisor, good for skewed
                 but not tiny gaps

All codes operate on *non-negative* integers; signed values go through
:func:`zigzag_encode` first (the one zig-zag mapping of the library; the
byte-aligned varint of the binary containers lives in
:mod:`repro.storage.format`).  Every encoder has a matching decoder and the
property-based tests round-trip random values through each pair.

:func:`encode_pair_gaps` / :func:`decode_pair_gaps` are the one pair-list
codec: the pipeline gap-codes its stream, ``SUMM`` sections varint it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from repro.compression.bits import BitReader, BitWriter
from repro.exceptions import CompressionError

__all__ = [
    "GapCode",
    "available_codes",
    "decode_delta",
    "decode_gamma",
    "decode_pair_gaps",
    "decode_rice",
    "decode_unary",
    "encode_delta",
    "encode_gamma",
    "encode_pair_gaps",
    "encode_rice",
    "encode_unary",
    "get_code",
    "zigzag_decode",
    "zigzag_encode",
]


def _require_non_negative(value: int, name: str = "value") -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CompressionError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise CompressionError(f"{name} must be non-negative, got {value}")
    return value


# ----------------------------------------------------------------------
# Zig-zag mapping for signed values
# ----------------------------------------------------------------------
def zigzag_encode(value: int) -> int:
    """Map a signed integer to an unsigned one (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...).

    Injective on every Python int, however large: non-negative values map
    to the even numbers, negative values to the odd ones.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise CompressionError(f"value must be an int, got {type(value).__name__}")
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    _require_non_negative(value)
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


# ----------------------------------------------------------------------
# Pair lists
# ----------------------------------------------------------------------
def encode_pair_gaps(pairs: Iterable[Tuple[int, int]]) -> List[int]:
    """A set of unordered pairs of non-negative ints as one integer stream.

    Each pair is taken as ``(a, b)`` with ``a <= b``, in sorted order: the
    count, then per pair ``a - prev_a`` and then ``b - a`` for a new ``a``
    or ``b - prev_b`` for the same ``a``; ``prev`` starts at ``(0, 0)``.
    """
    ordered = sorted((a, b) if a <= b else (b, a) for a, b in pairs)
    stream = [len(ordered)]
    previous_a = previous_b = 0
    for a, b in ordered:
        if a < 0:
            raise CompressionError(f"pair ({a}, {b}) holds a negative id")
        if a == previous_a and b == previous_b and len(stream) > 1:
            raise CompressionError(f"pair ({a}, {b}) is repeated")
        stream += (a - previous_a, b - a) if a != previous_a else (0, b - previous_b)
        previous_a, previous_b = a, b
    return stream


def decode_pair_gaps(values: Iterator[int]) -> List[Tuple[int, int]]:
    """Read one :func:`encode_pair_gaps` stream off ``values``.

    Accepts only what the encoder emits: a stream cut short, a negative
    value or a repeated pair is a :class:`CompressionError`.  Nothing is
    allocated from the count, so a forged count costs only the values read.
    """
    count = next(values, -1)
    if count < 0:
        raise CompressionError("pair list has no count")
    pairs: List[Tuple[int, int]] = []
    a = b = 0
    for _ in range(count):
        delta_a, gap = next(values, -1), next(values, -1)
        if delta_a < 0 or gap < 0:
            raise CompressionError(f"pair list ends after {len(pairs)} of {count} pairs")
        if not (delta_a or gap or not pairs):
            raise CompressionError(f"pair ({a}, {b}) is repeated")
        a += delta_a
        b = a + gap if delta_a else b + gap
        pairs.append((a, b))
    return pairs


# ----------------------------------------------------------------------
# Unary
# ----------------------------------------------------------------------
def encode_unary(writer: BitWriter, value: int) -> None:
    """Write ``value`` as ``value`` 1-bits followed by a terminating 0-bit."""
    _require_non_negative(value)
    writer.write_run(1, value)
    writer.write_bit(0)


def decode_unary(reader: BitReader) -> int:
    """Read one unary-coded value."""
    return reader.read_unary()


# ----------------------------------------------------------------------
# Elias gamma
# ----------------------------------------------------------------------
def encode_gamma(writer: BitWriter, value: int) -> None:
    """Write ``value`` with the Elias γ code (defined for value >= 0 via +1 shift)."""
    _require_non_negative(value)
    shifted = value + 1
    width = shifted.bit_length() - 1
    writer.write_run(1, width)
    writer.write_bit(0)
    writer.write_bits(shifted - (1 << width), width)


def decode_gamma(reader: BitReader) -> int:
    """Read one Elias γ coded value."""
    width = reader.read_unary()
    remainder = reader.read_bits(width)
    return (1 << width) + remainder - 1


# ----------------------------------------------------------------------
# Elias delta
# ----------------------------------------------------------------------
def encode_delta(writer: BitWriter, value: int) -> None:
    """Write ``value`` with the Elias δ code (γ-coded length, then remainder)."""
    _require_non_negative(value)
    shifted = value + 1
    width = shifted.bit_length() - 1
    encode_gamma(writer, width)
    writer.write_bits(shifted - (1 << width), width)


def decode_delta(reader: BitReader) -> int:
    """Read one Elias δ coded value."""
    width = decode_gamma(reader)
    remainder = reader.read_bits(width)
    return (1 << width) + remainder - 1


# ----------------------------------------------------------------------
# Golomb-Rice
# ----------------------------------------------------------------------
def encode_rice(writer: BitWriter, value: int, k: int) -> None:
    """Write ``value`` with the Rice code of parameter ``k`` (divisor ``2**k``)."""
    _require_non_negative(value)
    _require_non_negative(k, "k")
    quotient = value >> k
    writer.write_run(1, quotient)
    writer.write_bit(0)
    writer.write_bits(value & ((1 << k) - 1), k)


def decode_rice(reader: BitReader, k: int) -> int:
    """Read one Rice-coded value of parameter ``k``."""
    _require_non_negative(k, "k")
    quotient = reader.read_unary()
    remainder = reader.read_bits(k)
    return (quotient << k) | remainder


# ----------------------------------------------------------------------
# Code registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GapCode:
    """A named bit-level integer code with its encoder/decoder pair.

    ``parameter`` carries the Rice parameter ``k`` and is ignored by the
    parameter-free codes.
    """

    name: str
    encoder: Callable[[BitWriter, int], None]
    decoder: Callable[[BitReader], int]

    def encode(self, writer: BitWriter, value: int) -> None:
        """Encode one value into ``writer``."""
        self.encoder(writer, value)

    def decode(self, reader: BitReader) -> int:
        """Decode one value from ``reader``."""
        return self.decoder(reader)

    def encoded_length(self, value: int) -> int:
        """Number of bits this code spends on ``value``."""
        writer = BitWriter()
        self.encode(writer, value)
        return writer.bit_length


def _rice_code(k: int) -> GapCode:
    return GapCode(
        name=f"rice{k}",
        encoder=lambda writer, value, _k=k: encode_rice(writer, value, _k),
        decoder=lambda reader, _k=k: decode_rice(reader, _k),
    )


_CODES: Dict[str, GapCode] = {
    "unary": GapCode("unary", encode_unary, decode_unary),
    "gamma": GapCode("gamma", encode_gamma, decode_gamma),
    "delta": GapCode("delta", encode_delta, decode_delta),
    "rice2": _rice_code(2),
    "rice4": _rice_code(4),
}


def available_codes() -> List[str]:
    """Names of all registered gap codes."""
    return sorted(_CODES)


def get_code(name: str) -> GapCode:
    """Look up a gap code by name (``unary``, ``gamma``, ``delta``, ``rice2``, ``rice4``)."""
    try:
        return _CODES[name]
    except KeyError:
        raise CompressionError(
            f"unknown gap code {name!r}; available: {', '.join(available_codes())}"
        ) from None
