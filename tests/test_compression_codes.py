"""Unit and property tests for the bit-level integer codes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.bits import BitReader, BitWriter, bits_to_list
from repro.compression.codes import (
    available_codes,
    decode_delta,
    decode_gamma,
    decode_rice,
    decode_unary,
    encode_delta,
    encode_gamma,
    encode_rice,
    encode_unary,
    get_code,
    zigzag_decode,
    zigzag_encode,
)
from repro.exceptions import CompressionError


class TestBitWriterReader:
    def test_single_bits_round_trip(self):
        writer = BitWriter()
        pattern = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1]
        writer.extend(pattern)
        assert writer.bit_length == len(pattern)
        assert bits_to_list(writer.to_bytes(), writer.bit_length) == pattern

    def test_write_bits_fixed_width(self):
        writer = BitWriter()
        writer.write_bits(0b1011, 4)
        writer.write_bits(0, 3)
        reader = BitReader(writer.to_bytes(), writer.bit_length)
        assert reader.read_bits(4) == 0b1011
        assert reader.read_bits(3) == 0

    def test_write_bit_rejects_non_bit(self):
        with pytest.raises(CompressionError):
            BitWriter().write_bit(2)

    def test_write_bits_rejects_overflow(self):
        with pytest.raises(CompressionError):
            BitWriter().write_bits(8, 3)

    def test_write_bits_rejects_negative(self):
        with pytest.raises(CompressionError):
            BitWriter().write_bits(-1, 4)

    def test_reader_rejects_reading_past_end(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        reader = BitReader(writer.to_bytes(), writer.bit_length)
        reader.read_bits(3)
        with pytest.raises(CompressionError):
            reader.read_bit()

    def test_reader_rejects_bad_bit_length(self):
        with pytest.raises(CompressionError):
            BitReader(b"\x00", bit_length=9)

    def test_peek_does_not_consume(self):
        writer = BitWriter()
        writer.write_bits(0b1100, 4)
        reader = BitReader(writer.to_bytes(), writer.bit_length)
        assert reader.peek_bits(2) == 0b11
        assert reader.position == 0
        assert reader.read_bits(4) == 0b1100

    def test_remaining_tracks_position(self):
        writer = BitWriter()
        writer.write_bits(0b10101, 5)
        reader = BitReader(writer.to_bytes(), writer.bit_length)
        assert reader.remaining == 5
        reader.read_bits(2)
        assert reader.remaining == 3

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_bit_round_trip_property(self, bits):
        writer = BitWriter()
        writer.extend(bits)
        assert bits_to_list(writer.to_bytes(), writer.bit_length) == bits


class TestZigZag:
    # Python ints are unbounded, so the mapping must stay injective past
    # 2**63: a 64-bit sign-smear XOR would send 2**63 and -2**63 - 1 to
    # the same code.
    @pytest.mark.parametrize("value,expected", [
        (0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4),
        (2**63 - 1, 2**64 - 2), (-(2**63), 2**64 - 1), (2**63, 2**64),
        (-(2**63) - 1, 2**64 + 1), (2**64, 2**65),
    ])
    def test_known_values(self, value, expected):
        assert zigzag_encode(value) == expected
        assert zigzag_decode(expected) == value

    @given(st.integers(min_value=-(2**70), max_value=2**70))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    def test_decode_rejects_negative(self):
        with pytest.raises(CompressionError):
            zigzag_decode(-1)


class TestUnaryGammaDeltaRice:
    @pytest.mark.parametrize(
        "encoder,decoder",
        [
            (encode_unary, decode_unary),
            (encode_gamma, decode_gamma),
            (encode_delta, decode_delta),
        ],
    )
    def test_small_values_round_trip(self, encoder, decoder):
        writer = BitWriter()
        values = list(range(20))
        for value in values:
            encoder(writer, value)
        reader = BitReader(writer.to_bytes(), writer.bit_length)
        assert [decoder(reader) for _ in values] == values

    def test_gamma_known_lengths(self):
        # gamma(value) spends 2*floor(log2(value+1)) + 1 bits.
        assert get_code("gamma").encoded_length(0) == 1
        assert get_code("gamma").encoded_length(1) == 3
        assert get_code("gamma").encoded_length(6) == 5

    def test_delta_beats_gamma_for_large_values(self):
        gamma = get_code("gamma")
        delta = get_code("delta")
        assert delta.encoded_length(100_000) < gamma.encoded_length(100_000)

    def test_rice_round_trip_various_parameters(self):
        for k in (0, 1, 3, 5):
            writer = BitWriter()
            values = [0, 1, 2, 7, 63, 100]
            for value in values:
                encode_rice(writer, value, k)
            reader = BitReader(writer.to_bytes(), writer.bit_length)
            assert [decode_rice(reader, k) for _ in values] == values

    def test_negative_values_rejected(self):
        with pytest.raises(CompressionError):
            encode_gamma(BitWriter(), -1)
        with pytest.raises(CompressionError):
            encode_rice(BitWriter(), -1, 2)

    @given(st.lists(st.integers(min_value=0, max_value=2**20), max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_mixed_code_sequence_property(self, values):
        # The unary code is excluded here: it spends O(value) bits, so
        # values near 2**20 would dominate the test's runtime.
        for name in ("gamma", "delta", "rice2", "rice4"):
            code = get_code(name)
            writer = BitWriter()
            for value in values:
                code.encode(writer, value)
            reader = BitReader(writer.to_bytes(), writer.bit_length)
            assert [code.decode(reader) for _ in values] == values

    @given(st.lists(st.integers(min_value=0, max_value=200), max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_unary_sequence_property(self, values):
        code = get_code("unary")
        writer = BitWriter()
        for value in values:
            code.encode(writer, value)
        reader = BitReader(writer.to_bytes(), writer.bit_length)
        assert [code.decode(reader) for _ in values] == values


class TestCodeRegistry:
    def test_available_codes_contains_standard_codes(self):
        names = available_codes()
        assert {"unary", "gamma", "delta"} <= set(names)

    def test_unknown_code_raises(self):
        with pytest.raises(CompressionError):
            get_code("huffman")

    def test_encoded_length_matches_actual_encoding(self):
        for name in available_codes():
            code = get_code(name)
            writer = BitWriter()
            code.encode(writer, 37)
            assert code.encoded_length(37) == writer.bit_length
