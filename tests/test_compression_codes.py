"""Unit and property tests for the bit-level integer codes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.bits import BitReader, BitWriter, bits_to_list
from repro.compression.codes import (
    available_codes,
    decode_delta,
    decode_gamma,
    decode_pair_gaps,
    decode_rice,
    decode_unary,
    encode_delta,
    encode_gamma,
    encode_pair_gaps,
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


CANONICAL_PAIRS = st.sets(
    st.tuples(st.integers(0, 40), st.integers(0, 40)).map(lambda pair: tuple(sorted(pair))),
    max_size=60,
)


class TestPairGaps:
    def test_layout(self):
        # Count; then (Δa, b - a) on a new row, (0, b - prev_b) within one.
        assert encode_pair_gaps([(2, 5), (2, 9), (4, 4)]) == [3, 2, 3, 0, 4, 2, 0]
        # Pairs are unordered: (9, 2) is stored as (2, 9).
        assert encode_pair_gaps([(9, 2), (5, 2), (4, 4)]) == [3, 2, 3, 0, 4, 2, 0]

    def test_first_pair_on_row_zero_continues_the_start_row(self):
        assert encode_pair_gaps([(0, 0)]) == [1, 0, 0]
        assert decode_pair_gaps(iter([1, 0, 0])) == [(0, 0)]
        assert encode_pair_gaps([(0, 0), (0, 3)]) == [2, 0, 0, 0, 3]
        assert decode_pair_gaps(iter([2, 0, 0, 0, 3])) == [(0, 0), (0, 3)]

    @given(CANONICAL_PAIRS)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, pairs):
        values = iter(encode_pair_gaps(pairs) + [7])
        assert decode_pair_gaps(values) == sorted(pairs)
        # Reads exactly one stream and leaves what follows it.
        assert list(values) == [7]

    @pytest.mark.parametrize("pairs", [[(-1, 2)], [(2, -1)], [(1, 2), (2, 1)], [(0, 0), (0, 0)]],
                             ids=["negative", "negative-second", "repeated", "repeated-origin"])
    def test_encoder_rejects(self, pairs):
        with pytest.raises(CompressionError):
            encode_pair_gaps(pairs)

    @pytest.mark.parametrize("stream", [
        [],                      # no count
        [2, 1, 1],               # cut short
        [2, 1, 1, 0, 0],         # repeated pair within a row
        [2, 0, 0, 0, 0],         # repeated (0, 0)
        [2, 1, 1, -1, 0],        # decreasing first coordinate
        [2, 1, 3, 0, -2],        # decreasing second coordinate
    ], ids=["empty", "truncated", "repeated", "repeated-origin", "decreasing-a",
            "decreasing-b"])
    def test_decoder_rejects(self, stream):
        with pytest.raises(CompressionError):
            decode_pair_gaps(iter(stream))

    def test_forged_count_reads_only_what_is_there(self):
        with pytest.raises(CompressionError, match="ends after 1 of"):
            decode_pair_gaps(iter([2**62, 1, 1]))
