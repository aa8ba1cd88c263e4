"""Bitstream codec: size laws, exact layout, round trips, corruption."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskswitch import (
    CapacityError,
    CodecError,
    CompressedModule,
    CorruptStreamError,
    Format,
    QuantSpec,
    choose_format,
    decode,
    encode,
    encode_dense,
    encode_indep,
    expected_bits,
    optimal_group,
    quantize_indices,
)
from taskswitch.codec import (
    BitReader,
    HEADER_BITS,
    MAX_GROUP,
    NOMINAL_HEADER_BITS,
    ModuleHeader,
    _divisors,
    _fields,
    _values,
    decode_at,
    indep_bits,
    index_bits,
    nominal_bits,
)


def _module(n, alpha, b, seed, rn=1.0, rp=1.0, scale=1.0):
    """Random module: each position survives with probability 1 - alpha and
    takes the bin of a uniform draw over the f32-rounded quantizer."""
    rng = np.random.default_rng(seed)
    spec = QuantSpec(b, float(np.float32(rn)), float(np.float32(rp)))
    support = np.flatnonzero(rng.random(n) >= alpha)
    bins = quantize_indices(rng.uniform(-rn, rp, size=support.size), spec)
    return CompressedModule(n, support, bins, b, spec.range_neg,
                            spec.range_pos, scale)


def _same_module(got, want):
    np.testing.assert_array_equal(got.support, want.support)
    np.testing.assert_array_equal(got.bins, want.bins)
    assert got.length == want.length and got.bit_width == want.bit_width


class TestSizeFormulas:
    def test_index_bits(self):
        assert [index_bits(c) for c in (1, 2, 3, 4, 8, 256)] == \
            [0, 1, 2, 2, 3, 8]

    def test_expected_bits_literal(self):
        # 35 + 1024/32 + 1024*0.1*(5+4+1) = 35 + 32 + 1024.
        assert expected_bits(1024, 32, 0.9, 4) == pytest.approx(1091.0)

    def test_optimal_group_literals(self):
        assert optimal_group(1024, 0.9) == 8
        assert optimal_group(1024, 0.5) == 1
        assert optimal_group(1024, 1.0) == 256
        assert optimal_group(1000, 0.9) == 8

    def test_admissible_groups_are_capped_divisors(self):
        assert _divisors(12) == (1, 2, 3, 4, 6, 12)
        assert _divisors(512)[-1] == 256
        assert max(_divisors(3 * 1024)) <= MAX_GROUP

    @given(st.integers(1, 4096), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_optimal_group_matches_brute_force(self, n, alpha):
        best = min(_divisors(n),
                   key=lambda c: (expected_bits(n, c, alpha, 1), c))
        assert optimal_group(n, alpha) == best

    def test_baseline_formulas(self):
        assert indep_bits(1024, 4) == 5 * 1024

    def test_optimal_group_argument_validation(self):
        with pytest.raises(CapacityError):
            optimal_group(0, 0.5)
        with pytest.raises(ValueError):
            optimal_group(8, 1.5)

    def test_cached_choices_match_the_scan(self):
        scan = optimal_group.__wrapped__
        for n in range(1, 4097):
            for alpha in (0.0, 0.1, 0.5, 0.9, 0.95, 1.0 - 3 / n, 1.0):
                if alpha >= 0.0:
                    assert optimal_group(n, alpha) == scan(n, alpha), (n,
                                                                       alpha)
        hits = optimal_group.cache_info().hits
        assert optimal_group(4096, 0.9) == scan(4096, 0.9)
        assert optimal_group.cache_info().hits == hits + 1
        # refusals are raised on every call, never cached
        for args, error in (((0, 0.5), CapacityError), ((-3, 0.5),
                            CapacityError), ((8, 1.5), ValueError),
                            ((8, -0.1), ValueError),
                            ((8, float("nan")), ValueError)):
            for _ in range(2):
                with pytest.raises(error):
                    optimal_group(*args)


def _f32(*floats):
    """Big-endian float32 fields as a bit string."""
    return "".join(format(struct.unpack(">I", struct.pack(">f", f))[0], "032b")
                   for f in floats)


def _header(tag, width, cfield, count, *floats):
    """A stream header as a bit string: the integer fields, then float32s."""
    return (format(tag, "02b") + format(width, "04b") + format(cfield, "08b")
            + format(count, "027b") + _f32(*floats))


def _stream(bits):
    """Bytes of a bit string, zero-padded to a byte boundary."""
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


class TestFrozenLayout:
    def test_grouped_stream_bit_for_bit(self):
        # encode([0, 0.75, 0, -0.25], b=2, ranges +-1, scale 2): group
        # sizes 1 and 2 tie at 43 expected bits, so c=1 wins. Layout:
        # tag 00, width 0010, group-1 00000000, count 4 in 27 bits, three
        # big-endian float32 fields, bitmap 0101, then per-survivor
        # records (bin, flag) with no intra bits: (11,1), (01,1).
        # the centers of width 2 over +-1 are -0.75, -0.25, 0.25, 0.75
        enc = encode(CompressedModule(4, np.array([1, 3]), np.array([3, 1]),
                                      2, 1.0, 1.0, 2.0))
        assert enc.header.group_size == 1
        bits = "00" + "0010" + "00000000" + format(4, "027b")
        for field in (2.0, 1.0, 1.0):
            raw = struct.unpack(">I", struct.pack(">f", field))[0]
            bits += format(raw, "032b")
        assert len(bits) == HEADER_BITS
        bits += "0101"          # single-element groups: the bitmap is the mask
        bits += "111" + "011"   # (bin=3, stop), (bin=1, stop)
        bits += "0" * (-len(bits) % 8)
        want = bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))
        assert enc.data == want
        assert enc.payload_bits == 10
        assert enc.file_bits == 19 * 8
        assert nominal_bits(enc.header.fmt, enc.payload_bits) == \
            NOMINAL_HEADER_BITS + 10

    def test_grouped_stream_with_intra_group_bits(self):
        # Group size 4 over 8 elements: bitmap 11, then records (intra
        # index in 2 bits, bin in 1 bit, end-of-group flag). Positions 1
        # and 2 share group 0, so only the second record closes it.
        enc = encode(CompressedModule(8, np.array([1, 2, 6]),
                                      np.array([1, 0, 1]), 1, 1.0, 1.0, 0.5),
                     group_size=4)
        bits = _header(0, 1, 3, 8, 0.5, 1.0, 1.0)
        bits += "11"
        bits += "01" + "1" + "0"    # position 1: intra 1, bin 1, open
        bits += "10" + "0" + "1"    # position 2: intra 2, bin 0, close
        bits += "10" + "1" + "1"    # position 6: intra 2, bin 1, close
        assert enc.data == _stream(bits)
        assert enc.payload_bits == 14

    def test_indep_stream_bit_for_bit(self):
        # n mask bits, then b bits for every element, zeros included.
        enc = encode_indep(CompressedModule(4, np.array([1, 3]),
                                            np.array([3, 1]), 2, 0.5, 1.5,
                                            2.0))
        bits = _header(1, 2, 0, 4, 2.0, 0.5, 1.5)
        bits += "0101"
        bits += "00" + "11" + "00" + "01"
        assert enc.data == _stream(bits)
        assert enc.payload_bits == 12

    def test_dense_stream_bit_for_bit(self):
        # Width and group fields are zero, ranges are zero, then one
        # big-endian float32 per element.
        enc = encode_dense(np.array([0.5, -1.25, 0.0]), scale=3.0)
        bits = _header(2, 0, 0, 3, 3.0, 0.0, 0.0)
        bits += _f32(0.5, -1.25, 0.0)
        assert enc.data == _stream(bits)
        assert enc.payload_bits == 96

    def test_short_grouped_stream_bit_for_bit(self):
        # choose_format of one survivor in 64 elements: groups of 32, the
        # sixth of the seven admissible sizes 1, 2, ..., 64, so index 5 in
        # 3 bits. Tag 11, kind 00, width 0010, count length 7 and the 6
        # bits of 64 below its leading one, the index, then the floats
        enc = choose_format(CompressedModule(64, np.array([40]),
                                             np.array([3]), 2, 1.0, 1.0,
                                             2.0))
        bits = "11" + "00" + "0010" + "00111" + "000000" + "101"
        bits += _f32(2.0, 1.0, 1.0)
        assert len(bits) == 118
        bits += "01"                   # the second of two groups
        bits += "01000" + "11" + "1"   # intra 8, bin 3, close
        assert enc.data == _stream(bits)
        assert enc.header == ModuleHeader(Format.GROUPED, 2, 32, 64, 2.0,
                                          1.0, 1.0)
        assert enc.payload_bits == 10
        dec = decode(enc.data)
        assert (dec.header, dec.header_bits) == (enc.header, 118)

    def test_short_indep_stream_bit_for_bit(self):
        # tag 11, kind 01, width 0010, count length 3 and the 2 bits of 4
        # below its leading one; an INDEP header has no group index
        enc = choose_format(CompressedModule(4, np.array([1, 3]),
                                             np.array([3, 1]), 2, 0.5, 1.5,
                                             2.0))
        bits = "11" + "01" + "0010" + "00011" + "00" + _f32(2.0, 0.5, 1.5)
        assert len(bits) == 111
        bits += "0101"
        bits += "00" + "11" + "00" + "01"
        assert enc.data == _stream(bits)
        assert enc.payload_bits == 12
        dec = decode(enc.data)
        assert (dec.header, dec.header_bits) == (
            ModuleHeader(Format.INDEP, 2, 1, 4, 2.0, 0.5, 1.5), 111)

    def test_long_header_stream_pinned_as_hex_decodes(self):
        # encode's 137-bit header, as every stream before the short header
        # was written: 12 elements in groups of 4 at width 2
        pinned = "080c0000061fa000001f8000001fe000007746bb"
        mod = CompressedModule(12, np.array([1, 2, 6, 11]),
                               np.array([3, 0, 2, 1]), 2, 0.5, 1.5, 0.75)
        assert encode(mod, 4).data.hex() == pinned
        dec = decode(bytes.fromhex(pinned))
        assert dec.header == ModuleHeader(Format.GROUPED, 2, 4, 12, 0.75,
                                          0.5, 1.5)
        assert (dec.header_bits, dec.payload_bits) == (HEADER_BITS, 23)
        _same_module(dec.module, mod)
        short = decode(choose_format(mod).data)
        assert short.header_bits < HEADER_BITS
        np.testing.assert_array_equal(short.final_values(),
                                      dec.final_values())

    def test_payload_matches_deterministic_size_formula(self):
        for seed in range(5):
            mod = _module(256, 0.8, 3, seed)
            enc = encode(mod)
            c = enc.header.group_size
            want = 256 // c + mod.nnz * (index_bits(c) + 3 + 1)
            assert enc.payload_bits == want


class TestRoundTrips:
    @given(st.integers(1, 512), st.floats(0.0, 1.0), st.sampled_from([1, 2, 4, 8]),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_grouped_round_trip(self, n, alpha, b, seed):
        mod = _module(n, alpha, b, seed, scale=0.7)
        enc = encode(mod)
        dec = decode(enc.data)
        assert dec.header == enc.header
        _same_module(dec.module, mod)
        assert dec.module.scale == float(np.float32(0.7))
        want = dataclasses.replace(mod, scale=dec.module.scale)
        np.testing.assert_array_equal(dec.module.values, want.values)
        np.testing.assert_array_equal(dec.final_values(),
                                      want.final_values())

    @given(st.integers(1, 256), st.floats(0.0, 1.0), st.sampled_from([1, 4]),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_indep_round_trip(self, n, alpha, b, seed):
        mod = _module(n, alpha, b, seed)
        enc = encode_indep(mod)
        assert enc.payload_bits == (b + 1) * n
        dec = decode(enc.data)
        _same_module(dec.module, mod)
        np.testing.assert_array_equal(dec.final_values(), mod.final_values())

    @given(st.integers(1, 256), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dense_round_trip_is_float32_exact(self, n, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=n)
        enc = encode_dense(v, scale=1.0)
        dec = decode(enc.data)
        np.testing.assert_array_equal(
            dec.values, v.astype(np.float32).astype(np.float64))

    def test_dense_nnz_counts_stored_words(self):
        # 1e-50 and -0.0 are stored as float32 zeros, float32's smallest
        # subnormal (sign bit clear or set) is not: the decoder counts
        # the stored words
        tiny = float(np.finfo(np.float32).smallest_subnormal)
        for values, nnz in (([1e-50, 2.0], 1), ([-0.0, 2.0], 1),
                            ([1e-46, -1e-300, 0.0], 0), ([-0.0, -0.0], 0),
                            ([tiny, -0.0, -tiny, 0.0], 2)):
            enc = encode_dense(np.array(values))
            assert decode(enc.data).nnz == nnz

    def test_empty_mask_stream(self):
        enc = encode(_module(64, 1.0, 4, 0))
        dec = decode(enc.data)
        assert dec.nnz == 0 and dec.module.support.size == 0
        np.testing.assert_array_equal(dec.final_values(), np.zeros(64))

    def test_single_element_module(self):
        mod = CompressedModule(1, np.array([0]), np.array([3]), 2,
                               0.5, 0.5, 1.0)
        dec = decode(encode(mod).data)
        _same_module(dec.module, mod)
        np.testing.assert_array_equal(dec.final_values(), [0.375])

    def test_forced_group_sizes(self):
        mod = _module(512, 0.9, 2, 0)
        for c in (1, 2, 256):
            enc = encode(mod, group_size=c)
            assert enc.header.group_size == c
            _same_module(decode(enc.data).module, mod)

    def test_prime_length_uses_divisor_groups(self):
        mod = _module(257, 0.9, 2, 1)  # prime: only c=1 divides
        enc = encode(mod)
        assert enc.header.group_size == 1
        _same_module(decode(enc.data).module, mod)

    @pytest.mark.parametrize("fn", [encode, encode_indep, choose_format])
    def test_zero_center_survivors_kept(self, fn):
        # Width 1 over (1, 3) has centers 0.0 and 2.0; a survivor on the
        # zero center is still a survivor.
        mod = CompressedModule(4, np.array([0, 1, 3]), np.array([0, 1, 0]),
                               1, 1.0, 3.0, 1.0)
        dec = decode(fn(mod).data)
        _same_module(dec.module, mod)
        assert dec.nnz == 3


class TestChooseFormat:
    def test_picks_minimum_nominal_bits(self):
        for n, alpha, b, seed in ((64, 0.3, 8, 0), (1024, 0.95, 2, 1),
                                  (32, 0.0, 8, 2), (100, 0.9, 1, 3)):
            mod = _module(n, alpha, b, seed)
            chosen = choose_format(mod)
            explicit = [encode(mod), encode_indep(mod),
                        encode_dense(np.zeros(n), 1.0)]
            assert nominal_bits(chosen.header.fmt, chosen.payload_bits) == \
                min(nominal_bits(e.header.fmt, e.payload_bits)
                    for e in explicit)

    def test_sparse_wide_module_prefers_grouped(self):
        mod = _module(4096, 0.95, 4, 0)
        assert choose_format(mod).header.fmt == Format.GROUPED

    def test_tiny_module_prefers_indep(self):
        # The 35-bit grouped header outweighs its savings at this size.
        mod = _module(8, 0.5, 2, 0)
        assert choose_format(mod).header.fmt == Format.INDEP

    def test_all_zero_wide_module_is_grouped_bitmap_only(self):
        enc = choose_format(_module(4096, 1.0, 8, 0))
        assert enc.header.fmt == Format.GROUPED
        assert enc.header.group_size == 256
        assert enc.payload_bits == 4096 // 256


def _small_module(support, bins, bit_width=2, range_neg=1.0,
                  range_pos=1.0, length=8):
    """A hand-written module, well formed or not, for the encoder checks."""
    return CompressedModule(length, np.array(support, dtype=np.int64),
                            np.array(bins, dtype=np.int64), bit_width,
                            range_neg, range_pos, 1.0)


ENCODERS = [encode, encode_indep, choose_format]


class TestEncodeValidation:
    @pytest.mark.parametrize("fn", ENCODERS)
    @pytest.mark.parametrize("support", [[3, 3], [5, 2], [-1, 2], [2, 8]])
    def test_support_not_increasing_in_range_rejected(self, fn, support):
        with pytest.raises(CodecError, match="strictly increasing"):
            fn(_small_module(support, [0, 1]))

    @pytest.mark.parametrize("fn", ENCODERS)
    def test_one_bin_per_position_required(self, fn):
        with pytest.raises(CodecError, match="2 bins for 3 positions"):
            fn(_small_module([1, 2, 3], [0, 1]))

    @pytest.mark.parametrize("fn", ENCODERS)
    @pytest.mark.parametrize("bins", [[0, 4], [-1, 0]])
    def test_bin_outside_width_rejected(self, fn, bins):
        with pytest.raises(CodecError, match=r"bin index outside \[0, 4\)"):
            fn(_small_module([1, 2], bins))

    @pytest.mark.parametrize("fn", ENCODERS)
    @pytest.mark.parametrize("bit_width", [0, 16])
    def test_width_outside_codec_range_rejected(self, fn, bit_width):
        with pytest.raises(CodecError, match=f"width {bit_width}"):
            fn(_small_module([], [], bit_width=bit_width))

    @pytest.mark.parametrize("fn", ENCODERS)
    def test_negative_range_rejected(self, fn):
        # the decoder refuses such a header, so no encoder may write one
        with pytest.raises(CodecError, match="ranges -1.0"):
            fn(_small_module([], [], range_neg=-1.0))

    def test_degenerate_ranges_with_nonzeros_rejected(self):
        for fn in ENCODERS:
            with pytest.raises(CodecError, match="degenerate"):
                fn(_small_module([0], [1], range_neg=0.0, range_pos=0.0))
            # an empty support is fine: nothing needs a bin center
            empty = _small_module([], [], range_neg=0.0, range_pos=0.0)
            assert decode(fn(empty).data).nnz == 0

    def test_empty_input_rejected(self):
        for fn in ENCODERS:
            with pytest.raises(CapacityError):
                fn(_small_module([], [], length=0))
        with pytest.raises(CapacityError):
            encode_dense(np.zeros(0))

    def test_inadmissible_group_rejected(self):
        with pytest.raises(CodecError):
            encode(_small_module([], [], length=10), group_size=3)

    def test_non_finite_header_field_rejected(self):
        # The decoder refuses non-finite header fields, so the encoder
        # must never produce them.
        for rn, rp, s in ((1.0, 1.0, float("nan")),
                          (float("inf"), 1.0, 1.0),
                          (1.0, float("-inf"), 1.0)):
            mod = CompressedModule(8, np.zeros(0, dtype=np.int64),
                                   np.zeros(0, dtype=np.int64), 2, rn, rp, s)
            with pytest.raises(CodecError, match="non-finite"):
                encode(mod)

    @pytest.mark.parametrize("fn", ENCODERS)
    @pytest.mark.parametrize("field, value", [
        ("scale", 1e300), ("range_neg", 3.5e38), ("range_pos", 1e39)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_header_field_past_float32_rejected_quietly(self, fn, field,
                                                         value):
        # finite in float64, inf once stored: refused with no overflow
        # warning printed on the way
        mod = _small_module([1], [0])
        setattr(mod, field, value)
        with pytest.raises(CodecError, match=f"non-finite header field "
                                             f"{field}"):
            fn(mod)

    @pytest.mark.parametrize("value", [3.5e38, -1e300])
    def test_dense_values_past_float32_rejected(self, value):
        # finite in float64, inf once stored: refused like decode_at would
        with pytest.raises(CodecError, match="finite in float32"):
            encode_dense(np.array([1.0, value]))
        edge = np.array([np.finfo(np.float32).max, 1e-46])
        np.testing.assert_array_equal(
            decode(encode_dense(edge).data).values, [edge[0], 0.0])

    def test_non_finite_dense_values_rejected(self):
        v = np.ones(8)
        v[2] = np.inf
        with pytest.raises(CodecError, match="finite"):
            encode_dense(v)
        v[2] = np.nan
        with pytest.raises(CodecError, match="finite"):
            encode_dense(v)


class TestCorruption:
    @staticmethod
    def _valid_stream():
        return encode(_module(128, 0.8, 2, 7)).data

    def test_truncation_always_detected(self):
        data = self._valid_stream()
        for cut in (1, len(data) // 2, len(data) - 1):
            with pytest.raises(CorruptStreamError):
                decode(data[:cut])

    def test_trailing_bytes_detected(self):
        with pytest.raises(CorruptStreamError, match="trailing"):
            decode(self._valid_stream() + b"\x00")

    def test_unknown_format_tag(self):
        data = bytearray(self._valid_stream())
        data[0] |= 0b1111_0000  # tag 3, the short header, of kind 3
        with pytest.raises(CorruptStreamError, match="format tag"):
            decode(bytes(data))

    def test_zero_count_rejected(self):
        bits = _header(0, 2, 0, 0, 1.0, 1.0, 1.0)   # count 0
        with pytest.raises(CorruptStreamError, match="count"):
            decode(_stream(bits))

    def test_group_not_dividing_count(self):
        bits = _header(0, 2, 2, 10, 1.0, 1.0, 1.0)  # group size 3
        with pytest.raises(CorruptStreamError, match="divide"):
            decode(_stream(bits))

    def test_non_finite_header_field(self):
        bits = _header(0, 2, 0, 8, float("nan"), 1.0, 1.0)
        with pytest.raises(CorruptStreamError, match="non-finite"):
            decode(_stream(bits))

    @pytest.mark.parametrize("tag, b, cfield", [(1, 2, 1), (2, 0, 3)],
                             ids=["indep", "dense"])
    def test_group_field_outside_grouped_format(self, tag, b, cfield):
        bits = _header(tag, b, cfield, 8, 1.0, 0.0, 0.0)
        with pytest.raises(CorruptStreamError, match="grouped stream only"):
            decode(_stream(bits))

    def test_dense_header_with_quantizer_fields(self):
        bits = _header(2, 3, 0, 1, 1.0, 1.0, 1.0)   # dense tag, a bit width
        with pytest.raises(CorruptStreamError, match="dense"):
            decode(_stream(bits))

    def test_non_finite_dense_payload_detected(self):
        # encode_dense refuses non-finite input, so such a payload can only
        # arise from corruption; build one by hand. Dense headers carry
        # zero ranges.
        bits = _header(2, 0, 0, 2, 1.0, 0.0, 0.0) + _f32(1.0, float("nan"))
        with pytest.raises(CorruptStreamError, match="non-finite dense"):
            decode(_stream(bits))

    def test_nonzero_padding_detected(self):
        data = bytearray(self._valid_stream())
        # Padding occupies the low bits of the final byte whenever the
        # stream is not a multiple of 8 bits; force one of them on.
        dec = decode(bytes(data))
        total = HEADER_BITS + dec.payload_bits
        pad = (-total) % 8
        if pad == 0:
            pytest.skip("stream happens to be byte aligned")
        data[-1] |= 1
        with pytest.raises(CorruptStreamError, match="padding"):
            decode(bytes(data))

    def test_mutation_fuzz_never_misbehaves(self):
        # Byte-level mutations must either decode to a well-formed module
        # or raise the corruption error; nothing else may escape.
        rng = np.random.default_rng(0)
        base = self._valid_stream()
        for _ in range(400):
            data = bytearray(base)
            op = rng.integers(3)
            if op == 0:
                data[rng.integers(len(data))] ^= 1 << rng.integers(8)
            elif op == 1:
                data = data[:rng.integers(1, len(data))]
            else:
                data += bytes(rng.integers(0, 256, size=rng.integers(1, 4),
                                           dtype=np.uint8).tolist())
            try:
                out = decode(bytes(data))
            except CorruptStreamError:
                continue
            mod = out.module
            assert mod.length == out.header.count
            assert mod.bins.shape == mod.support.shape
            assert np.all(np.diff(mod.support) > 0)
            assert mod.support.size == 0 or (
                0 <= mod.support[0] and mod.support[-1] < mod.length)
            assert np.all(mod.bins < 1 << mod.bit_width)
            assert np.all(np.isfinite(out.final_values()))

    def test_bit_offset_recorded(self):
        try:
            decode(b"\xff" * 3)
        except CorruptStreamError as err:
            assert isinstance(err.bit_offset, int)
        else:
            pytest.fail("expected a corruption error")


class TestBitIo:
    def test_fields_values_round_trip(self):
        vals = np.array([0, 1, 5, 7, 2])
        bits = _fields(vals, 3)
        assert bits.shape == (5, 3)
        assert "".join(map(str, bits[2])) == "101"   # MSB first
        np.testing.assert_array_equal(_values(bits), vals)
        assert _values(_fields(vals, 0)).tolist() == [0] * 5

    def test_reader_exhaustion_raises(self):
        r = BitReader(b"\x00")
        with pytest.raises(CorruptStreamError):
            r.read_bits(9)

    def test_reader_unpacks_from_a_bit_offset(self):
        r = BitReader(b"\x0f\xf0", 4)
        assert "".join(map(str, r.read_bits(6))) == "111111"
        assert r.pos == 10 and r.remaining == 6


def test_decode_at_requires_byte_alignment():
    enc = encode(_small_module([], [], bit_width=1))
    with pytest.raises(CodecError, match="byte boundary"):
        decode_at(BitReader(enc.data, 3))
