"""The codec against its old per-element path (`tests/codec_reference.py`):
byte-identical streams, the same decoded modules and the same errors, with
the same messages and bit offsets, on every format."""

import contextlib
from unittest import mock

import numpy as np
import pytest

import codec_reference as ref
from taskswitch import codec
from taskswitch.codec import (
    BitReader,
    CodecError,
    CompressedModule,
    decode_at,
    encode,
    encode_dense,
    encode_indep,
)

F32 = np.finfo(np.float32)
SPECIALS = [0.0, -0.0, float(F32.smallest_subnormal),
            -float(F32.smallest_subnormal), float(F32.tiny) / 3.0,
            -float(F32.tiny) * 0.75, float(F32.max), -float(F32.max)]
GROUP_SIZES = [1, 2, 3, 5, 8, 13, 64, 255, 256]


@contextlib.contextmanager
def _old_path():
    """The package's encoders and grouped decoder on the old field path."""
    with mock.patch.multiple(codec, _fields=ref._fields,
                             _values=ref._values, _pack=ref._pack):
        yield


def _same_stream(got, want):
    assert got.data == want.data
    assert (got.header, got.payload_bits, got.nnz) == \
        (want.header, want.payload_bits, want.nnz)


def _same_decoded(got, want):
    assert got.header == want.header
    assert (got.payload_bits, got.bits_consumed) == \
        (want.payload_bits, want.bits_consumed)
    if want.module is None:
        assert got.module is None
        assert got.values.dtype == want.values.dtype
        assert got.values.tobytes() == want.values.tobytes()
    else:
        assert got.values is None
        for field in ("support", "bins"):
            a, b = getattr(got.module, field), getattr(want.module, field)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def _outcome(decoder, data: bytes, pos: int = 0):
    """The decoded module, or the error as (type, message, bit offset)."""
    try:
        return decoder(BitReader(data, pos))
    except CodecError as exc:
        return type(exc), str(exc), getattr(exc, "bit_offset", None)


def _same_outcome(data: bytes, pos: int = 0):
    got = _outcome(decode_at, data, pos)
    with _old_path():
        want = _outcome(ref.decode_at, data, pos)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        _same_decoded(got, want)


def _dense_values(n: int, seed: int) -> np.ndarray:
    """Normal draws at mixed magnitudes with the special values planted
    at both ends, where the shifted words meet the header and the pad."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-46, 38, n)
    for i, v in enumerate(SPECIALS[:n]):
        values[i] = v
        values[-1 - i] = SPECIALS[(i + seed) % len(SPECIALS)]
    return values


def _module(n: int, b: int, density: float, seed: int) -> CompressedModule:
    rng = np.random.default_rng(seed)
    support = np.flatnonzero(rng.random(n) < density)
    bins = rng.integers(0, 1 << b, support.size)
    bins[:2] = (1 << b) - 1            # every bit of the widest bin set
    return CompressedModule(n, support, bins, b, 0.5, 0.25, 1.5)


class TestFieldPacking:
    @pytest.mark.parametrize("nbits", range(16))
    def test_fields_and_values_match_the_old_path(self, nbits):
        rng = np.random.default_rng(nbits)
        vals = rng.integers(0, 1 << nbits, 999)
        vals[:2] = [0, (1 << nbits) - 1]
        bits = codec._fields(vals, nbits)
        want = ref._fields(vals, nbits)
        assert bits.shape == want.shape and bits.dtype == want.dtype
        np.testing.assert_array_equal(bits, want)
        got = codec._values(want)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ref._values(want))

    @pytest.mark.parametrize("nbits", [0, 1, 15])
    def test_no_rows(self, nbits):
        assert codec._fields(np.zeros(0, np.int64), nbits).shape == \
            (0, nbits)
        assert codec._values(np.zeros((0, nbits), np.uint8)).size == 0


class TestReadWords:
    @pytest.mark.parametrize("skip", range(8))
    def test_matches_packed_bits_at_every_offset(self, skip):
        data = np.random.default_rng(skip).integers(
            0, 256, 41, dtype=np.uint8).tobytes()
        for count in (0, 1, 9):
            words, bits = (BitReader(data, 16 + skip) for _ in range(2))
            got = words.read_words(count)
            want = np.packbits(bits.read_bits(32 * count)).view(">u4")
            assert got.dtype == np.uint32
            np.testing.assert_array_equal(got, want)
            assert words.pos == bits.pos

    @pytest.mark.parametrize("skip", [0, 1, 7])
    def test_truncation_at_the_same_offset(self, skip):
        data = bytes(11)
        for reader in ("read_words", "read_bits"):
            r = BitReader(data, skip)
            with pytest.raises(codec.CorruptStreamError) as err:
                getattr(r, reader)(3 if reader == "read_words" else 96)
            assert err.value.bit_offset == skip and r.pos == skip


class TestDense:
    @pytest.mark.parametrize("n", [1, 2, 3, 255, 4097, (1 << 20) + 3])
    def test_streams_and_decodes_match(self, n):
        for seed in range(len(SPECIALS) if n < 4 else 1):
            values = _dense_values(n, seed)
            enc = encode_dense(values, 0.7)
            _same_stream(enc, ref.encode_dense(values, 0.7))
            assert len(enc.data) == 18 + 4 * n
            _same_outcome(enc.data)
            # inside a file, at an offset that is not a word boundary
            _same_outcome(b"\x01\x02\x03" + enc.data + b"\xff", 24)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e39])
    def test_refuses_what_the_old_path_refuses(self, value):
        values = np.array([1.0, value, 2.0])
        for encoder in (encode_dense, ref.encode_dense):
            with pytest.raises(CodecError, match="finite in float32"):
                encoder(values)

    @pytest.mark.parametrize("n", [1, 3])
    def test_every_cut_and_bit_flip_fails_the_same_way(self, n):
        data = encode_dense(_dense_values(n, 1), 0.7).data
        for cut in range(len(data)):
            _same_outcome(data[:cut])
        for bit in range(8 * len(data)):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 0x80 >> bit % 8
            _same_outcome(bytes(flipped))


class TestQuantized:
    @pytest.mark.parametrize("b", range(1, 16))
    def test_grouped_streams_and_decodes_match(self, b):
        for c in GROUP_SIZES:
            for density in (0.0, 0.3, 1.0):
                mod = _module(7 * c, b, density, seed=b * c)
                enc = encode(mod, group_size=c)
                with _old_path():
                    want = encode(mod, group_size=c)
                _same_stream(enc, want)
                _same_outcome(enc.data)

    @pytest.mark.parametrize("b", range(1, 16))
    def test_indep_streams_and_decodes_match(self, b):
        for n in (1, 7, 300):
            for density in (0.0, 0.3, 1.0):
                mod = _module(n, b, density, seed=b * n)
                enc = encode_indep(mod)
                with _old_path():
                    want = encode_indep(mod)
                _same_stream(enc, want)
                _same_outcome(enc.data)

    @pytest.mark.parametrize("fmt", ["grouped", "indep"])
    def test_every_cut_and_bit_flip_fails_the_same_way(self, fmt):
        mod = _module(12, 3, 0.5, seed=4)
        data = (encode(mod, group_size=4) if fmt == "grouped"
                else encode_indep(mod)).data
        for cut in range(len(data)):
            _same_outcome(data[:cut])
        for bit in range(8 * len(data)):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 0x80 >> bit % 8
            _same_outcome(bytes(flipped))
