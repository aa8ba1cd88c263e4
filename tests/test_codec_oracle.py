"""The codec against its old paths (`tests/codec_reference.py`): byte-identical
streams, the same decoded modules and the same errors, with the same messages
and bit offsets, on every format."""

from functools import partial

import numpy as np
import pytest

import codec_reference as ref
from taskswitch import codec
from taskswitch.codec import (
    HEADER_BITS,
    BitReader,
    CodecError,
    CompressedModule,
    choose_format,
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
DENSITIES = [0.0, "one", 0.3, 1.0]
# survivor counts on either side of the cutoff between the one-integer
# encoders and the numpy ones; the group sizes 1 and 3 and 256 at width 15
# (24-bit records) are the record widths' edges
CUTOFF = codec.SMALL_SURVIVORS
# the decoder reads a module of at most this many records or survivors as
# one integer; every decode is checked at it and at -1, where none is
READ_CUTOFF = codec.SMALL_RECORDS
COUNTS = [0, CUTOFF - 1, CUTOFF, CUTOFF + 1]
CUTOFF_WIDTHS = [1, 8, 15]
CUTOFF_GROUPS = [1, 3, 256]
ENCODERS = [(encode, ref.encode), (encode_indep, ref.encode_indep),
            (choose_format, ref.choose_format)]


def _same_stream(got, want):
    """Equal streams and fields."""
    assert got.data == want.data
    assert (got.header, got.payload_bits) == (want.header, want.payload_bits)


def _same_decoded(got, want):
    assert got.header == want.header
    assert (got.header_bits, got.payload_bits, got.bits_consumed,
            got.nnz) == (want.header_bits, want.payload_bits,
                         want.bits_consumed, want.nnz)
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
    """The old decoder's outcome on both of the decoder's paths."""
    want = _outcome(ref.decode_at, data, pos)
    for cutoff in (READ_CUTOFF, -1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codec, "SMALL_RECORDS", cutoff)
            got = _outcome(decode_at, data, pos)
        if isinstance(want, tuple):
            assert got == want, cutoff
        else:
            assert not isinstance(got, tuple), (cutoff, got)
            _same_decoded(got, want)
    return want


def _every_cut_and_bit_flip(data: bytes, step: int = 1):
    for cut in range(0, len(data), step):
        _same_outcome(data[:cut])
    for bit in range(0, 8 * len(data), step):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 0x80 >> bit % 8
        _same_outcome(bytes(flipped))


def _encoded(encoder, *args):
    """The stream, or the refusal as (type, message): a CodecError, or the
    ValueError of choose_format's group search."""
    try:
        return encoder(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _same_encoding(new, old, *args):
    """Equal streams that decode alike, or equal refusals."""
    got, want = _encoded(new, *args), _encoded(old, *args)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        _same_stream(got, want)
        _same_outcome(got.data)


def _dense_values(n: int, seed: int) -> np.ndarray:
    """Normal draws at mixed magnitudes with the special values planted
    at both ends, where the shifted words meet the header and the pad."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-46, 38, n)
    for i, v in enumerate(SPECIALS[:n]):
        values[i] = v
        values[-1 - i] = SPECIALS[(i + seed) % len(SPECIALS)]
    return values


def _module(n: int, b: int, density, seed: int) -> CompressedModule:
    """A random module; density "one" keeps a single random position, and
    an int that many."""
    rng = np.random.default_rng(seed)
    if density == "one":
        support = rng.integers(0, n, 1)
    elif isinstance(density, int):
        support = np.sort(rng.choice(n, density, replace=False))
    else:
        support = np.flatnonzero(rng.random(n) < density)
    bins = rng.integers(0, 1 << b, support.size)
    bins[:2] = (1 << b) - 1            # every bit of the widest bin set
    return CompressedModule(n, support, bins, b, 0.5, 0.25, 1.5)


class TestFieldPacking:
    @pytest.mark.parametrize("nbits", range(33))
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

    @pytest.mark.parametrize("nbits", [0, 1, 15, 16, 17, 24])
    def test_no_rows(self, nbits):
        assert codec._fields(np.zeros(0, np.int64), nbits).shape == \
            (0, nbits)
        assert codec._values(np.zeros((0, nbits), np.uint8)).size == 0


class TestFloat32:
    def test_header_rounding_matches_numpy(self):
        # float32's largest value and the halfway point past it, where
        # rounding to even meets the overflow, then subnormals and zeros
        top = float(F32.max)
        half_ulp = 2.0 ** 103
        edges = [top, np.nextafter(top + half_ulp, 0.0), top + half_ulp,
                 np.nextafter(top + half_ulp, np.inf), 1e39, 1e300, np.inf,
                 *SPECIALS, 2.0 ** -150, np.nextafter(2.0 ** -150, 1.0),
                 2.0 ** -149 * 1.5, 0.1, 1.0 / 3.0]
        rng = np.random.default_rng(0)
        draws = rng.standard_normal(2000) * 10.0 ** rng.integers(-50, 45, 2000)
        for v in [*edges, *draws]:
            for x in (float(v), -float(v)):
                with np.errstate(over="ignore"):
                    want = float(np.float32(x))
                got = codec._float32(x)
                assert np.float64(got).tobytes() == \
                    np.float64(want).tobytes(), x


class TestReadWords:
    @pytest.mark.parametrize("skip", range(8))
    def test_matches_packed_bits_at_every_offset(self, skip):
        data = np.random.default_rng(skip).integers(
            0, 256, 41, dtype=np.uint8).tobytes()
        # nine words from byte 2 end in byte 38 at skip 0, and in the
        # last byte of the 39 at any other skip
        for size, count in ((41, 0), (41, 1), (41, 2), (41, 9), (39, 9)):
            words, bits = (BitReader(data[:size], 16 + skip)
                           for _ in range(2))
            got = words.read_words(count)
            want = np.packbits(bits.read_bits(32 * count)).view(">u4")
            assert got.dtype == np.uint32
            np.testing.assert_array_equal(got, want)
            assert words.pos == bits.pos

    @pytest.mark.parametrize("skip", [0, 1, 7])
    def test_truncation_at_the_same_offset(self, skip):
        data = bytes(11)
        for reader in ("read_words", "read_bits", "read_int"):
            r = BitReader(data, skip)
            with pytest.raises(codec.CorruptStreamError) as err:
                getattr(r, reader)(3 if reader == "read_words" else 96)
            assert err.value.bit_offset == skip and r.pos == skip

    @pytest.mark.parametrize("skip", range(8))
    def test_read_int_matches_read_bits(self, skip):
        # counts that end inside a byte, on its boundary, and on the last
        # bit of the data
        data = np.random.default_rng(skip).integers(
            0, 256, 9, dtype=np.uint8).tobytes()
        for count in (0, 1, 7, 8 - skip, 9, 40, 72 - 16 - skip):
            ints, bits = (BitReader(data, 16 + skip) for _ in range(2))
            want = int("".join(map(str, bits.read_bits(count))) or "0", 2)
            assert ints.read_int(count) == want
            assert ints.pos == bits.pos


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 3])
    def test_every_cut_and_bit_flip_fails_the_same_way(self, n):
        _every_cut_and_bit_flip(encode_dense(_dense_values(n, 1), 0.7).data)


class TestQuantized:
    @pytest.mark.parametrize("b", range(1, 16))
    def test_grouped_streams_and_decodes_match(self, b):
        cases = [(7 * c, c, density) for c in GROUP_SIZES
                 for density in DENSITIES]
        if b in CUTOFF_WIDTHS:
            cases += [(c * (CUTOFF + 2), c, count) for c in CUTOFF_GROUPS
                      for count in COUNTS]
        for n, c, density in cases:
            mod = _module(n, b, density, seed=b * c)
            _same_encoding(encode, ref.encode, mod, c)
            _same_encoding(encode, ref.encode, mod)
            _same_encoding(choose_format, ref.choose_format, mod)

    @pytest.mark.parametrize("b", range(1, 16))
    def test_indep_streams_and_decodes_match(self, b):
        cases = [(n, density) for n in (1, 7, 300) for density in DENSITIES]
        if b in CUTOFF_WIDTHS:
            cases += [(CUTOFF + 1, count) for count in COUNTS]
            cases += [(300, count) for count in COUNTS]
        for n, density in cases:
            mod = _module(n, b, density, seed=b * n)
            _same_encoding(encode_indep, ref.encode_indep, mod)
            _same_encoding(choose_format, ref.choose_format, mod)

    @pytest.mark.parametrize("b", [1, 4, 15])
    def test_large_indep_module(self, b):
        mod = _module(1 << 16, b, 0.05, seed=b)
        _same_encoding(encode_indep, ref.encode_indep, mod)

    @pytest.mark.parametrize("b", [3, 15])
    def test_records_past_one_scan_chunk(self, b):
        # the decoder scans max(64, 2 * flagged groups) records first and
        # doubles the scan until every group has closed
        mod = _module(4 * 256, b, 1.0, seed=b)
        assert mod.nnz > 2 * max(64, 2 * 4)
        _same_encoding(encode, ref.encode, mod, 256)
        _every_cut_and_bit_flip(encode(mod, 256).data, step=37)

    @pytest.mark.parametrize("per_group, reads", [
        (1, [80, 40 * 8]), (3, [80, 80 * 8, 40 * 8])])
    def test_bitmap_read_alone_then_records_in_doubling_chunks(
            self, monkeypatch, per_group, reads):
        # 40 of 80 groups of 16 flagged, 8-bit records: the bitmap is read
        # alone, then the records from a first chunk of 80. With one
        # record a group the stream holds 40, so one read takes them all,
        # and with three the next chunk takes the 40 left
        support = np.concatenate([g * 16 + np.arange(per_group)
                                  for g in range(0, 80, 2)])
        mod = CompressedModule(1280, support, support % 8, 3, 0.5, 0.25, 1.5)
        data = encode(mod, 16).data
        monkeypatch.setattr(codec, "SMALL_RECORDS", -1)   # the numpy scan
        got = []
        read_bits = BitReader.read_bits
        monkeypatch.setattr(BitReader, "read_bits", lambda r, count: (
            got.append(count), read_bits(r, count))[1])
        decode_at(BitReader(data))
        monkeypatch.undo()
        assert got == reads
        _same_encoding(encode, ref.encode, mod, 16)
        _every_cut_and_bit_flip(data, step=7)

    @pytest.mark.parametrize("fmt", ["grouped", "indep"])
    def test_every_cut_and_bit_flip_fails_the_same_way(self, fmt):
        mod = _module(12, 3, 0.5, seed=4)
        data = (encode(mod, group_size=4) if fmt == "grouped"
                else encode_indep(mod)).data
        _every_cut_and_bit_flip(data)

    @pytest.mark.parametrize("n, c, b", [(12, 3, 3), (12, 1, 3),
                                         (512, 256, 15)])
    def test_every_cut_and_bit_flip_at_other_record_widths(self, n, c, b):
        # group size 3 leaves room for an intra index past the group, 1
        # has no index bits, and 256 at width 15 makes 24-bit records
        mod = _module(n, b, 0.5 if n < 100 else 3 / n, seed=4)
        _every_cut_and_bit_flip(encode(mod, group_size=c).data)


def _padding(enc) -> int:
    return 8 * len(enc.data) - HEADER_BITS - enc.payload_bits


def _survivors(n: int, count: int, seed: int) -> CompressedModule:
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(n, count, replace=False))
    return CompressedModule(n, support, rng.integers(0, 4, count), 2, 0.5,
                            0.25, 1.5)


EDGE_MASKS = {"clear": lambda n: np.zeros(0, np.int64),
              "set": lambda n: np.arange(n),
              "last": lambda n: np.array([n - 1])}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPadding:
    """Streams that end at every padding width, and bitmaps and masks at
    their edges, cut and flipped at every bit."""

    @pytest.mark.parametrize("pad", range(8))
    def test_grouped_at_every_padding_width(self, pad):
        # 12 elements in groups of 4 at width 2: 137 header bits, a 3-bit
        # bitmap, then 5 bits a record
        nnz = next(k for k in range(8) if -(140 + 5 * k) % 8 == pad)
        mod = _survivors(12, nnz, seed=pad)
        enc = encode(mod, group_size=4)
        assert _padding(enc) == pad
        _same_encoding(encode, ref.encode, mod, 4)
        _every_cut_and_bit_flip(enc.data)

    @pytest.mark.parametrize("pad", range(8))
    def test_indep_at_every_padding_width(self, pad):
        # width 2: 137 + 3 bits an element
        n = next(n for n in range(1, 9) if -(137 + 3 * n) % 8 == pad)
        mod = _survivors(n, (n + 1) // 2, seed=pad)
        enc = encode_indep(mod)
        assert _padding(enc) == pad
        _same_encoding(encode_indep, ref.encode_indep, mod)
        _every_cut_and_bit_flip(enc.data)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_dense_pads_seven_bits_at_any_length(self, n):
        # 137 + 32 n bits is one past a byte boundary, so no other width
        # occurs
        enc = encode_dense(_dense_values(n, n), 0.7)
        assert _padding(enc) == 7
        _every_cut_and_bit_flip(enc.data)

    @pytest.mark.parametrize("mask", sorted(EDGE_MASKS))
    def test_grouped_bitmap_edges(self, mask):
        # 13 groups of 3: the bitmap crosses a byte boundary, and index
        # bits can hold 3
        support = EDGE_MASKS[mask](39)
        mod = CompressedModule(39, support, support % 8, 3, 0.5, 0.25, 1.5)
        _same_encoding(encode, ref.encode, mod, 3)
        _every_cut_and_bit_flip(encode(mod, 3).data)

    @pytest.mark.parametrize("mask", sorted(EDGE_MASKS))
    def test_indep_mask_edges(self, mask):
        support = EDGE_MASKS[mask](13)
        mod = CompressedModule(13, support, support % 8, 3, 0.5, 0.25, 1.5)
        _same_encoding(encode_indep, ref.encode_indep, mod)
        _every_cut_and_bit_flip(encode_indep(mod).data)


def _bit_reads(data: bytes, pos: int = 0) -> int:
    """The bit-array reads decode_at makes: none on the one-integer path."""
    reads = []
    read_bits = BitReader.read_bits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BitReader, "read_bits", lambda r, count: (
            reads.append(count), read_bits(r, count))[1])
        decode_at(BitReader(data, pos))
    return len(reads)


def _quantized(n: int, support, b: int = 2) -> CompressedModule:
    support = np.asarray(support, dtype=np.int64)
    return CompressedModule(n, support, support % (1 << b), b, 0.5, 0.25, 1.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOneIntegerRead:
    """The edges of the decoder's one-integer path, each stream decoded on
    both paths against the old decoder."""

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("spread", ["one group", "one per group"])
    def test_grouped_at_the_read_cutoff(self, extra, spread):
        # past the cutoff, records of one group run out of the integer's
        # records, and one record a group flags too many groups
        count = READ_CUTOFF + extra
        c = 256 if spread == "one group" else 2
        support = np.arange(count) * (3 if c == 256 else c)
        enc = encode(_quantized(c * count, support), c)
        _same_outcome(enc.data)
        assert (_bit_reads(enc.data) == 0) == (extra == 0)
        _every_cut_and_bit_flip(enc.data, step=5)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_indep_at_the_read_cutoff(self, extra):
        enc = encode_indep(_quantized(READ_CUTOFF + 8,
                                      np.arange(READ_CUTOFF + extra)))
        _same_outcome(enc.data)
        assert (_bit_reads(enc.data) == 0) == (extra == 0)
        _every_cut_and_bit_flip(enc.data, step=3)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_at_the_integer_width_bound(self, extra):
        # a bitmap of SMALL_BITS groups or one more, and an INDEP payload
        # of SMALL_BITS bits at width 1 or the next length
        bits = codec.SMALL_BITS
        for enc in (encode(_quantized(bits + extra, [0, bits + extra - 1]), 1),
                    encode_indep(_quantized(bits // 2 + extra, [0, 7], b=1))):
            _same_outcome(enc.data)
            assert (_bit_reads(enc.data) == 0) == (extra == 0)

    def test_flipped_intra_field_reaching_the_group_size(self):
        # groups of 5 take 3 index bits: flipping the top one of the second
        # record's index 1 makes it 5
        mod = _quantized(20, [0, 1, 6, 7, 12])
        enc = encode(mod, 5)
        rec_w = codec.index_bits(5) + 2 + 1
        flip = HEADER_BITS + 4 + rec_w
        data = bytearray(enc.data)
        data[flip // 8] ^= 0x80 >> flip % 8
        want = _same_outcome(bytes(data))
        assert want == (codec.CorruptStreamError,
                        f"intra-group index 5 >= group size 5 (bit offset "
                        f"{flip})", flip)

    @pytest.mark.parametrize("record, want", [
        (0, "intra-group index 3 >= group size 3"),
        (1, "intra-group indices not strictly increasing")],
        ids=["index-past-group", "step-back"])
    def test_record_out_of_place_refused_by_the_scan(self, monkeypatch,
                                                     record, want):
        # groups of 3 take 2 index bits. Flipping the top one of the first
        # record's index 1 makes it 3, and of the second's index 2 makes it
        # 0, before the 1 of its group: the walk gives the module up, and
        # the scan reads it from its start and refuses it
        enc = encode(_quantized(12, [1, 2, 4]), 3)
        assert _bit_reads(enc.data) == 0
        flip = HEADER_BITS + 4 + record * (codec.index_bits(3) + 2 + 1)
        data = bytearray(enc.data)
        data[flip // 8] ^= 0x80 >> flip % 8
        calls = []
        for name in ("_grouped_int", "_decode_grouped"):
            monkeypatch.setattr(codec, name, lambda *args, f=getattr(
                codec, name), name=name: (calls.append(name), f(*args))[1])
        got = _outcome(decode_at, bytes(data))
        assert calls == ["_grouped_int", "_decode_grouped"]
        assert got == _outcome(ref.decode_at, bytes(data)) == (
            codec.CorruptStreamError, f"{want} (bit offset {flip})", flip)

    @pytest.mark.parametrize("fmt", ["grouped", "indep"])
    def test_zero_survivors(self, fmt):
        mod = _quantized(24, [])
        enc = encode(mod, 4) if fmt == "grouped" else encode_indep(mod)
        assert _same_outcome(enc.data).nnz == 0
        assert _bit_reads(enc.data) == 0
        _every_cut_and_bit_flip(enc.data)

    def test_module_followed_by_another(self):
        # the first module's integer of records runs on into the second
        # stream's bytes; both decode alike from their own offsets, cut
        # and flipped at every bit
        first = encode(_quantized(64, [3, 40]), 16).data
        second = encode_indep(_quantized(6, [1, 2, 5])).data
        data = first + second
        assert _same_outcome(data).bits_consumed == 8 * len(first)
        for at in (0, 8 * len(first)):
            for bit in range(8 * len(data)):
                flipped = bytearray(data)
                flipped[bit // 8] ^= 0x80 >> bit % 8
                _same_outcome(bytes(flipped), at)
            for cut in range(at // 8, len(data)):
                _same_outcome(data[:cut], at)

    @pytest.mark.parametrize("fmt", ["grouped", "indep"])
    def test_last_record_ends_in_the_last_byte(self, fmt):
        # 137 header bits, then a 3-bit bitmap and four 5-bit records, or
        # five 3-bit INDEP elements: 160 and 152 bits, no padding
        enc = (encode(_quantized(12, [0, 1, 5, 9]), 4) if fmt == "grouped"
               else encode_indep(_quantized(5, [0, 2, 4])))
        assert _padding(enc) == 0
        _same_outcome(enc.data)
        assert _bit_reads(enc.data) == 0
        _every_cut_and_bit_flip(enc.data)


# the counts a short header's length prefix changes at, a prime above the
# group cap (its one admissible group is 1) and the largest count
SHORT_COUNTS = sorted({1, 4099, *(1 << k for k in range(1, 27)),
                       *((1 << k) - 1 for k in range(2, 28))})


# the writers under the short spelling, where it is the shorter
SHORT_GROUPED = (partial(codec._grouped, short=True),
                 partial(ref.encode, short=True))
SHORT_INDEP = (partial(codec._indep, short=True),
               partial(ref.encode_indep, short=True))


class TestShortHeader:
    """The tag-3 header against the reference's per-bit writer and reader:
    the same bits, read back to the same header, and every stream that
    carries one cut and flipped at every bit."""

    @pytest.mark.parametrize("b", [1, 15])
    def test_header_round_trips(self, b):
        for n in SHORT_COUNTS:
            groups = ref.admissible_groups(n)
            for fmt, c in [(codec.Format.INDEP, 1),
                           *((codec.Format.GROUPED, c) for c in groups)]:
                header = codec.ModuleHeader(fmt, b, c, n, 0.5, 0.25, 1.5)
                word, bits = codec._head(header, short=True)
                want = ref._head_bits(header, short=True)
                data = np.packbits(want).tobytes()
                assert bits == want.size, header
                assert (word << -bits % 8).to_bytes(len(data), "big") == data
                index = (len(groups) - 1).bit_length() \
                    if fmt is codec.Format.GROUPED else 0
                short = 108 + n.bit_length() + index
                assert bits == (short if short < HEADER_BITS else HEADER_BITS)
                assert (data[0] >> 6 == codec.SHORT_TAG) == \
                    (bits < HEADER_BITS)
                for read in (codec._read_header, ref._read_header):
                    r = BitReader(data)
                    assert read(r) == header and r.pos == bits, header

    def test_spelling_lengths_at_the_edges(self):
        def bits(fmt, c, n):
            return codec._head(codec.ModuleHeader(fmt, 4, c, n, 1.0, 1.0,
                                                  1.0), short=True)[1]

        top = (1 << 27) - 1            # divisors up to 256: 1, 7 and 73
        assert bits(codec.Format.INDEP, 1, 1) == 109
        assert bits(codec.Format.INDEP, 1, top) == 135
        assert bits(codec.Format.GROUPED, 73, top) == HEADER_BITS  # a tie
        assert [bits(codec.Format.GROUPED, c, 512)
                for c in (1, 256)] == [122, 122]

    @pytest.mark.parametrize("b", [1, 15])
    def test_every_group_of_512(self, b):
        for c in ref.admissible_groups(512):
            for density in (0.0, "one", 0.05, 1.0):
                mod = _module(512, b, density, seed=c)
                _same_encoding(*SHORT_GROUPED, mod, c)
                assert (decode_at(BitReader(SHORT_GROUPED[0](mod, c).data))
                        .header_bits == 122)

    @pytest.mark.parametrize("n", [1, 3, 4, 255, 256, 4099])
    def test_short_streams_at_the_counts(self, n):
        for b in (1, 15):
            for density in (0.0, "one", 0.3):
                mod = _module(n, b, density, seed=n + b)
                _same_encoding(*SHORT_INDEP, mod)
                _same_encoding(*SHORT_GROUPED, mod,
                               ref.admissible_groups(n)[-1])
                _same_encoding(choose_format, ref.choose_format, mod)

    @pytest.mark.parametrize("fmt, n, support, c", [
        ("grouped", 512, [3, 4, 300], 16), ("grouped", 512, [], 256),
        ("grouped", 4096, [0, 4095], 256), ("grouped", 4099, [7], 1),
        ("grouped", 20, [0, 6, 7], 5), ("indep", 1, [0], 1),
        ("indep", 12, [1, 2, 11], 1)])
    def test_every_cut_and_bit_flip(self, fmt, n, support, c):
        # 512 and 4096 take 4 index bits for 9 groups, so an index can
        # point past them; 4099 takes none, and 20 takes 3 for its 6
        mod = _quantized(n, support)
        enc = (SHORT_GROUPED[0](mod, c) if fmt == "grouped"
               else SHORT_INDEP[0](mod))
        assert enc.data[0] >> 6 == codec.SHORT_TAG
        _same_outcome(enc.data)
        _every_cut_and_bit_flip(enc.data, step=1 if n < 1000 else 3)

    def test_choose_format_writes_the_shorter_header(self):
        mod = _quantized(512, [3, 4, 300])
        short = _same_outcome(choose_format(mod).data)
        long = _same_outcome(encode(mod).data)
        assert short.header == long.header
        assert (short.header_bits, long.header_bits) == (122, HEADER_BITS)
        assert short.payload_bits == long.payload_bits
        for field in ("support", "bins"):
            np.testing.assert_array_equal(getattr(short.module, field),
                                          getattr(long.module, field))


def _bad(support=(1, 2), bins=(0, 1), bit_width=2, range_neg=1.0,
         range_pos=1.0, length=8, scale=1.0):
    return CompressedModule(length, np.array(support, dtype=np.int64),
                            np.array(bins, dtype=np.int64), bit_width,
                            range_neg, range_pos, scale)


BAD_MODULES = [
    _bad(support=[3, 3]), _bad(support=[5, 2]), _bad(support=[-1, 2]),
    _bad(support=[2, 8]), _bad(support=[1, 2, 3]), _bad(bins=[0, 4]),
    _bad(bins=[-1, 0]), _bad([], [], bit_width=0), _bad([], [], bit_width=16),
    _bad([], [], range_neg=-1.0), _bad(range_neg=0.0, range_pos=0.0),
    _bad([], [], length=0), _bad(length=1 << 27), _bad(scale=float("nan")),
    _bad(range_neg=float("inf")), _bad(range_pos=float("-inf")),
    _bad(scale=1e300), _bad(range_neg=3.5e38), _bad(range_pos=1e39),
    _bad(support=[0, 1, 2, 3], bins=[0, 1, 2, 3], length=3),
]


class TestRefusals:
    """Refused on the one-integer path the modules take at the cutoff, and
    on the numpy path with the cutoff below every module."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mod", BAD_MODULES)
    def test_every_encoder_refuses_as_before(self, mod, monkeypatch):
        for cutoff in (CUTOFF, -1):
            monkeypatch.setattr(codec, "SMALL_SURVIVORS", cutoff)
            for new, old in ENCODERS:
                _same_encoding(new, old, mod)

    @pytest.mark.parametrize("length, c", [(10, 3), (10, 20), (10, 0),
                                           (514, 257), (8, -2)])
    def test_inadmissible_group_refused_as_before(self, length, c,
                                                  monkeypatch):
        for cutoff in (CUTOFF, -1):
            monkeypatch.setattr(codec, "SMALL_SURVIVORS", cutoff)
            _same_encoding(encode, ref.encode, _bad([], [], length=length),
                           c)
