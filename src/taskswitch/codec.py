"""Bit-exact serialization of masked quantized modules.

A CompressedModule (support positions and one bin index per position) is
what the grouped and independent encoders take and their decoder returns;
the dense format carries raw floats. All three share one fixed 137-bit
header (format tag 2, bit width 4, group-size-minus-1 8, element count 27,
then scale / range_neg / range_pos as IEEE-754 float32), packed and read
as one integer. Payloads:

  grouped   group-presence bitmap (n/c bits), then one record per nonzero in
            position order: intra-group index (ceil(log2 c) bits), bin index
            (b bits), end-of-group flag (1 bit), written and read as one
            field of at most 8 + 15 + 1 = 24 bits;
  indep     n mask bits followed by b bits per element, zeros included;
  dense     32-bit float32 per element, no quantization.

Bits are most-significant-first within each field, fields concatenated
in declaration order, streams zero-padded to a byte boundary. That order
is coded in two places. _fields and _values turn fields into bit arrays
and back through big-endian words of 16 bits, or 32 for a field wider
than 16. The one-integer paths shift fields into and out of Python
integers. A grouped record's layout, intra index above bin above flag,
is _record and _record_fields, which both paths share. The one-integer
encoders build the whole stream in one integer, which to_bytes writes
out once. They serve GROUPED and INDEP modules of at most
SMALL_SURVIVORS survivors: their steps are linear in the survivors,
where the numpy path pays a fixed cost of some thirty array calls a
module, and on modules of up to 16k elements the two cross near 56
survivors. Every padding bit is validated on decode, by one mask on the
byte that holds them, so a single flipped bit can never pass silently.

Decoding reads the stream's bytes in place. The one-integer decoder
mirrors the encoders for payloads of at most SMALL_RECORDS records or
survivors. A grouped bitmap of at most SMALL_BITS groups and the
SMALL_RECORDS records after it are read by one int.from_bytes; if the
records' end-of-group flags close every flagged group, the records are
walked with shifts until they do. An INDEP payload of at most SMALL_BITS
bits is one integer, its mask walked the same way. A walk costs some
0.3-0.5 us a record or survivor where numpy pays a fixed 14-22 us, and
at widths 1 to 15 the two cross near 32 grouped records and between 24
and 32 INDEP survivors. The path is chosen from
the header, the bitmap or mask and the flags alone; a module that does
not fit is read through numpy from its start, and both paths give the
same modules and the same refusals. Every other module goes through
numpy: a BitReader over a whole file unpacks only the bytes each read
covers into bits; a grouped module's bitmap and first records come in
one read. Masks (the grouped presence bitmap, the INDEP mask, the
records' end-of-group flags) are read as bool, so numpy finds their set
bits on its bool fast path. A dense payload is read as 32-bit words,
each cut from the big-endian 64 bits at its first byte past the one bit
the header leaves over a byte boundary, the way encode_dense writes it;
no dense payload is ever spread out one byte per bit, and it is checked
finite as float32, before it is widened.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .bitwidth import QuantSpec

HEADER_BITS = 137
NOMINAL_HEADER_BITS = 35     # n(27) + group size(8); scale is counted by +32
COUNT_BITS = 27
MAX_COUNT = 1 << COUNT_BITS
MAX_GROUP = 256
# GROUPED and INDEP modules with at most this many survivors are encoded as
# one Python integer, more through numpy: the measured crossover
SMALL_SURVIVORS = 56
# GROUPED modules with at most this many records and a bitmap of at most
# SMALL_BITS groups, and INDEP ones with at most this many survivors in a
# payload of at most SMALL_BITS bits, are decoded as Python integers, the
# rest through numpy: the measured crossovers
SMALL_RECORDS = 32
SMALL_BITS = 1024


class CodecError(ValueError):
    pass


class CapacityError(CodecError):
    pass


class CorruptStreamError(CodecError):
    def __init__(self, message: str, bit_offset: int):
        super().__init__(f"{message} (bit offset {bit_offset})")
        self.bit_offset = bit_offset


class Format(IntEnum):
    GROUPED = 0
    INDEP = 1
    DENSE = 2


class ModuleHeader(NamedTuple):
    fmt: Format
    bit_width: int       # 0 for DENSE, else 1..15
    group_size: int      # 1 unless GROUPED
    count: int
    scale: float         # float32-representable
    range_neg: float
    range_pos: float


@dataclass
class EncodedModule:
    data: bytes
    header: ModuleHeader
    payload_bits: int    # measured: bits written after the header
    nnz: int

    @property
    def file_bits(self) -> int:
        return len(self.data) * 8

    @property
    def nominal_bits(self) -> float:
        return nominal_bits(self.header.fmt, self.payload_bits)


@dataclass
class CompressedModule:
    """One hard-masked, single-width quantized module of a task vector.

    Trained modules, decoded bundle modules and binary switches (width 1,
    ranges 2.0, so the bin centers are exactly -1 and +1) all take this form.
    """

    length: int
    support: np.ndarray      # sorted positions of surviving weights
    bins: np.ndarray         # bin index per survivor
    bit_width: int
    range_neg: float         # float32-representable quantizer ranges
    range_pos: float
    scale: float             # softplus(scale logit) in float32, or switch knob

    @property
    def nnz(self) -> int:
        return int(self.support.size)

    @property
    def size(self) -> int:   # the element count, as on a flat array
        return self.length

    @property
    def sparsity(self) -> float:
        return 1.0 - self.nnz / self.length

    def quant_spec(self) -> QuantSpec:
        return QuantSpec(self.bit_width, self.range_neg, self.range_pos)

    def center_values(self) -> np.ndarray:
        """Full-length unscaled vector: bin centers on the support, else 0."""
        out = np.zeros(self.length)
        if self.nnz:
            out[self.support] = self.quant_spec().centers()[self.bins]
        return out

    def final_values(self) -> np.ndarray:
        return self.scale * self.center_values()

    @cached_property
    def values(self) -> np.ndarray:
        """Scaled values on the support, computed once per module."""
        return self.scale * self.quant_spec().centers()[self.bins]


@dataclass
class DecodedModule:
    header: ModuleHeader
    module: CompressedModule | None  # GROUPED and INDEP streams
    values: np.ndarray | None        # raw floats of a DENSE stream
    payload_bits: int
    bits_consumed: int   # header + payload + padding, a multiple of 8

    @property
    def nnz(self) -> int:
        if self.module is not None:
            return self.module.nnz
        return int(np.count_nonzero(self.values))

    def final_values(self) -> np.ndarray:
        """Full-length scaled values, whatever the format."""
        if self.module is not None:
            return self.module.final_values()
        return self.values * self.header.scale


def nominal_bits(fmt: Format, payload_bits: int) -> float:
    """Size accounting used for format comparison (header-as-35 for grouped)."""
    if fmt == Format.GROUPED:
        return NOMINAL_HEADER_BITS + payload_bits
    return float(payload_bits)


def index_bits(group_size: int) -> int:
    return (group_size - 1).bit_length()


def expected_bits(n: int, c: int, alpha: float, b: int) -> float:
    """Expected grouped-format size: 35 + n/c + n(1-alpha)(ceil(log2 c)+b+1)."""
    return NOMINAL_HEADER_BITS + n / c + n * (1.0 - alpha) * (index_bits(c) + b + 1)


@lru_cache(maxsize=1024)
def _divisors(n: int) -> tuple[int, ...]:
    """Divisors of n not exceeding the group cap, ascending."""
    return tuple(c for c in range(1, min(n, MAX_GROUP) + 1) if n % c == 0)


def optimal_group(n: int, alpha: float) -> int:
    """Group size minimizing expected_bits over the admissible divisors.

    Ties go to the smaller size. The b term is constant across candidates
    so the choice is bit-width independent. alpha = 1 degenerates to the
    largest admissible divisor (the bitmap is all that remains).
    """
    if n < 1:
        raise CapacityError(f"element count must be positive, got {n}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    best_c, best_cost = None, math.inf
    for c in _divisors(n):
        cost = expected_bits(n, c, alpha, 1)
        if cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


def indep_bits(n: int, b: int) -> int:
    return (b + 1) * n


def _word(nbits: int) -> int:
    """Bits in the big-endian word a field of nbits (at most 32) sits in."""
    return 16 if nbits <= 16 else 32


def _fields(values, nbits: int) -> np.ndarray:
    """(m, nbits) bit matrix of values below 2**nbits, most significant bit
    first: the tail of each value's big-endian word, unpacked."""
    w = _word(nbits)
    words = np.asarray(values).astype(f">u{w // 8}")
    return np.unpackbits(words.view(np.uint8)).reshape(-1, w)[:, w - nbits:]


def _values(bits: np.ndarray) -> np.ndarray:
    """Inverse of _fields: one value per row of an (m, nbits) bit matrix,
    packed as the row left-padded to a big-endian word."""
    m, nbits = bits.shape
    w = _word(nbits)
    padded = np.zeros((m, w), dtype=np.uint8)
    padded[:, w - nbits:] = bits
    return np.packbits(padded).view(f">u{w // 8}").astype(np.int64)


class BitReader:
    """MSB-first reader over bytes; each read unpacks only what it covers."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos       # in bits

    @property
    def remaining(self) -> int:
        return 8 * len(self.data) - self.pos

    def read_bits(self, count: int) -> np.ndarray:
        if count > self.remaining:
            raise CorruptStreamError("truncated stream", self.pos)
        lo, skip = divmod(self.pos, 8)
        nbytes = (skip + count + 7) // 8
        bits = np.unpackbits(np.frombuffer(self.data, np.uint8, nbytes, lo))
        self.pos += count
        return bits[skip:skip + count]

    def read_int(self, count: int) -> int:
        """The next count bits as one integer, most significant bit first."""
        if count > self.remaining:
            raise CorruptStreamError("truncated stream", self.pos)
        end = self.pos + count
        word = int.from_bytes(self.data[self.pos // 8:(end + 7) // 8], "big")
        self.pos = end
        return word >> -end % 8 & (1 << count) - 1

    def read_words(self, count: int) -> np.ndarray:
        """count big-endian 32-bit words as uint32, from any bit offset."""
        if 32 * count > self.remaining:
            raise CorruptStreamError("truncated stream", self.pos)
        lo, skip = divmod(self.pos, 8)
        self.pos += 32 * count
        if not skip or not count:
            return np.frombuffer(self.data, ">u4", count, lo).astype(np.uint32)
        # word i is the low half of the big-endian 64 bits at byte lo + 4i
        # shifted right by 32 - skip, read through one view of overlapping
        # 64-bit words. The last word's 64 bits could run past the byte
        # after the words, the last one sure to exist, so it is read from
        # its five bytes
        words = np.empty(count, dtype=np.uint32)
        pairs = np.ndarray((count - 1,), ">u8", self.data, lo, (4,))
        np.right_shift(pairs, 32 - skip, out=words[:-1], casting="unsafe")
        tail = lo + 4 * count - 4
        words[-1] = int.from_bytes(self.data[tail:tail + 5], "big") \
            >> 8 - skip & 0xFFFFFFFF
        return words


def _check_header(h: ModuleHeader, at: int | None = None) -> None:
    """The one header rule of encoders (CodecError, CapacityError for the
    count) and the decoder (CorruptStreamError at the header's offset)."""
    def fail(message, error=CodecError):
        raise error(message) if at is None else CorruptStreamError(message, at)

    fmt, b, c, n, scale, neg, pos = h
    if not 1 <= n < MAX_COUNT:
        fail(f"element count {n} outside [1, {MAX_COUNT})", CapacityError)
    if not (math.isfinite(scale) and math.isfinite(neg)
            and math.isfinite(pos)):
        name = next(name for name, v in zip(h._fields[4:], h[4:])
                    if not math.isfinite(v))
        fail(f"non-finite header field {name}")
    if fmt is Format.DENSE:
        if b or neg or pos:
            fail("dense header carries quantizer fields")
    elif not 1 <= b <= 15 or neg < 0.0 or pos < 0.0:
        fail(f"no quantizer of width {b}, ranges {neg}, {pos}")
    if not 1 <= c <= MAX_GROUP or n % c or c > 1 and fmt is not Format.GROUPED:
        fail(f"group size {c} must divide {n}, in a grouped stream only")


_FORMATS = tuple(Format)
_FLOATS = struct.Struct(">3f")


def _header_int(header: ModuleHeader) -> int:
    """The 137 header bits as one integer: format tag (2), bit width (4),
    group size minus 1 (8) and count (27), then the three float32 fields."""
    ints = ((header.fmt << 4 | header.bit_width) << 8
            | header.group_size - 1) << COUNT_BITS | header.count
    return ints << 96 | int.from_bytes(_FLOATS.pack(
        header.scale, header.range_neg, header.range_pos), "big")


def _header_bytes(header: ModuleHeader) -> bytes:
    """The header as the top 137 bits of 18 bytes, the last 7 bits zero."""
    return (_header_int(header) << 7).to_bytes(18, "big")


def _pack(header: ModuleHeader, nnz: int,
          *payload: np.ndarray) -> EncodedModule:
    """Header then payload bits, zero-padded to a byte boundary; each bit
    array is copied once, into its place in the stream's bits."""
    at = HEADER_BITS
    bits = np.empty(at + sum(p.size for p in payload), dtype=np.uint8)
    bits[:at] = np.unpackbits(np.frombuffer(_header_bytes(header), np.uint8),
                              count=at)
    for p in payload:
        bits[at:at + p.size].reshape(p.shape)[...] = p
        at += p.size
    return EncodedModule(np.packbits(bits).tobytes(), header,
                         at - HEADER_BITS, nnz)


def _pack_int(header: ModuleHeader, nnz: int, payload: int,
              payload_bits: int) -> EncodedModule:
    """Header then a payload of payload_bits held in one integer, most
    significant bit first, zero-padded to a byte boundary."""
    pad = -(HEADER_BITS + payload_bits) % 8
    word = (_header_int(header) << payload_bits | payload) << pad
    return EncodedModule(word.to_bytes((HEADER_BITS + payload_bits + pad)
                                       // 8, "big"), header, payload_bits, nnz)


def _read_header(r: BitReader) -> ModuleHeader:
    start = r.pos
    if r.remaining < HEADER_BITS:
        raise CorruptStreamError("truncated stream", start)
    # streams start on a byte boundary: the header is the top 137 of 18 bytes
    word = int.from_bytes(r.data[start // 8:start // 8 + 18], "big") >> 7
    r.pos = start + HEADER_BITS
    ints = word >> 96
    tag = ints >> 39
    if tag >= len(_FORMATS):
        raise CorruptStreamError(f"unknown format tag {tag}", start)
    header = ModuleHeader(_FORMATS[tag], ints >> 35 & 0xF,
                          (ints >> COUNT_BITS & 0xFF) + 1,
                          ints & (MAX_COUNT - 1), *_FLOATS.unpack(
                              (word & (1 << 96) - 1).to_bytes(12, "big")))
    _check_header(header, start)
    return header


def _float32(v: float) -> float:
    """v rounded to float32 as numpy rounds it, but with no warning: past
    float32's range struct refuses it, and it becomes the inf that
    _check_header refuses as a header field."""
    try:
        return struct.unpack(">f", struct.pack(">f", v))[0]
    except OverflowError:
        return math.copysign(math.inf, v)


def _module_header(module: CompressedModule, fmt: Format,
                   group_size: int = 1) -> tuple:
    """The stream header of a module, then its support and bins once they
    are found sound: as lists when there are at most SMALL_SURVIVORS of
    them, else as the module's arrays."""
    n, b, support, bins = (module.length, module.bit_width, module.support,
                           module.bins)
    floats = module.scale, module.range_neg, module.range_pos
    try:                # one round trip unless one is past float32's range
        floats = _FLOATS.unpack(_FLOATS.pack(*floats))
    except OverflowError:
        floats = tuple(map(_float32, floats))
    header = ModuleHeader(fmt, b, group_size, n, *floats)
    _check_header(header)
    if support.ndim != 1 or bins.shape != support.shape:
        raise CodecError(f"{bins.size} bins for {support.size} positions")
    if support.size <= SMALL_SURVIVORS:
        support, bins = support.tolist(), bins.tolist()
    if not len(support):
        return header, support, bins
    if header.range_neg + header.range_pos == 0.0:
        raise CodecError("degenerate quantizer cannot carry survivors")
    if isinstance(support, list):
        unsorted = any(map(operator.ge, support, support[1:]))
        low, high = min(bins), max(bins)
    else:
        unsorted = (support[1:] <= support[:-1]).any()
        low, high = bins.min(), bins.max()
    if support[0] < 0 or support[-1] >= n or unsorted:
        raise CodecError(f"support not strictly increasing in [0, {n})")
    if low < 0 or high >= 1 << b:
        raise CodecError(f"bin index outside [0, {1 << b})")
    return header, support, bins


def encode(module: CompressedModule,
           group_size: int | None = None) -> EncodedModule:
    """Grouped-format encoding of a module's support and bins.

    Each record is one field, intra-group index, bin and end-of-group flag
    packed into one integer. A module of at most SMALL_SURVIVORS survivors
    builds its whole stream as one Python integer, in steps linear in the
    survivors; a larger one builds bit arrays through numpy.
    """
    n, nnz = module.length, module.nnz
    if group_size is not None:
        c = int(group_size)
    elif 1 <= n and nnz <= n:
        c = optimal_group(n, 1.0 - nnz / n)
    else:
        c = 1                          # refused by _module_header
    header, support, bins = _module_header(module, Format.GROUPED, c)
    b, groups = header.bit_width, n // c
    rec_w = index_bits(c) + b + 1
    if isinstance(support, list):      # few survivors: one integer
        bitmap = records = 0
        last = -1
        for pos, v in zip(support, bins):
            group = pos // c
            if group != last:
                bitmap |= 1 << groups - 1 - group
                records |= last >= 0   # the end flag of the group before
                last = group
            records = records << rec_w | _record(pos - group * c, v, b)
        records |= last >= 0           # and of the last group
        return _pack_int(header, nnz, bitmap << nnz * rec_w | records,
                         groups + nnz * rec_w)
    group_id = support // c
    group_any = np.zeros(groups, dtype=np.uint8)
    group_any[group_id] = 1
    intra = (support - group_id * c).astype(np.int64, copy=False)
    rec = _record(intra, bins, b)
    rec[:-1] |= group_id[1:] != group_id[:-1]    # end-of-group flags
    rec[-1:] |= 1
    return _pack(header, nnz, group_any, _fields(rec, rec_w))


def encode_indep(module: CompressedModule) -> EncodedModule:
    """Mask-plus-fixed-width encoding: exactly (b+1)*n payload bits, built
    as one Python integer up to SMALL_SURVIVORS survivors, as encode does."""
    header, support, bins = _module_header(module, Format.INDEP)
    n, b = header.count, header.bit_width
    if isinstance(support, list):      # few survivors: one integer
        mask = values = 0
        for pos, v in zip(support, bins):
            mask |= 1 << n - 1 - pos
            values |= v << b * (n - 1 - pos)
        return _pack_int(header, module.nnz, mask << n * b | values,
                         n * (b + 1))
    mask = np.zeros(n, dtype=np.uint8)
    mask[support] = 1
    all_bins = np.zeros(n, dtype=np.int64)
    all_bins[support] = bins
    return _pack(header, module.nnz, mask, _fields(all_bins, b))


def encode_dense(values: np.ndarray, scale: float = 1.0) -> EncodedModule:
    """Raw float32 storage; rounds the input to float32 precision.

    The payload is the float32 words shifted right by the one bit the
    header leaves in its last byte (137 = 17 * 8 + 1): each word keeps
    its top 31 bits and lends its lowest to the top of the next, the last
    one's to the padding byte.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    header = ModuleHeader(Format.DENSE, 0, 1, values.size, _float32(scale),
                          0.0, 0.0)
    _check_header(header)
    with np.errstate(over="ignore"):   # tested as decode_at tests them
        stored = values.astype(np.float32)
    if not np.isfinite(stored).all():
        raise CodecError("dense values must be finite in float32")
    words = stored.view(np.uint32)
    # what decode counts: the shift drops the sign, so -0.0 is zero too
    nnz = int(np.count_nonzero(words << 1))
    head = _header_bytes(header)
    shifted = np.empty(words.size + 1, dtype=">u4")
    shifted[0] = head[17] >> 7 << 31   # the header's last bit
    np.left_shift(words, 31, out=shifted[1:])
    words >>= 1
    shifted[:-1] |= words
    payload = shifted.view(np.uint8)[:4 * words.size + 1]
    return EncodedModule(b"".join((head[:17], payload)), header,
                         32 * words.size, nnz)


def choose_format(module: CompressedModule) -> EncodedModule:
    """Grouped or independent encoding, whichever is smaller by nominal
    size (ties go to grouped). Dense never wins: (b+1)*n < 32*n for b <= 15.
    """
    n, nnz, b = module.length, module.nnz, module.bit_width
    c = optimal_group(n, 1.0 - nnz / max(n, 1))   # n < 1: CapacityError
    grouped_cost = NOMINAL_HEADER_BITS + n // c + nnz * (index_bits(c) + b + 1)
    if grouped_cost <= indep_bits(n, b):
        return encode(module, group_size=c)
    return encode_indep(module)


def decode_at(reader: BitReader) -> DecodedModule:
    """Decode one module stream starting at the reader's (byte-aligned) head."""
    start = reader.pos
    if start % 8 != 0:
        raise CodecError("module streams must start on a byte boundary")
    header = _read_header(reader)
    payload_start = reader.pos
    n = header.count
    if header.fmt == Format.DENSE:
        stored = reader.read_words(n).view(np.float32)
        with np.errstate(invalid="ignore"):  # corrupt bits may form sNaN
            if not np.isfinite(stored).all():
                raise CorruptStreamError("non-finite dense payload",
                                         payload_start)
        values = stored.astype(np.float64)
        module = None
    else:
        if header.fmt == Format.INDEP:
            support, bins = (_indep_int(reader, header)
                             or _decode_indep(reader, header))
        else:
            support, bins = (_grouped_int(reader, header)
                             or _decode_grouped(reader, header))
        module = CompressedModule(n, support, bins, header.bit_width,
                                  header.range_neg, header.range_pos,
                                  header.scale)
        values = None
    payload_bits = reader.pos - payload_start
    # the padding is the low bits of the byte holding the payload's last bit
    pad = (start - reader.pos) % 8
    if pad and reader.data[reader.pos // 8] & (1 << pad) - 1:
        raise CorruptStreamError("nonzero padding bits", reader.pos)
    reader.pos += pad
    return DecodedModule(header, module, values, payload_bits,
                         reader.pos - start)


def _record(intra, bin_, b: int):
    """A grouped record without its end-of-group flag: the intra-group index
    above the b-bit bin above the flag bit, for ints and int arrays alike."""
    return (intra << b | bin_) << 1


def _record_fields(rec, b: int):
    """The intra-group index and bin of records laid out by _record."""
    return rec >> b + 1, rec >> 1 & (1 << b) - 1


def _set_positions(mask: int, width: int) -> list[int]:
    """Ascending positions of the set bits of a width-bit mask, position 0
    its most significant bit."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        mask ^= 1 << top
        out.append(width - 1 - top)
    return out


@lru_cache(maxsize=1024)
def _flag_bits(count: int, rec_w: int) -> int:
    """The end-of-group flag bits of count records of rec_w bits, set."""
    return ((1 << count * rec_w) - 1) // ((1 << rec_w) - 1)


def _int64(support: list[int], bins: list[int]):
    """Support and bins as int64 arrays, the two rows of one."""
    both = np.array((support, bins), dtype=np.int64)
    return both[0], both[1]


def _indep_int(reader: BitReader, header: ModuleHeader):
    """An INDEP payload of at most SMALL_BITS bits and SMALL_RECORDS
    survivors, read as one integer; else None, the reader unmoved."""
    n, b = header.count, header.bit_width
    size = n * (b + 1)
    if size > SMALL_BITS or size > reader.remaining:
        return None
    start = reader.pos
    word = reader.read_int(size)
    mask = word >> n * b
    if mask.bit_count() > SMALL_RECORDS:
        reader.pos = start
        return None
    support = _set_positions(mask, n)
    bin_mask = (1 << b) - 1
    return _int64(support, [word >> b * (n - 1 - pos) & bin_mask
                            for pos in support])


def _grouped_int(reader: BitReader, header: ModuleHeader):
    """A grouped payload with a bitmap of at most SMALL_BITS groups, read
    with its next SMALL_RECORDS records as one integer; else None, the
    reader unmoved, when its groups do not close within those records."""
    n, c, b = header.count, header.group_size, header.bit_width
    groups, rec_w = n // c, index_bits(c) + b + 1
    take = min(SMALL_RECORDS, (reader.remaining - groups) // rec_w)
    if groups > SMALL_BITS or take < 0:
        return None
    start = reader.pos
    records_start = start + groups
    word = reader.read_int(groups + take * rec_w)
    bitmap = word >> take * rec_w
    flagged = bitmap.bit_count()
    if flagged > take or \
            (word & _flag_bits(take, rec_w)).bit_count() < flagged:
        reader.pos = start     # the groups do not close in these records
        return None
    if not flagged:
        reader.pos = records_start
        return _int64([], [])
    flagged_groups = _set_positions(bitmap, groups)
    rec_mask, top = (1 << rec_w) - 1, (take - 1) * rec_w
    support, bins = [], []
    add_pos, add_bin = support.append, bins.append
    bad = back = None
    g, last = 0, -1
    first = flagged_groups[0] * c
    end = first + c
    for at in range(top, -1, -rec_w):
        rec = word >> at & rec_mask
        intra, v = _record_fields(rec, b)
        pos = first + intra
        if not last < pos < end:
            i = (top - at) // rec_w
            if intra >= c and bad is None:
                bad = i, intra
            if pos <= last and back is None:
                back = i
        add_pos(pos)
        add_bin(v)
        last = pos
        if rec & 1:            # the end of this group
            g += 1
            if g == flagged:
                break
            first = flagged_groups[g] * c
            end = first + c
    # the numpy scan's refusals, in its order
    if bad is not None:
        raise CorruptStreamError(f"intra-group index {bad[1]} >= group "
                                 f"size {c}", records_start + bad[0] * rec_w)
    if back is not None:
        raise CorruptStreamError("intra-group indices not strictly increasing",
                                 records_start + back * rec_w)
    reader.pos = records_start + len(support) * rec_w
    return _int64(support, bins)


def _decode_indep(reader: BitReader, header: ModuleHeader):
    n, b = header.count, header.bit_width
    support = reader.read_bits(n).view(bool).nonzero()[0]
    return support, _values(reader.read_bits(n * b).reshape(n, b)[support])


def _decode_grouped(reader: BitReader, header: ModuleHeader):
    n, c, b = header.count, header.group_size, header.bit_width
    groups, rec_w = n // c, index_bits(c) + b + 1
    records_start = reader.pos + groups
    max_records = max(0, (reader.remaining - groups) // rec_w)
    # the bitmap and the first 64 records come in one read; a small module
    # needs no other
    take = min(64, max_records)
    bits = reader.read_bits(groups + take * rec_w)
    flagged = bits[:groups].view(bool).nonzero()[0]
    if flagged.size == 0:
        reader.pos = records_start
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    bits = bits[groups:]
    # Records are flag-terminated; scan in growing chunks until every
    # flagged group has closed. A first chunk longer than the records
    # read is read again from the first record (measured no slower than
    # appending to them, which copies them all).
    chunk, parsed, closed = max(64, 2 * flagged.size), 0, 0
    if min(chunk, max_records) > take:
        take = min(chunk, max_records)
        reader.pos = records_start
        bits = reader.read_bits(take * rec_w)
    recs, ends = [], []            # per chunk: records, flagged rows
    while True:
        if take <= 0:
            raise CorruptStreamError("records exhausted before all groups "
                                     "closed", 8 * len(reader.data))
        bits = bits.reshape(take, rec_w)
        recs.append(_values(bits))
        ends.append(bits[:, -1].view(bool).nonzero()[0] + parsed)
        closed += ends[-1].size
        parsed += take
        if closed >= flagged.size:
            break
        chunk *= 2
        take = min(chunk, max_records - parsed)
        if take > 0:
            bits = reader.read_bits(take * rec_w)
    rec, ends = ((recs[0], ends[0]) if len(recs) == 1
                 else (np.concatenate(recs), np.concatenate(ends)))
    ends = ends[:flagged.size]     # the record closing each group
    n_records = int(ends[-1]) + 1
    rec = rec[:n_records]
    reader.pos = records_start + n_records * rec_w
    intra, bins = _record_fields(rec, b)
    if c & c - 1:                  # index bits can hold c and more
        over = intra >= c
        if over.any():
            bad = int(over.argmax())
            raise CorruptStreamError(f"intra-group index {int(intra[bad])} "
                                     f">= group size {c}",
                                     records_start + bad * rec_w)
    per_group = ends.copy()        # records in each group
    per_group[1:] -= ends[:-1]
    per_group[0] += 1
    support = (flagged * c).repeat(per_group) + intra
    # each group starts past every position of the one before, so the
    # positions can fall back only between indices of one group
    back = support[1:] <= support[:-1]
    if back.any():
        raise CorruptStreamError("intra-group indices not strictly increasing",
                                 records_start + (int(back.argmax()) + 1)
                                 * rec_w)
    return support, bins


def decode(data: bytes) -> DecodedModule:
    """Decode a standalone single-module stream, rejecting trailing bytes."""
    reader = BitReader(data)
    out = decode_at(reader)
    if reader.remaining:
        raise CorruptStreamError("trailing bytes after module", reader.pos)
    return out
