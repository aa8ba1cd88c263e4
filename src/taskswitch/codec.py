"""Bit-exact serialization of masked quantized modules.

A CompressedModule (support positions and one bin index per position) is
what the grouped and independent encoders take and their decoder returns;
the dense format carries raw floats. All three share one fixed 137-bit
header (format tag 2, bit width 4, group-size-minus-1 8, element count 27,
then scale / range_neg / range_pos as IEEE-754 float32), packed and read
as one integer. Payloads:

  grouped   group-presence bitmap (n/c bits), then one record per nonzero in
            position order: intra-group index (ceil(log2 c) bits), bin index
            (b bits), end-of-group flag (1 bit);
  indep     n mask bits followed by b bits per element, zeros included;
  dense     32-bit float32 per element, no quantization.

Bits are most-significant-first within each field (_fields and _values
are the one place that order is coded, through big-endian 16-bit words:
no field is wider than 15 bits), fields concatenated in declaration
order, streams zero-padded to a byte boundary. Every padding bit is
validated on decode so a single flipped bit can never pass silently.
Decoding reads the stream's bytes in place: a BitReader over a whole file
unpacks only the bytes each read covers into bits, and reads a dense
payload as 32-bit words, each shifted back by the one bit the header
leaves over a byte boundary, the way encode_dense writes it; no dense
payload is ever spread out one byte per bit.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import cached_property

import numpy as np

from .bitwidth import QuantSpec

HEADER_BITS = 137
NOMINAL_HEADER_BITS = 35     # n(27) + group size(8); scale is counted by +32
COUNT_BITS = 27
MAX_COUNT = 1 << COUNT_BITS
MAX_GROUP = 256


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


@dataclass(frozen=True)
class ModuleHeader:
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


def admissible_groups(n: int) -> list[int]:
    """Divisors of n not exceeding the group cap, ascending."""
    return [c for c in range(1, min(n, MAX_GROUP) + 1) if n % c == 0]


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
    for c in admissible_groups(n):
        cost = expected_bits(n, c, alpha, 1)
        if cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


def indep_bits(n: int, b: int) -> int:
    return (b + 1) * n


def _fields(values, nbits: int) -> np.ndarray:
    """(m, nbits) bit matrix of values below 2**15, most significant bit
    first: the tail of each value's big-endian 16-bit word, unpacked."""
    words = np.asarray(values).astype(">u2")
    return np.unpackbits(words.view(np.uint8)).reshape(-1, 16)[:, 16 - nbits:]


def _values(bits: np.ndarray) -> np.ndarray:
    """Inverse of _fields: one value per row of an (m, nbits) bit matrix,
    packed as the row left-padded to a big-endian 16-bit word."""
    m, nbits = bits.shape
    padded = np.zeros((m, 16), dtype=np.uint8)
    padded[:, 16 - nbits:] = bits
    return np.packbits(padded).view(">u2").astype(np.int64)


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

    def read_words(self, count: int) -> np.ndarray:
        """count big-endian 32-bit words as uint32, from any bit offset."""
        if 32 * count > self.remaining:
            raise CorruptStreamError("truncated stream", self.pos)
        lo, skip = divmod(self.pos, 8)
        words = np.frombuffer(self.data, ">u4", count, lo).astype(np.uint32)
        self.pos += 32 * count
        if skip and count:
            # each word takes its low bits from the top of the next one;
            # the last word's come from the byte after the words
            low = words[1:] >> (32 - skip)
            words <<= skip
            words[:-1] |= low
            words[-1] |= self.data[lo + 4 * count] >> (8 - skip)
        return words


def _check_header(h: ModuleHeader, at: int | None = None) -> None:
    """The one header rule of encoders (CodecError, CapacityError for the
    count) and the decoder (CorruptStreamError at the header's offset)."""
    def fail(message, error=CodecError):
        raise error(message) if at is None else CorruptStreamError(message, at)

    n, b, c = h.count, h.bit_width, h.group_size
    if not 1 <= n < MAX_COUNT:
        fail(f"element count {n} outside [1, {MAX_COUNT})", CapacityError)
    for name in ("scale", "range_neg", "range_pos"):
        if not math.isfinite(getattr(h, name)):
            fail(f"non-finite header field {name}")
    if h.fmt == Format.DENSE:
        if b or h.range_neg or h.range_pos:
            fail("dense header carries quantizer fields")
    elif not 1 <= b <= 15 or min(h.range_neg, h.range_pos) < 0.0:
        fail(f"no quantizer of width {b}, ranges {h.range_neg}, "
             f"{h.range_pos}")
    if not 1 <= c <= MAX_GROUP or n % c or c > 1 and h.fmt != Format.GROUPED:
        fail(f"group size {c} must divide {n}, in a grouped stream only")


def _header_bytes(header: ModuleHeader) -> bytes:
    """The header as the top 137 bits of 18 bytes, the last 7 bits zero.

    The header is one integer: format tag (2), bit width (4), group size
    minus 1 (8) and count (27), then the three float32 fields.
    """
    ints = ((header.fmt << 4 | header.bit_width) << 8
            | header.group_size - 1) << COUNT_BITS | header.count
    floats = struct.pack(">3f", header.scale, header.range_neg,
                         header.range_pos)
    word = (ints << 96 | int.from_bytes(floats, "big")) << 7
    return word.to_bytes(18, "big")


def _pack(header: ModuleHeader, nnz: int,
          *payload: np.ndarray) -> EncodedModule:
    """Header then payload bits, zero-padded to a byte boundary."""
    head = np.unpackbits(np.frombuffer(_header_bytes(header), np.uint8))
    bits = [p.reshape(-1) for p in payload]
    data = np.packbits(np.concatenate([head[:HEADER_BITS], *bits]))
    return EncodedModule(data.tobytes(), header, sum(b.size for b in bits),
                         nnz)


def _read_header(r: BitReader) -> ModuleHeader:
    start = r.pos
    if r.remaining < HEADER_BITS:
        raise CorruptStreamError("truncated stream", start)
    # streams start on a byte boundary: the header is the top 137 of 18 bytes
    word = int.from_bytes(r.data[start // 8:start // 8 + 18], "big") >> 7
    r.pos += HEADER_BITS
    ints = word >> 96
    tag, b = ints >> 39, ints >> 35 & 0xF
    cfield, n = ints >> COUNT_BITS & 0xFF, ints & (MAX_COUNT - 1)
    if tag not in (0, 1, 2):
        raise CorruptStreamError(f"unknown format tag {tag}", start)
    header = ModuleHeader(Format(tag), b, cfield + 1, n, *struct.unpack(
        ">3f", (word & ((1 << 96) - 1)).to_bytes(12, "big")))
    _check_header(header, start)
    return header


def _module_header(module: CompressedModule, fmt: Format) -> ModuleHeader:
    """The stream header of a module whose support and bins are sound."""
    n, b, support, bins = (module.length, module.bit_width, module.support,
                           module.bins)
    with np.errstate(over="ignore"):   # past float32's range: refused below
        scale, rn, rp = (float(np.float32(v)) for v in (
            module.scale, module.range_neg, module.range_pos))
    header = ModuleHeader(fmt, b, 1, n, scale, rn, rp)
    _check_header(header)
    if support.ndim != 1 or bins.shape != support.shape:
        raise CodecError(f"{bins.size} bins for {support.size} positions")
    if support.size:
        if rn + rp == 0.0:
            raise CodecError("degenerate quantizer cannot carry survivors")
        if (support[0] < 0 or support[-1] >= n
                or np.any(support[1:] <= support[:-1])):
            raise CodecError(f"support not strictly increasing in [0, {n})")
        if bins.min() < 0 or bins.max() >= 1 << b:
            raise CodecError(f"bin index outside [0, {1 << b})")
    return header


def encode(module: CompressedModule,
           group_size: int | None = None) -> EncodedModule:
    """Grouped-format encoding of a module's support and bins."""
    header = _module_header(module, Format.GROUPED)
    n, nnz, support = module.length, module.nnz, module.support
    c = optimal_group(n, 1.0 - nnz / n) if group_size is None \
        else int(group_size)
    header = replace(header, group_size=c)
    _check_header(header)
    group_id = support // c
    group_any = np.zeros(n // c, dtype=np.uint8)
    group_any[group_id] = 1
    flags = np.ones((nnz, 1), dtype=np.uint8)
    flags[:-1, 0] = group_id[1:] != group_id[:-1]
    rec = np.hstack([_fields(support % c, index_bits(c)),
                     _fields(module.bins, header.bit_width), flags])
    return _pack(header, nnz, group_any, rec)


def encode_indep(module: CompressedModule) -> EncodedModule:
    """Mask-plus-fixed-width encoding: exactly (b+1)*n payload bits."""
    header = _module_header(module, Format.INDEP)
    mask = np.zeros(header.count, dtype=np.uint8)
    mask[module.support] = 1
    all_bins = np.zeros(header.count, dtype=np.int64)
    all_bins[module.support] = module.bins
    return _pack(header, module.nnz, mask,
                 _fields(all_bins, header.bit_width))


def encode_dense(values: np.ndarray, scale: float = 1.0) -> EncodedModule:
    """Raw float32 storage; rounds the input to float32 precision.

    The payload is the float32 words shifted right by the one bit the
    header leaves in its last byte (137 = 17 * 8 + 1): each word keeps
    its top 31 bits and lends its lowest to the top of the next, the last
    one's to the padding byte.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    header = ModuleHeader(Format.DENSE, 0, 1, values.size,
                          float(np.float32(scale)), 0.0, 0.0)
    _check_header(header)
    with np.errstate(over="ignore"):   # tested as decode_at tests them
        stored = values.astype(np.float32)
    if not np.all(np.isfinite(stored)):
        raise CodecError("dense values must be finite in float32")
    words = stored.view(np.uint32)
    head = _header_bytes(header)
    shifted = np.empty(words.size + 1, dtype=">u4")
    shifted[0] = head[17] >> 7 << 31   # the header's last bit
    np.left_shift(words, 31, out=shifted[1:])
    words >>= 1
    shifted[:-1] |= words
    payload = shifted.view(np.uint8)[:4 * words.size + 1]
    return EncodedModule(b"".join((head[:17], payload)), header,
                         32 * words.size, int(np.count_nonzero(values)))


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
        words = reader.read_words(n)
        with np.errstate(invalid="ignore"):  # corrupt bits may form sNaN
            values = words.view(np.float32).astype(np.float64)
        if not np.all(np.isfinite(values)):
            raise CorruptStreamError("non-finite dense payload",
                                     payload_start)
        module = None
    else:
        if header.fmt == Format.INDEP:
            mask = reader.read_bits(n).astype(bool)
            support = np.flatnonzero(mask)
            b = header.bit_width
            bins = _values(reader.read_bits(n * b).reshape(n, b))[mask]
        else:
            support, bins = _decode_grouped(reader, header)
        module = CompressedModule(n, support, bins, header.bit_width,
                                  header.range_neg, header.range_pos,
                                  header.scale)
        values = None
    payload_bits = reader.pos - payload_start
    pad = (-(reader.pos - start)) % 8
    pad_bits = reader.read_bits(pad)
    if np.any(pad_bits):
        raise CorruptStreamError("nonzero padding bits", reader.pos - pad)
    return DecodedModule(header, module, values, payload_bits,
                         reader.pos - start)


def _decode_grouped(reader: BitReader, header: ModuleHeader):
    n, c, b = header.count, header.group_size, header.bit_width
    flagged = np.flatnonzero(reader.read_bits(n // c))
    if flagged.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    k = index_bits(c)
    rec_w = k + b + 1
    records_start = reader.pos
    max_records = reader.remaining // rec_w
    # Records are flag-terminated; scan in growing chunks until every
    # flagged group has closed.
    chunk, parsed, closed, chunks = max(64, 2 * flagged.size), 0, 0, []
    while closed < flagged.size:
        take = min(chunk, max_records - parsed)
        if take <= 0:
            raise CorruptStreamError("records exhausted before all groups "
                                     "closed", 8 * len(reader.data))
        chunks.append(reader.read_bits(take * rec_w).reshape(take, rec_w))
        closed += int(np.count_nonzero(chunks[-1][:, -1]))
        parsed += take
        chunk *= 2
    rec = np.concatenate(chunks)
    n_records = int(np.flatnonzero(rec[:, -1])[flagged.size - 1]) + 1
    rec = rec[:n_records]
    reader.pos = records_start + n_records * rec_w
    intra, bins, flags = _values(rec[:, :k]), _values(rec[:, k:-1]), rec[:, -1]

    seg = np.zeros(n_records, dtype=np.int64)
    seg[1:] = np.cumsum(flags[:-1])
    if np.any(intra >= c):
        bad = int(np.flatnonzero(intra >= c)[0])
        raise CorruptStreamError(f"intra-group index {int(intra[bad])} >= "
                                 f"group size {c}",
                                 records_start + bad * rec_w)
    same_seg = seg[1:] == seg[:-1]
    if np.any(same_seg & (intra[1:] <= intra[:-1])):
        bad = int(np.flatnonzero(same_seg & (intra[1:] <= intra[:-1]))[0]) + 1
        raise CorruptStreamError("intra-group indices not strictly increasing",
                                 records_start + bad * rec_w)
    return flagged[seg] * c + intra, bins


def decode(data: bytes) -> DecodedModule:
    """Decode a standalone single-module stream, rejecting trailing bytes."""
    reader = BitReader(data)
    out = decode_at(reader)
    if reader.remaining:
        raise CorruptStreamError("trailing bytes after module", reader.pos)
    return out
