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
are the one place that order is coded), fields concatenated in declaration
order, streams zero-padded to a byte boundary. Every padding bit is
validated on decode so a single flipped bit can never pass silently.
Decoding reads the stream's bytes in place: a BitReader over a whole file
unpacks only the bytes each read covers.
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
    """(m, nbits) bit matrix of unsigned values, most significant bit first."""
    shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
    values = np.asarray(values, dtype=np.uint64)
    return ((values[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


def _values(bits: np.ndarray) -> np.ndarray:
    """Inverse of _fields: one value per row of an (m, nbits) bit matrix."""
    shifts = np.arange(bits.shape[1] - 1, -1, -1, dtype=np.uint64)
    return bits.astype(np.uint64).dot(np.uint64(1) << shifts).astype(np.int64)


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


def _pack(header: ModuleHeader, nnz: int,
          *payload: np.ndarray) -> EncodedModule:
    """Header then payload bits, zero-padded to a byte boundary.

    The header is one integer: format tag (2), bit width (4), group size
    minus 1 (8) and count (27), then the three float32 fields.
    """
    if not 1 <= header.count < MAX_COUNT:
        raise CapacityError(
            f"element count {header.count} outside [1, {MAX_COUNT})")
    # mirror the decoder: a stream with non-finite fields is never valid
    for name in ("scale", "range_neg", "range_pos"):
        if not math.isfinite(getattr(header, name)):
            raise CodecError(f"non-finite header field {name}")
    cfield = header.group_size - 1 if header.fmt == Format.GROUPED else 0
    ints = ((header.fmt << 4 | header.bit_width) << 8 | cfield) << COUNT_BITS \
        | header.count
    floats = struct.pack(">3f", header.scale, header.range_neg,
                         header.range_pos)
    word = (ints << 96 | int.from_bytes(floats, "big")) << 7
    head = np.unpackbits(np.frombuffer(word.to_bytes(18, "big"), np.uint8))
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
    scale, range_neg, range_pos = struct.unpack(
        ">3f", (word & ((1 << 96) - 1)).to_bytes(12, "big"))
    if tag not in (0, 1, 2):
        raise CorruptStreamError(f"unknown format tag {tag}", start)
    fmt = Format(tag)
    if n < 1:
        raise CorruptStreamError("zero element count", start)
    if fmt == Format.DENSE:
        if b != 0 or cfield != 0:
            raise CorruptStreamError("dense header carries quantizer fields",
                                     start)
    else:
        if b < 1:
            raise CorruptStreamError("quantized stream with zero bit width",
                                     start)
        if fmt == Format.INDEP and cfield != 0:
            raise CorruptStreamError("independent format with group field",
                                     start)
    c = cfield + 1 if fmt == Format.GROUPED else 1
    if fmt == Format.GROUPED and n % c != 0:
        raise CorruptStreamError(f"group size {c} does not divide {n}", start)
    for name, val in (("scale", scale), ("range_neg", range_neg),
                      ("range_pos", range_pos)):
        if not math.isfinite(val):
            raise CorruptStreamError(f"non-finite header field {name}", start)
    if fmt == Format.DENSE:
        if range_neg != 0.0 or range_pos != 0.0:
            raise CorruptStreamError("dense header carries quantizer ranges",
                                     start)
    elif range_neg < 0.0 or range_pos < 0.0:
        raise CorruptStreamError("negative quantizer range", start)
    return ModuleHeader(fmt, b, c, n, scale, range_neg, range_pos)


def _module_header(module: CompressedModule, fmt: Format) -> ModuleHeader:
    """The stream header of a module, once its fields are known sound."""
    n, b, support, bins = (module.length, module.bit_width, module.support,
                           module.bins)
    if not 1 <= n < MAX_COUNT:
        raise CapacityError(f"element count {n} outside [1, {MAX_COUNT})")
    rn, rp = (float(np.float32(r)) for r in (module.range_neg,
                                             module.range_pos))
    # a finite negative range here; non-finite fields fail in _pack
    if not 1 <= b <= 15 or -math.inf < min(rn, rp) < 0.0:
        raise CodecError(f"no quantizer of width {b}, ranges {rn}, {rp}")
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
    return ModuleHeader(fmt, b, 1, n, float(np.float32(module.scale)), rn, rp)


def encode(module: CompressedModule,
           group_size: int | None = None) -> EncodedModule:
    """Grouped-format encoding of a module's support and bins."""
    header = _module_header(module, Format.GROUPED)
    n, nnz, support = module.length, module.nnz, module.support
    c = optimal_group(n, 1.0 - nnz / n) if group_size is None \
        else int(group_size)
    if not 1 <= c <= MAX_GROUP or n % c != 0:
        raise CodecError(f"group size {c} inadmissible for n={n}")
    header = replace(header, group_size=c)
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
    """Raw float32 storage; rounds the input to float32 precision."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    n = values.size
    if not 1 <= n < MAX_COUNT:
        raise CapacityError(f"element count {n} outside [1, {MAX_COUNT})")
    if not np.all(np.isfinite(values)):
        raise CodecError("dense values must be finite")
    header = ModuleHeader(Format.DENSE, 0, 1, n, float(np.float32(scale)),
                          0.0, 0.0)
    return _pack(header, int(np.count_nonzero(values)),
                 np.unpackbits(values.astype(">f4").view(np.uint8)))


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
        raw = np.packbits(reader.read_bits(32 * n)).tobytes()
        with np.errstate(invalid="ignore"):  # corrupt bits may form sNaN
            values = np.frombuffer(raw, dtype=">f4").astype(np.float64)
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
