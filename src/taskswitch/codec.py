"""Bit-exact serialization of masked quantized modules.

A CompressedModule (support positions and one bin index per position) is
what the grouped and independent encoders take and their decoder returns;
the dense format carries raw floats. All three share one fixed 137-bit
header (format tag 2, bit width 4, group-size-minus-1 8, element count 27,
then scale / range_neg / range_pos as IEEE-754 float32). Payloads:

  grouped   group-presence bitmap (n/c bits), then one record per nonzero in
            position order: intra-group index (ceil(log2 c) bits), bin index
            (b bits), end-of-group flag (1 bit);
  indep     n mask bits followed by b bits per element, zeros included;
  dense     32-bit float32 per element, no quantization.

Bits are most-significant-first within each field, fields concatenated in
declaration order, streams zero-padded to a byte boundary. Every padding
bit is validated on decode so a single flipped bit can never pass silently.
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


def dense_bits(n: int) -> int:
    return 32 * n


class BitWriter:
    """Append-only MSB-first bit buffer backed by numpy packbits."""

    def __init__(self):
        self._chunks: list[np.ndarray] = []
        self._nbits = 0

    @property
    def nbits(self) -> int:
        return self._nbits

    def write_bits(self, bits: np.ndarray) -> None:
        bits = np.asarray(bits).astype(np.uint8).reshape(-1)
        self._chunks.append(bits)
        self._nbits += bits.size

    def write_uint(self, value: int, nbits: int) -> None:
        if not 0 <= value < (1 << nbits):
            raise CodecError(f"value {value} does not fit in {nbits} bits")
        shifts = np.arange(nbits - 1, -1, -1)
        self.write_bits((value >> shifts) & 1)

    def write_uint_array(self, values: np.ndarray, nbits: int) -> None:
        if nbits == 0:
            return
        values = np.asarray(values, dtype=np.uint64)
        if values.size and int(values.max()) >= (1 << nbits):
            raise CodecError(f"array value does not fit in {nbits} bits")
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        self.write_bits((values[:, None] >> shifts) & np.uint64(1))

    def write_f32(self, value: float) -> None:
        raw = struct.pack(">f", float(np.float32(value)))
        self.write_bits(np.unpackbits(np.frombuffer(raw, dtype=np.uint8)))

    def to_bytes(self) -> bytes:
        bits = (np.concatenate(self._chunks) if self._chunks
                else np.zeros(0, dtype=np.uint8))
        pad = (-bits.size) % 8
        if pad:
            bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
        return np.packbits(bits).tobytes()


class BitReader:
    """MSB-first reader over an unpacked bit array."""

    def __init__(self, bits: np.ndarray, pos: int = 0):
        self.bits = bits
        self.pos = pos

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitReader":
        return cls(np.unpackbits(np.frombuffer(data, dtype=np.uint8)))

    @property
    def remaining(self) -> int:
        return self.bits.size - self.pos

    def _need(self, count: int) -> None:
        if count > self.remaining:
            raise CorruptStreamError("truncated stream", self.pos)

    def read_bits(self, count: int) -> np.ndarray:
        self._need(count)
        out = self.bits[self.pos:self.pos + count]
        self.pos += count
        return out

    def read_uint(self, nbits: int) -> int:
        bits = self.read_bits(nbits).astype(np.uint64)
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        return int(bits.dot(np.uint64(1) << shifts))

    def read_uint_array(self, count: int, nbits: int) -> np.ndarray:
        if nbits == 0:
            return np.zeros(count, dtype=np.int64)
        bits = self.read_bits(count * nbits).reshape(count, nbits)
        shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
        return bits.astype(np.uint64).dot(np.uint64(1) << shifts).astype(np.int64)

    def read_f32(self) -> float:
        raw = np.packbits(self.read_bits(32)).tobytes()
        return struct.unpack(">f", raw)[0]


def _write_header(w: BitWriter, header: ModuleHeader) -> None:
    if not 1 <= header.count < MAX_COUNT:
        raise CapacityError(
            f"element count {header.count} outside [1, {MAX_COUNT})")
    # mirror the decoder: a stream with non-finite fields is never valid
    for name, val in (("scale", header.scale),
                      ("range_neg", header.range_neg),
                      ("range_pos", header.range_pos)):
        if not math.isfinite(val):
            raise CodecError(f"non-finite header field {name}")
    w.write_uint(int(header.fmt), 2)
    w.write_uint(header.bit_width, 4)
    w.write_uint(header.group_size - 1 if header.fmt == Format.GROUPED else 0, 8)
    w.write_uint(header.count, COUNT_BITS)
    w.write_f32(header.scale)
    w.write_f32(header.range_neg)
    w.write_f32(header.range_pos)


def _read_header(r: BitReader) -> ModuleHeader:
    start = r.pos
    tag = r.read_uint(2)
    if tag not in (0, 1, 2):
        raise CorruptStreamError(f"unknown format tag {tag}", start)
    fmt = Format(tag)
    b = r.read_uint(4)
    cfield = r.read_uint(8)
    n = r.read_uint(COUNT_BITS)
    scale = r.read_f32()
    range_neg = r.read_f32()
    range_pos = r.read_f32()
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
    # a finite negative range here; non-finite fields fail in _write_header
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

    w = BitWriter()
    _write_header(w, header)
    payload_start = w.nbits
    group_any = np.zeros(n // c, dtype=np.uint8)
    group_any[support // c] = 1
    w.write_bits(group_any)
    if nnz:
        group_id = support // c
        intra = support % c
        flags = np.empty(nnz, dtype=np.uint8)
        flags[:-1] = (group_id[1:] != group_id[:-1]).astype(np.uint8)
        flags[-1] = 1
        k = index_bits(c)
        rec = np.zeros((nnz, k + header.bit_width + 1), dtype=np.uint8)
        if k:
            shifts = np.arange(k - 1, -1, -1, dtype=np.uint64)
            rec[:, :k] = (intra.astype(np.uint64)[:, None] >> shifts) & 1
        shifts = np.arange(header.bit_width - 1, -1, -1, dtype=np.uint64)
        rec[:, k:k + header.bit_width] = \
            (module.bins.astype(np.uint64)[:, None] >> shifts) & 1
        rec[:, -1] = flags
        w.write_bits(rec)
    payload_bits = w.nbits - payload_start
    return EncodedModule(w.to_bytes(), header, payload_bits, nnz)


def encode_indep(module: CompressedModule) -> EncodedModule:
    """Mask-plus-fixed-width encoding: exactly (b+1)*n payload bits."""
    header = _module_header(module, Format.INDEP)
    mask = np.zeros(header.count, dtype=np.uint8)
    mask[module.support] = 1
    all_bins = np.zeros(header.count, dtype=np.int64)
    all_bins[module.support] = module.bins
    w = BitWriter()
    _write_header(w, header)
    payload_start = w.nbits
    w.write_bits(mask)
    w.write_uint_array(all_bins, header.bit_width)
    return EncodedModule(w.to_bytes(), header, w.nbits - payload_start,
                         module.nnz)


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
    w = BitWriter()
    _write_header(w, header)
    payload_start = w.nbits
    as32 = values.astype(np.float32).astype(">f4")
    w.write_bits(np.unpackbits(as32.view(np.uint8)))
    nnz = int(np.count_nonzero(values))
    return EncodedModule(w.to_bytes(), header, w.nbits - payload_start, nnz)


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
            bins = reader.read_uint_array(n, header.bit_width)[mask]
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
    group_any = reader.read_bits(n // c).astype(bool)
    flagged = np.flatnonzero(group_any)
    n_groups_open = flagged.size
    if n_groups_open == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    k = index_bits(c)
    rec_w = k + b + 1
    records_start = reader.pos
    max_records = reader.remaining // rec_w
    # Records are flag-terminated; scan in growing chunks until every
    # flagged group has closed.
    chunk = max(64, 2 * n_groups_open)
    parsed = 0
    flag_hits = np.zeros(0, dtype=np.int64)
    all_bits = None
    while True:
        take = min(chunk, max_records - parsed)
        if take <= 0:
            raise CorruptStreamError("records exhausted before all groups "
                                     "closed", reader.bits.size)
        bits = reader.bits[records_start + parsed * rec_w:
                           records_start + (parsed + take) * rec_w]
        bits = bits.reshape(take, rec_w)
        all_bits = bits if all_bits is None else np.vstack([all_bits, bits])
        parsed += take
        flag_hits = np.flatnonzero(all_bits[:, -1])
        if flag_hits.size >= n_groups_open:
            break
        chunk *= 2
    n_records = int(flag_hits[n_groups_open - 1]) + 1
    rec = all_bits[:n_records]
    reader.pos = records_start + n_records * rec_w

    if k:
        shifts = np.arange(k - 1, -1, -1, dtype=np.uint64)
        intra = rec[:, :k].astype(np.uint64).dot(np.uint64(1) << shifts)
        intra = intra.astype(np.int64)
    else:
        intra = np.zeros(n_records, dtype=np.int64)
    shifts = np.arange(b - 1, -1, -1, dtype=np.uint64)
    bins = rec[:, k:k + b].astype(np.uint64).dot(np.uint64(1) << shifts)
    bins = bins.astype(np.int64)
    flags = rec[:, -1]

    seg = np.zeros(n_records, dtype=np.int64)
    if n_records > 1:
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
    reader = BitReader.from_bytes(data)
    out = decode_at(reader)
    if reader.remaining:
        raise CorruptStreamError("trailing bytes after module", reader.pos)
    return out
