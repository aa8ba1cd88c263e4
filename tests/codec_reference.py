"""The codec's per-element and per-module paths as they were before they
worked in words and read and wrote each grouped record as one field: the
oracle that `tests/test_codec_oracle.py` checks the package's codec
against.

Here every field goes through a bit matrix of one uint8 per bit, built and
read back through uint64 shifts (`_fields`, `_values`), and a dense payload
is unpacked to 32 bits per element, concatenated after the header's bits
and packed again (`_pack`, `encode_dense`). The per-module path is kept as
it was when a record was three fields: `encode` stacks the intra index,
bin and flag columns and builds its header twice, `_module_header` rounds
to float32 under `np.errstate`, `admissible_groups` scans for divisors on
every call, `_decode_grouped` reads the intra index and the bin as two
fields and finds groups by a cumulative sum, and `decode_at` turns every
INDEP row into a value before masking and reads zero padding bits. Only
`decode_at`'s DENSE branch is older still: it unpacks and repacks the
payload's bits. The header is parsed and checked as it was before the
decoder read masks as bool: `Format(tag)`, then a loop over the float
fields. Every function here calls this module's own field, packing and
header code, never the package's; only the BitReader is shared.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from taskswitch.codec import (
    COUNT_BITS,
    HEADER_BITS,
    MAX_COUNT,
    MAX_GROUP,
    NOMINAL_HEADER_BITS,
    BitReader,
    CapacityError,
    CodecError,
    CompressedModule,
    CorruptStreamError,
    DecodedModule,
    EncodedModule,
    Format,
    ModuleHeader,
    expected_bits,
    indep_bits,
    index_bits,
)


def _check_header(h: ModuleHeader, at: int | None = None) -> None:
    """The header rule of encoders (CodecError, CapacityError for the
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


def _fields(values, nbits: int) -> np.ndarray:
    """(m, nbits) bit matrix of unsigned values, most significant bit first."""
    shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
    values = np.asarray(values, dtype=np.uint64)
    return ((values[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


def _values(bits: np.ndarray) -> np.ndarray:
    """Inverse of _fields: one value per row of an (m, nbits) bit matrix."""
    shifts = np.arange(bits.shape[1] - 1, -1, -1, dtype=np.uint64)
    return bits.astype(np.uint64).dot(np.uint64(1) << shifts).astype(np.int64)


def _pack(header: ModuleHeader, nnz: int,
          *payload: np.ndarray) -> EncodedModule:
    """Header then payload bits, zero-padded to a byte boundary.

    The header is one integer: format tag (2), bit width (4), group size
    minus 1 (8) and count (27), then the three float32 fields.
    """
    ints = ((header.fmt << 4 | header.bit_width) << 8
            | header.group_size - 1) << COUNT_BITS | header.count
    floats = struct.pack(">3f", header.scale, header.range_neg,
                         header.range_pos)
    word = (ints << 96 | int.from_bytes(floats, "big")) << 7
    head = np.unpackbits(np.frombuffer(word.to_bytes(18, "big"), np.uint8))
    bits = [p.reshape(-1) for p in payload]
    data = np.packbits(np.concatenate([head[:HEADER_BITS], *bits]))
    return EncodedModule(data.tobytes(), header, sum(b.size for b in bits),
                         nnz)


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
    header = header._replace(group_size=c)
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
    """Raw float32 storage; rounds the input to float32 precision."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    header = ModuleHeader(Format.DENSE, 0, 1, values.size,
                          float(np.float32(scale)), 0.0, 0.0)
    _check_header(header)
    with np.errstate(over="ignore"):   # tested as decode_at tests them
        stored = values.astype(">f4")
    if not np.all(np.isfinite(stored)):
        raise CodecError("dense values must be finite in float32")
    return _pack(header, int(np.count_nonzero(values)),
                 np.unpackbits(stored.view(np.uint8)))


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
