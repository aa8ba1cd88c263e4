"""The codec's per-element path as it was before it worked in words: the
oracle that `tests/test_codec_oracle.py` checks the package's codec against.

Here every field goes through a bit matrix of one uint8 per bit, built and
read back through uint64 shifts (`_fields`, `_values`), and a dense payload
is unpacked to 32 bits per element, concatenated after the header's bits
and packed again (`_pack`, `encode_dense`); `decode_at` reads a dense
payload back by unpacking and repacking its bits. The grouped and
independent encoders and the grouped decoder are the package's own: patch
`_fields`, `_values` and `_pack` below into `taskswitch.codec` to run them
the old way.
"""

from __future__ import annotations

import struct

import numpy as np

from taskswitch.codec import (
    COUNT_BITS,
    HEADER_BITS,
    BitReader,
    CodecError,
    CompressedModule,
    CorruptStreamError,
    DecodedModule,
    EncodedModule,
    Format,
    ModuleHeader,
    _check_header,
    _decode_grouped,
    _read_header,
)


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
