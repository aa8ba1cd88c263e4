"""Multi-task container files, decoded into compressed task vectors.

Layout: magic "TSWC", version byte, u16 task count; per task a
length-prefixed UTF-8 id, u16 module count, then the byte-aligned module
streams back to back; finally one u32-length-prefixed UTF-8 JSON metadata
block (module names, model layout, optional extras). Multi-byte framing
integers are little-endian; the module streams themselves are the MSB-first
bitstreams from codec. A loaded bundle is a list of CompressedTaskVector,
the same form training and the binary switch produce.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .codec import (BitReader, CodecError, DecodedModule, EncodedModule,
                    Format, decode_at, encode_dense)
from .model import MlpSpec
from .training import CompressedModule, CompressedTaskVector
from .vectors import ParamSet, StructureError

MAGIC = b"TSWC"
VERSION = 1


def streams_from_params(params: ParamSet) -> list[EncodedModule]:
    return [encode_dense(v) for _, v in params.modules]


def save_container(path, tasks: list[tuple[str, list[EncodedModule]]],
                   metadata: dict | None = None) -> None:
    buf = bytearray()
    buf += MAGIC
    buf.append(VERSION)
    buf += struct.pack("<H", len(tasks))
    for task_id, mods in tasks:
        ident = task_id.encode("utf-8")
        buf += struct.pack("<H", len(ident))
        buf += ident
        buf += struct.pack("<H", len(mods))
        for em in mods:
            buf += em.data
    meta = json.dumps(metadata or {}, sort_keys=True).encode("utf-8")
    buf += struct.pack("<I", len(meta))
    buf += meta
    Path(path).write_bytes(bytes(buf))


def _unpack(fmt: str, data: bytes, cursor: int, path, what: str):
    if cursor + struct.calcsize(fmt) > len(data):
        raise CodecError(f"{path}: {what} cut short at byte {cursor}")
    return struct.unpack_from(fmt, data, cursor)


def load_container(path) -> tuple[list[tuple[str, list[DecodedModule]]], dict]:
    data = Path(path).read_bytes()
    if len(data) < 7 or data[:4] != MAGIC:
        raise CodecError(f"{path}: not a task container")
    if data[4] != VERSION:
        raise CodecError(f"{path}: unsupported container version {data[4]}")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    cursor = 5
    (n_tasks,) = _unpack("<H", data, cursor, path, "task count")
    cursor += 2
    tasks = []
    for _ in range(n_tasks):
        (id_len,) = _unpack("<H", data, cursor, path, "task id length")
        cursor += 2
        (ident,) = _unpack(f"{id_len}s", data, cursor, path, "task id")
        task_id = ident.decode("utf-8")
        cursor += id_len
        (n_mods,) = _unpack("<H", data, cursor, path, "module count")
        cursor += 2
        mods = []
        for _ in range(n_mods):
            reader = BitReader(bits, pos=cursor * 8)
            dm = decode_at(reader)
            mods.append(dm)
            cursor += dm.bits_consumed // 8
        tasks.append((task_id, mods))
    (meta_len,) = _unpack("<I", data, cursor, path, "metadata length")
    cursor += 4
    if cursor + meta_len > len(data):
        raise CodecError(f"{path}: metadata of {meta_len} bytes at byte "
                         f"{cursor} runs past the end of the file")
    metadata = json.loads(data[cursor:cursor + meta_len].decode("utf-8")) \
        if meta_len else {}
    return tasks, metadata


def _module_names(path, metadata: dict, count: int) -> list[str]:
    """Stored module names, or ordinals; the count must match the file."""
    names = metadata.get("module_names")
    if not names:
        return [f"mod{i}" for i in range(count)]
    if len(names) != count:
        raise StructureError(f"{path}: {len(names)} module names for "
                             f"{count} modules")
    return names


def sparse_from_decoded(task_id: str, decoded: list[DecodedModule],
                        names: list[str]) -> CompressedTaskVector:
    modules = []
    for name, dm in zip(names, decoded, strict=True):
        h = dm.header
        if h.fmt == Format.DENSE:
            raise CodecError(f"task {task_id!r} module {name!r}: a dense "
                             "stream is not a compressed task vector")
        modules.append((name, CompressedModule(
            length=h.count, support=np.flatnonzero(dm.mask), bins=dm.bins,
            bit_width=h.bit_width, range_neg=h.range_neg,
            range_pos=h.range_pos, scale=h.scale)))
    return CompressedTaskVector(task_id, modules)


def save_bundle(path, entries: list[tuple[str, list[EncodedModule]]],
                module_names: list[str],
                extra_metadata: dict | None = None) -> None:
    metadata = {"module_names": list(module_names)}
    if extra_metadata:
        metadata.update(extra_metadata)
    save_container(path, entries, metadata)


def load_bundle(path) -> tuple[list[CompressedTaskVector], dict]:
    tasks, metadata = load_container(path)
    out = [sparse_from_decoded(tid, mods,
                               _module_names(path, metadata, len(mods)))
           for tid, mods in tasks]
    return out, metadata


def save_params(path, spec: MlpSpec, params: ParamSet,
                name: str = "model") -> None:
    """Store a parameter set densely (float32 at rest) with its layout."""
    metadata = {"model": spec.to_dict(), "module_names": params.names}
    save_container(path, [(name, streams_from_params(params))], metadata)


def load_params(path) -> tuple[MlpSpec, ParamSet, str]:
    tasks, metadata = load_container(path)
    if len(tasks) != 1:
        raise StructureError(f"{path}: expected one parameter set, "
                             f"found {len(tasks)} tasks")
    if "model" not in metadata:
        raise StructureError(f"{path}: container has no model layout")
    spec = MlpSpec.from_dict(metadata["model"])
    task_id, mods = tasks[0]
    names = _module_names(path, metadata, len(mods))
    params = ParamSet([(name, dm.values * dm.header.scale)
                       for name, dm in zip(names, mods)])
    return spec, params, task_id
