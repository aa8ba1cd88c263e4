"""Multi-task container files, decoded into compressed task vectors.

Layout: magic "TSWC", version byte, u16 task count; per task a
length-prefixed UTF-8 id, u16 module count, then the byte-aligned module
streams back to back; finally one u32-length-prefixed UTF-8 JSON object
(module names, model layout, optional extras) that ends the file.
Multi-byte framing integers are little-endian; the module streams
themselves are the MSB-first bitstreams from codec, each decoded from the
file's bytes at its own offset. A short field, an id that is not UTF-8,
bytes after the metadata, or metadata that is not a JSON object raise
CodecError naming the file and the byte. A loaded bundle is a list of
CompressedTaskVector over the decoded modules, the same form training and
the binary switch produce.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

from .codec import (BitReader, CodecError, DecodedModule, EncodedModule,
                    decode_at, encode_dense)
from .model import MlpSpec, check_params
from .training import CompressedTaskVector
from .vectors import ParamSet, StructureError

MAGIC = b"TSWC"
VERSION = 1


def streams_from_params(params: ParamSet) -> list[EncodedModule]:
    return [encode_dense(v) for _, v in params.modules]


def save_container(path, tasks: list[tuple[str, list[EncodedModule]]],
                   metadata: dict | None = None) -> None:
    """Write the framing and each stream's bytes straight to the file,
    opened only once every part is built and checked."""
    if max([len(tasks)] + [len(mods) for _, mods in tasks]) > 0xFFFF:
        raise CodecError(f"{path}: over 65535 tasks, or modules in a task")
    parts = [struct.pack("<4sBH", MAGIC, VERSION, len(tasks))]
    for task_id, mods in tasks:
        parts.append(_id_bytes(task_id, path) + struct.pack("<H", len(mods)))
        parts += (em.data for em in mods)
    meta = json.dumps(metadata or {}, sort_keys=True).encode("utf-8")
    parts += (struct.pack("<I", len(meta)), meta)
    with open(path, "wb") as f:
        f.writelines(parts)


def _unpack(fmt: str, data: bytes, cursor: int, path, what: str):
    if cursor + struct.calcsize(fmt) > len(data):
        raise CodecError(f"{path}: {what} cut short at byte {cursor}")
    return struct.unpack_from(fmt, data, cursor)


def _id_bytes(task_id: str, path) -> bytes:
    """The u16-length-prefixed UTF-8 task id _read_id reads back."""
    ident = task_id.encode("utf-8")
    if len(ident) > 0xFFFF:
        raise CodecError(f"{path}: task id of {len(ident)} bytes is over "
                         "the 65535 a file can hold")
    return struct.pack("<H", len(ident)) + ident


def _read_id(data: bytes, cursor: int, path) -> tuple[str, int]:
    """The u16-length-prefixed UTF-8 task id at cursor, and the cursor after
    it."""
    (id_len,) = _unpack("<H", data, cursor, path, "task id length")
    (ident,) = _unpack(f"{id_len}s", data, cursor + 2, path, "task id")
    try:
        return ident.decode("utf-8"), cursor + 2 + id_len
    except UnicodeDecodeError as exc:
        raise CodecError(f"{path}: task id is not UTF-8 at byte "
                         f"{cursor + 2 + exc.start}") from None


def load_container(path) -> tuple[list[tuple[str, list[DecodedModule]]], dict]:
    data = Path(path).read_bytes()
    if len(data) < 7 or data[:4] != MAGIC:
        raise CodecError(f"{path}: not a task container")
    if data[4] != VERSION:
        raise CodecError(f"{path}: unsupported container version {data[4]}")
    cursor = 5
    (n_tasks,) = _unpack("<H", data, cursor, path, "task count")
    cursor += 2
    tasks, reader = [], BitReader(data)
    for _ in range(n_tasks):
        task_id, cursor = _read_id(data, cursor, path)
        (n_mods,) = _unpack("<H", data, cursor, path, "module count")
        cursor += 2
        mods = []
        for i in range(n_mods):
            reader.pos = 8 * cursor
            try:
                dm = decode_at(reader)
            except CodecError as exc:   # the type and bit_offset stay
                exc.args = (f"{path}: task {task_id!r} module {i}: {exc}",)
                raise
            mods.append(dm)
            cursor += dm.bits_consumed // 8
        tasks.append((task_id, mods))
    (meta_len,) = _unpack("<I", data, cursor, path, "metadata length")
    cursor += 4
    if cursor + meta_len > len(data):
        raise CodecError(f"{path}: metadata of {meta_len} bytes at byte "
                         f"{cursor} runs past the end of the file")
    if cursor + meta_len < len(data):
        raise CodecError(f"{path}: {len(data) - cursor - meta_len} trailing "
                         f"bytes at byte {cursor + meta_len}")
    try:
        metadata = json.loads(data[cursor:cursor + meta_len]
                              .decode("utf-8")) if meta_len else {}
    except ValueError as exc:   # bad UTF-8 or bad JSON
        raise CodecError(f"{path}: metadata at byte {cursor} is not valid "
                         f"JSON: {exc}") from None
    if not isinstance(metadata, dict):
        raise CodecError(f"{path}: metadata at byte {cursor} is not a JSON "
                         "object")
    return tasks, metadata


def _module_names(path, metadata: dict, count: int) -> list[str]:
    """Stored module names, or ordinals; the count must match the file."""
    names = metadata.get("module_names")
    if names is None or names == []:
        return [f"mod{i}" for i in range(count)]
    if not isinstance(names, list) or \
            not all(isinstance(n, str) for n in names):
        raise StructureError(f"{path}: module_names is not a list of "
                             "strings")
    if len(names) != count:
        raise StructureError(f"{path}: {len(names)} module names for "
                             f"{count} modules")
    return names


def sparse_from_decoded(task_id: str, decoded: list[DecodedModule],
                        names: list[str]) -> CompressedTaskVector:
    for name, dm in zip(names, decoded, strict=True):
        if dm.module is None:
            raise CodecError(f"task {task_id!r} module {name!r}: a dense "
                             "stream is not a compressed task vector")
    return CompressedTaskVector(task_id, [(name, dm.module) for name, dm
                                          in zip(names, decoded)])


def save_bundle(path, entries: list[tuple[str, list[EncodedModule]]],
                module_names: list[str],
                extra_metadata: dict | None = None) -> None:
    metadata = {"module_names": list(module_names), **(extra_metadata or {})}
    for _, mods in entries:   # the names load_bundle will read back
        _module_names(path, metadata, len(mods))
    save_container(path, entries, metadata)


def load_bundle(path) -> tuple[list[CompressedTaskVector], dict]:
    tasks, metadata = load_container(path)
    out = []
    for tid, mods in tasks:
        names = _module_names(path, metadata, len(mods))
        try:
            out.append(sparse_from_decoded(tid, mods, names))
        except CodecError as exc:   # a dense stream, named with its file
            exc.args = (f"{path}: {exc}",)
            raise
    return out, metadata


def save_params(path, spec: MlpSpec, params: ParamSet,
                name: str = "model") -> None:
    """Store a parameter set densely (float32 at rest) with its layout."""
    metadata = {"model": spec.to_dict(), "module_names": params.names}
    try:
        check_params(spec, params)
        streams = streams_from_params(params)
    except ValueError as exc:   # a CodecError or StructureError as it was
        exc.args = (f"{path}: {exc}",)
        raise
    save_container(path, [(name, streams)], metadata)


def load_params(path) -> tuple[MlpSpec, ParamSet, str]:
    tasks, metadata = load_container(path)
    if len(tasks) != 1:
        raise StructureError(f"{path}: expected one parameter set, "
                             f"found {len(tasks)} tasks")
    if "model" not in metadata:
        raise StructureError(f"{path}: container has no model layout")
    task_id, mods = tasks[0]
    names = _module_names(path, metadata, len(mods))
    for name, dm in zip(names, mods):
        if dm.module is not None:
            raise StructureError(f"{path}: module {name!r} is a "
                                 f"{dm.header.fmt.name} stream, not a dense "
                                 "parameter stream")
    # x * 1.0 is x bit for bit, so a scale-1 stream (every one save_params
    # writes) keeps the decoder's array; no one else holds it
    params = ParamSet([(name, dm.values if dm.header.scale == 1.0
                        else dm.final_values())
                       for name, dm in zip(names, mods)])
    try:
        spec = MlpSpec.from_dict(metadata["model"])
        check_params(spec, params)
    except StructureError as exc:
        raise StructureError(f"{path}: {exc}") from None
    return spec, params, task_id
