"""Multi-task containers and parameter-set files."""

import dataclasses
import struct

import numpy as np
import pytest

from taskswitch import (
    CodecError,
    CompressedModule,
    CompressedTaskVector,
    CorruptStreamError,
    MlpSpec,
    StructureError,
    TaskVector,
    build_switch,
    init_params,
    load_bundle,
    load_container,
    load_params,
    save_bundle,
    save_params,
)
from taskswitch.container import save_container, sparse_from_decoded


def _switch_streams(seed):
    rng = np.random.default_rng(seed)
    tv = TaskVector(f"task{seed}", [("a", rng.normal(size=40)),
                                    ("b", rng.normal(size=16))])
    sw = build_switch(tv, alpha=0.6)
    return sw, sw.to_streams()


class TestSparseStructures:
    def test_sparse_module_counts(self):
        mod = CompressedModule(length=10, support=np.array([2, 7]),
                               bins=np.array([1, 0]), bit_width=1,
                               range_neg=2.0, range_pos=2.0, scale=0.5)
        assert mod.nnz == 2
        assert 1 - mod.nnz / mod.length == pytest.approx(0.8)
        np.testing.assert_array_equal(mod.values, [0.5, -0.5])
        dense = mod.final_values()
        assert dense.shape == (10,)
        assert dense[2] == 0.5 and dense[7] == -0.5
        assert np.count_nonzero(dense) == 2


class TestBundleRoundTrip:
    def test_switch_bundle(self, tmp_path):
        sw, streams = _switch_streams(0)
        path = tmp_path / "bundle.tsw"
        save_bundle(path, [(sw.task_id, streams)], ["a", "b"],
                    extra_metadata={"kind": "switch"})
        loaded, meta = load_bundle(path)
        assert meta["kind"] == "switch"
        assert meta["module_names"] == ["a", "b"]
        assert len(loaded) == 1
        sv = loaded[0]
        assert sv.task_id == sw.task_id
        # Dense reconstruction equals the in-memory switch values to
        # float32 scale precision (the knob is stored as f32).
        want = sw.to_vector()
        for (name, mod), (wname, wv) in zip(sv.modules, want.modules):
            assert name == wname
            np.testing.assert_allclose(mod.final_values(), wv, rtol=1e-7)

    def test_multi_task_order_preserved(self, tmp_path):
        entries = []
        for seed in range(3):
            sw, streams = _switch_streams(seed)
            entries.append((sw.task_id, streams))
        path = tmp_path / "multi.tsw"
        save_bundle(path, entries, ["a", "b"])
        loaded, _ = load_bundle(path)
        assert [sv.task_id for sv in loaded] == [e[0] for e in entries]

    def test_unnamed_modules_get_ordinals(self, tmp_path):
        _, streams = _switch_streams(1)
        path = tmp_path / "anon.tsw"
        save_container(path, [("t", streams)], metadata={})
        loaded, _ = load_bundle(path)
        assert loaded[0].names == ["mod0", "mod1"]

    def test_zero_center_survivors_kept(self, tmp_path):
        # Width 1 over (1.0, 3.0) puts bin 0 on exactly 0.0; survivors there
        # are positions like any other and must come back as such.
        mod = CompressedModule(length=4, support=np.array([0, 1, 3]),
                               bins=np.array([0, 1, 0]), bit_width=1,
                               range_neg=1.0, range_pos=3.0, scale=0.5)
        ctv = CompressedTaskVector("t", [("m", mod)])
        path = tmp_path / "zero.tswc"
        save_bundle(path, [("t", ctv.to_streams())], ["m"])
        (sv,), _ = load_bundle(path)
        got = sv.modules[0][1]
        np.testing.assert_array_equal(got.support, [0, 1, 3])
        np.testing.assert_array_equal(got.bins, [0, 1, 0])
        assert got.nnz == 3 and sv.total_nnz() == 3
        (_, (dm,)), = load_container(path)[0]
        assert dm.nnz == 3

    def test_mixed_formats_in_one_container(self, tmp_path):
        # A quantized stream and a raw-float stream side by side; raw
        # floats can only travel densely. The container carries both, but
        # a dense stream is not a compressed task vector.
        from taskswitch.codec import Format, encode_dense
        rng = np.random.default_rng(2)
        dense_vals = rng.normal(size=12)
        sw, switch_streams = _switch_streams(2)
        streams = [switch_streams[0], encode_dense(dense_vals)]
        path = tmp_path / "mixed.tsw"
        save_bundle(path, [("t", streams)], ["q", "d"])
        tasks, meta = load_container(path)
        assert meta["module_names"] == ["q", "d"]
        (task_id, (q, d)), = tasks
        assert task_id == "t" and d.header.fmt == Format.DENSE
        want = sw.modules[0][1]
        np.testing.assert_array_equal(q.module.support, want.support)
        np.testing.assert_array_equal(q.module.bins, want.bins)
        assert q.module.scale == float(np.float32(want.scale))
        want = dataclasses.replace(want, scale=q.module.scale)
        np.testing.assert_array_equal(q.module.values, want.values)
        assert d.module is None
        np.testing.assert_array_equal(
            d.final_values(),
            dense_vals.astype(np.float32).astype(np.float64))
        with pytest.raises(CodecError, match="'t' module 'd'"):
            load_bundle(path)

    def test_dense_stream_refusal_names_the_file(self, tmp_path):
        from taskswitch.codec import encode_dense
        path = tmp_path / "dense.tswc"
        save_bundle(path, [("t", [encode_dense(np.ones(3))])], ["d"])
        with pytest.raises(CodecError) as err:
            load_bundle(path)
        assert type(err.value) is CodecError
        assert str(err.value) == (f"{path}: task 't' module 'd': a dense "
                                  "stream is not a compressed task vector")


class TestCorruptContainers:
    def test_stream_error_names_file_task_and_module(self, tmp_path):
        sw, streams = _switch_streams(0)
        p = tmp_path / "s.tsw"
        save_bundle(p, [(sw.task_id, streams)], ["a", "b"])
        data = bytearray(p.read_bytes())
        second = 5 + 2 + 2 + len(sw.task_id) + 2 + len(streams[0].data)
        data[second] |= 0b1111_0000          # tag 3, reserved kind 3
        p.write_bytes(bytes(data))
        with pytest.raises(CorruptStreamError) as exc:
            load_container(p)
        assert str(exc.value) == (f"{p}: task 'task0' module 1: format tag "
                                  f"3 with reserved payload kind 3 (bit "
                                  f"offset {8 * second})")
        assert exc.value.bit_offset == 8 * second

    def test_over_long_task_id_refused(self, tmp_path):
        sw, streams = _switch_streams(0)
        p = tmp_path / "long.tsw"
        with pytest.raises(CodecError, match=f"^{p}: task id of 65536 bytes"):
            save_bundle(p, [("é" * 32768, streams)], ["a", "b"])
        save_bundle(p, [("é" * 32767 + "x", streams)], ["a", "b"])
        assert load_bundle(p)[0][0].task_id == "é" * 32767 + "x"

    def test_task_count_past_the_framing_refused(self, tmp_path):
        p = tmp_path / "many.tsw"
        with pytest.raises(CodecError, match="over 65535 tasks"):
            save_container(p, [("t", [])] * 65536)
        assert not p.exists()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.tsw"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CodecError, match="not a task container"):
            load_container(p)

    def test_bad_version(self, tmp_path):
        sw, streams = _switch_streams(0)
        p = tmp_path / "v.tsw"
        save_bundle(p, [(sw.task_id, streams)], ["a", "b"])
        data = bytearray(p.read_bytes())
        data[4] = 99
        p.write_bytes(bytes(data))
        with pytest.raises(CodecError, match="version"):
            load_container(p)

    def test_truncated_file(self, tmp_path):
        sw, streams = _switch_streams(0)
        p = tmp_path / "t.tsw"
        save_bundle(p, [(sw.task_id, streams)], ["a", "b"])
        p.write_bytes(p.read_bytes()[:20])
        with pytest.raises(CodecError):
            load_container(p)

    def test_every_proper_prefix_rejected(self, tmp_path):
        # Framing fields, task ids, module streams and the metadata block
        # all fail with the codec's error when the file is cut short.
        sw, streams = _switch_streams(0)
        p = tmp_path / "full.tsw"
        save_bundle(p, [(sw.task_id, streams)], ["a", "b"])
        data = p.read_bytes()
        cut = tmp_path / "cut.tsw"
        for end in range(len(data)):
            cut.write_bytes(data[:end])
            with pytest.raises(CodecError):
                load_bundle(cut)

    def test_framing_errors_name_the_byte(self, tmp_path):
        sw, streams = _switch_streams(0)
        p = tmp_path / "full.tsw"
        save_bundle(p, [(sw.task_id, streams)], ["a", "b"])
        data = p.read_bytes()
        meta_at = len(data) - len(b'{"module_names": ["a", "b"]}')
        p.write_bytes(data[:meta_at - 2])
        with pytest.raises(CodecError,
                           match=f"metadata length cut short at byte "
                                 f"{meta_at - 4}"):
            load_container(p)
        p.write_bytes(data[:-1])
        with pytest.raises(CodecError, match=f"at byte {meta_at} runs past"):
            load_container(p)


def _with_metadata(tmp_path, meta: bytes, tail: bytes = b""):
    """A saved bundle whose metadata block is replaced by raw bytes."""
    sw, streams = _switch_streams(0)
    p = tmp_path / "meta.tsw"
    save_bundle(p, [(sw.task_id, streams)], ["a", "b"])
    data = p.read_bytes()
    meta_at = len(data) - len(b'{"module_names": ["a", "b"]}')
    p.write_bytes(data[:meta_at - 4] + struct.pack("<I", len(meta)) + meta
                  + tail)
    return p, meta_at


class TestContainerMetadata:
    def test_metadata_not_an_object(self, tmp_path):
        p, meta_at = _with_metadata(tmp_path, b"[]")
        with pytest.raises(CodecError, match=f"meta.tsw: metadata at byte "
                                             f"{meta_at} is not a JSON object"):
            load_container(p)

    def test_metadata_not_json(self, tmp_path):
        p, meta_at = _with_metadata(tmp_path, b"{x")
        with pytest.raises(CodecError, match=f"meta.tsw: metadata at byte "
                                             f"{meta_at} is not valid JSON"):
            load_container(p)
        p, _ = _with_metadata(tmp_path, b'{"a": "\xff"}')
        with pytest.raises(CodecError, match="not valid JSON"):
            load_container(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        meta = b'{"module_names": ["a", "b"]}'
        p, meta_at = _with_metadata(tmp_path, meta, tail=b"junk")
        with pytest.raises(CodecError, match=f"meta.tsw: 4 trailing bytes at "
                                             f"byte {meta_at + len(meta)}"):
            load_bundle(p)


class TestTaskIds:
    def test_non_utf8_task_id_names_the_byte(self, tmp_path):
        sw, streams = _switch_streams(0)
        p = tmp_path / "ids.tsw"
        save_bundle(p, [(sw.task_id, streams)], ["a", "b"])
        data = bytearray(p.read_bytes())
        assert data[9:14] == b"task0"    # magic, version, count, id length
        data[9] = 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(CodecError, match="ids.tsw: task id is not UTF-8 "
                                             "at byte 9"):
            load_container(p)


class TestParamsFile:
    def test_round_trip_is_float32_exact(self, tmp_path):
        spec = MlpSpec((6, 5, 3))
        ps = init_params(spec, seed=4)
        p = tmp_path / "params.tsw"
        save_params(p, spec, ps, name="base")
        spec2, ps2, name = load_params(p)
        assert spec2 == spec and name == "base"
        for (n1, v1), (n2, v2) in zip(ps.modules, ps2.modules):
            assert n1 == n2
            np.testing.assert_array_equal(
                v2, v1.astype(np.float32).astype(np.float64))

    def test_scale_one_load_is_bit_equal_to_the_stored_floats(self, tmp_path):
        # the loaded arrays are the decoder's own when the scale is 1.0;
        # x * 1.0 is x bit for bit, -0.0 and subnormals included
        spec = MlpSpec((4, 3, 2))
        ps = init_params(spec, seed=1)
        tiny = float(np.finfo(np.float32).smallest_subnormal)
        first = ps.modules[0][1]
        first[:6] = [-0.0, 0.0, tiny, -tiny, 3.4e38, -1e-30]
        p = tmp_path / "base.tswp"
        save_params(p, spec, ps)
        _, loaded, _ = load_params(p)
        for (_, want), (_, got) in zip(ps.modules, loaded.modules):
            stored = want.astype(np.float32).astype(np.float64)
            assert got.dtype == np.float64
            assert got.tobytes() == (stored * 1.0).tobytes()

    def test_scaled_dense_stream_loads_scaled(self, tmp_path):
        from taskswitch.codec import encode_dense
        spec = MlpSpec((4, 3, 2))
        ps = init_params(spec, seed=2)
        p = tmp_path / "half.tswp"
        save_container(p, [("m", [encode_dense(v, 0.5)
                                  for _, v in ps.modules])],
                       metadata={"model": spec.to_dict(),
                                 "module_names": ps.names})
        _, loaded, _ = load_params(p)
        for (_, want), (_, got) in zip(ps.modules, loaded.modules):
            stored = want.astype(np.float32).astype(np.float64)
            assert got.tobytes() == (stored * 0.5).tobytes()

    def test_loads_return_separate_writable_arrays(self, tmp_path):
        spec = MlpSpec((4, 3, 2))
        p = tmp_path / "base.tswp"
        save_params(p, spec, init_params(spec, seed=3))
        (_, first, _), (_, second, _) = load_params(p), load_params(p)
        for (_, a), (_, b) in zip(first.modules, second.modules):
            assert a.flags.writeable and b.flags.writeable
            assert not np.shares_memory(a, b)
            before = b.copy()
            a += 1.0
            np.testing.assert_array_equal(b, before)

    def test_missing_model_metadata_rejected(self, tmp_path):
        _, streams = _switch_streams(0)
        p = tmp_path / "nomodel.tsw"
        save_container(p, [("x", streams)], metadata={})
        with pytest.raises(StructureError, match="layout"):
            load_params(p)

    def test_multi_task_params_file_rejected(self, tmp_path):
        spec = MlpSpec((4, 3, 2))
        from taskswitch.container import streams_from_params
        ps = init_params(spec, seed=0)
        p = tmp_path / "two.tsw"
        save_container(p, [("a", streams_from_params(ps)),
                           ("b", streams_from_params(ps))],
                       metadata={"model": spec.to_dict(),
                                 "module_names": ps.names})
        with pytest.raises(StructureError, match="one parameter set"):
            load_params(p)

    def test_compressed_bundle_rejected(self, tmp_path):
        # a compress bundle also holds one task and a model layout
        _, streams = _switch_streams(0)
        p = tmp_path / "task0.tswc"
        save_bundle(p, [("task0", streams)], ["a", "b"],
                    {"model": MlpSpec((4, 3, 2)).to_dict()})
        with pytest.raises(StructureError,
                           match=r"module 'a' is a (GROUPED|INDEP) stream, "
                                 "not a dense parameter stream") as exc:
            load_params(p)
        assert str(exc.value).startswith(f"{p}: ")


class TestModuleNames:
    def test_too_few_names_rejected(self, tmp_path):
        spec = MlpSpec((4, 3, 2))
        from taskswitch.container import streams_from_params
        ps = init_params(spec, seed=0)
        p = tmp_path / "short.tsw"
        save_container(p, [("m", streams_from_params(ps))],
                       metadata={"model": spec.to_dict(),
                                 "module_names": ps.names[:1]})
        with pytest.raises(StructureError,
                           match=f"short.tsw: 1 module names for "
                                 f"{len(ps.names)} modules"):
            load_params(p)
        # save_bundle runs the same rule, so such a bundle is written only
        # by hand
        _, streams = _switch_streams(0)
        with pytest.raises(StructureError, match="1 module names for 2"):
            save_bundle(p, [("t", streams)], ["a"])
        save_container(p, [("t", streams)], metadata={"module_names": ["a"]})
        with pytest.raises(StructureError, match="1 module names for 2"):
            load_bundle(p)


    @pytest.mark.parametrize("names", [5, "ab", ["a", 2], {"a": 1}])
    def test_names_not_a_list_of_strings_rejected(self, tmp_path, names):
        _, streams = _switch_streams(0)
        p = tmp_path / "names.tsw"
        save_container(p, [("t", streams)], metadata={"module_names": names})
        with pytest.raises(StructureError, match="names.tsw: module_names is "
                                                 "not a list of strings"):
            load_bundle(p)
        spec = MlpSpec((4, 3, 2))
        from taskswitch.container import streams_from_params
        save_container(p, [("m", streams_from_params(init_params(spec, 0)))],
                       metadata={"model": spec.to_dict(),
                                 "module_names": names})
        with pytest.raises(StructureError, match="not a list of strings"):
            load_params(p)


class TestModelLayout:
    SPEC = MlpSpec((4, 3, 2))

    def _params_file(self, tmp_path, model):
        from taskswitch.container import streams_from_params
        ps = init_params(self.SPEC, seed=0)
        p = tmp_path / "layout.tswp"
        save_container(p, [("m", streams_from_params(ps))],
                       metadata={"model": model, "module_names": ps.names})
        return p

    @pytest.mark.parametrize("widths", ["abc", [4], [], [4, "3", 2],
                                        [4, 3.0, 2], [4, -3, 2], [4, 0, 2],
                                        [4, True],
                                        None])
    def test_bad_widths_name_the_field(self, tmp_path, widths):
        model = {"activation": "tanh"}
        if widths is not None:
            model["widths"] = widths
        p = self._params_file(tmp_path, model)
        with pytest.raises(StructureError,
                           match="layout.tswp: model.widths is not a list"):
            load_params(p)

    @pytest.mark.parametrize("activation", [None, "gelu", ["tanh"], 3])
    def test_bad_activation_names_the_field(self, tmp_path, activation):
        model = {"widths": [4, 3, 2]}
        if activation is not None:
            model["activation"] = activation
        p = self._params_file(tmp_path, model)
        with pytest.raises(StructureError,
                           match="layout.tswp: model.activation is not one "
                                 "of tanh, relu"):
            load_params(p)

    def test_layout_not_an_object(self, tmp_path):
        p = self._params_file(tmp_path, [4, 3, 2])
        with pytest.raises(StructureError,
                           match="layout.tswp: model layout is not a JSON "
                                 "object"):
            load_params(p)

    def test_stored_layout_round_trips(self, tmp_path):
        p = self._params_file(tmp_path, self.SPEC.to_dict())
        spec, _, _ = load_params(p)
        assert spec == self.SPEC


class TestSparseFromDecoded:
    def test_scale_folded_into_values(self, tmp_path):
        # centers of width 2 over +-1: bin 2 is 0.25, bin 0 is -0.75
        from taskswitch.codec import decode, encode
        enc = encode(CompressedModule(8, np.array([1, 5]), np.array([2, 0]),
                                      2, 1.0, 1.0, 3.0))
        sv = sparse_from_decoded("t", [decode(enc.data)], ["m"])
        mod = dict(sv.modules)["m"]
        np.testing.assert_array_equal(mod.support, [1, 5])
        np.testing.assert_allclose(mod.values, [0.75, -2.25], rtol=1e-7)
        assert sv.total_size() == 8 and sv.total_nnz() == 2
        assert sv.sparsity() == pytest.approx(0.75)
