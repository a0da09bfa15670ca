"""Checkpoint format and resume-equivalence tests."""

import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnalab import nn
from cnalab.checkpoint import load_checkpoint, save_checkpoint
from cnalab.data import LabeledDataset
from cnalab.errors import FormatError
from cnalab.optim import OptConfig, init_opt_state, train_epoch


def toy_setup(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(32, 3))
    y = rng.integers(0, 2, 32)
    ds = LabeledDataset(x, y, 2)
    specs = [nn.dense(3, 5), nn.relu(), nn.dense(5, 4), nn.relu(), nn.dense(4, 2)]
    net = nn.build_network(specs, 7, (3,))
    cfg = OptConfig(kind="adam", lr=0.01, batch_size=8)
    return ds, net, cfg


def test_roundtrip_bit_identical(tmp_path):
    ds, net, cfg = toy_setup()
    state = init_opt_state(net, cfg)
    train_epoch(net, ds, cfg, state, 1, 1)
    path = tmp_path / "ck.cnac"
    save_checkpoint(net, cfg, state, 1, path, seeds={"init": 7, "shuffle": 1})
    ck = load_checkpoint(path)
    assert ck.epoch == 1
    assert ck.seeds == {"init": 7, "shuffle": 1}
    for (i1, n1, a1), (i2, n2, a2) in zip(net.param_items(), ck.net.param_items()):
        assert (i1, n1) == (i2, n2)
        assert a1.tobytes() == a2.tobytes()
    for idx in state.m:
        for name in state.m[idx]:
            assert state.m[idx][name].tobytes() == ck.opt_state.m[idx][name].tobytes()
            assert state.v[idx][name].tobytes() == ck.opt_state.v[idx][name].tobytes()
    assert ck.opt_state.t == state.t
    assert ck.net.depth_map == net.depth_map


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.cnac"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_unknown_version_rejected(tmp_path):
    ds, net, cfg = toy_setup()
    path = tmp_path / "ck.cnac"
    save_checkpoint(net, cfg, init_opt_state(net, cfg), 0, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = np.uint32(99).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(path)


def test_truncated_rejected(tmp_path):
    ds, net, cfg = toy_setup()
    path = tmp_path / "ck.cnac"
    save_checkpoint(net, cfg, init_opt_state(net, cfg), 0, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 17])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    ds, net, cfg = toy_setup()
    path = tmp_path / "ck.cnac"
    save_checkpoint(net, cfg, init_opt_state(net, cfg), 0, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(path)


def test_resume_equals_uninterrupted_run(tmp_path):
    ds, net_a, cfg = toy_setup()
    state_a = init_opt_state(net_a, cfg)
    train_epoch(net_a, ds, cfg, state_a, 1, 1)
    train_epoch(net_a, ds, cfg, state_a, 1, 2)

    _, net_b, _ = toy_setup()
    state_b = init_opt_state(net_b, cfg)
    train_epoch(net_b, ds, cfg, state_b, 1, 1)
    path = tmp_path / "mid.cnac"
    save_checkpoint(net_b, cfg, state_b, 1, path)
    ck = load_checkpoint(path)
    train_epoch(ck.net, ds, ck.opt_config, ck.opt_state, 1, ck.epoch + 1)

    for (_, _, a), (_, _, b) in zip(net_a.param_items(), ck.net.param_items()):
        assert a.tobytes() == b.tobytes()


def bias_free_conv_setup():
    rng = np.random.default_rng(3)
    ds = LabeledDataset(rng.normal(size=(12, 1, 6, 6)), rng.integers(0, 3, 12), 3)
    specs = [nn.conv2d(1, 2, 3, bias=False), nn.relu(), nn.flatten(),
             nn.dense(2 * 4 * 4, 5, bias=False), nn.relu(), nn.dense(5, 3)]
    net = nn.build_network(specs, 3, (1, 6, 6))
    cfg = OptConfig(kind="adam", lr=0.01, batch_size=4)
    return ds, net, cfg


def test_roundtrip_bias_free_conv(tmp_path):
    ds, net, cfg = bias_free_conv_setup()
    state = init_opt_state(net, cfg)
    train_epoch(net, ds, cfg, state, 1, 1)
    path = tmp_path / "ck.cnac"
    save_checkpoint(net, cfg, state, 1, path)
    ck = load_checkpoint(path)
    assert [(i, n) for i, n, _ in ck.net.param_items()] == [(0, "W"), (3, "W"), (5, "W"),
                                                            (5, "b")]
    for (_, _, a), (_, _, b) in zip(net.param_items(), ck.net.param_items()):
        assert a.tobytes() == b.tobytes()
    assert ck.net.layer_shapes == net.layer_shapes
    assert ck.net.depth_map == net.depth_map == [0, 3]
    assert ck.opt_state.m.keys() == state.m.keys() and ck.opt_state.m[0].keys() == {"W"}
    assert nn.forward(ck.net, ds.inputs)[0].tobytes() == nn.forward(net, ds.inputs)[0].tobytes()


def rewrite_metadata(path, edit):
    """Apply edit to the parsed metadata of a checkpoint and write it back."""
    raw = path.read_bytes()
    meta_len = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    meta = json.loads(raw[12:12 + meta_len])
    edit(meta)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + np.uint32(len(meta_bytes)).tobytes() + meta_bytes
                     + raw[12 + meta_len:])


def test_load_rejects_param_shape_that_does_not_match_spec(tmp_path):
    _, net, cfg = bias_free_conv_setup()
    path = tmp_path / "ck.cnac"
    save_checkpoint(net, cfg, init_opt_state(net, cfg), 0, path)

    def reshape_first_kernel(meta):
        assert meta["blocks"][0] == {"name": "param/0/W", "shape": [2, 1, 3, 3]}
        meta["blocks"][0]["shape"] = [1, 2, 3, 3]     # same byte count, wrong layout
    rewrite_metadata(path, reshape_first_kernel)
    with pytest.raises(FormatError, match="do not match"):
        load_checkpoint(path)


def test_load_rejects_moments_that_do_not_match_params(tmp_path):
    _, net, cfg = bias_free_conv_setup()
    path = tmp_path / "ck.cnac"
    save_checkpoint(net, cfg, init_opt_state(net, cfg), 0, path)
    rewrite_metadata(path, lambda meta: meta["blocks"][4].update(name="adam_m/0/b"))
    with pytest.raises(FormatError, match="moment"):
        load_checkpoint(path)


@pytest.mark.parametrize("key,value", [("epoch", -1), ("epoch", 1.5), ("epoch", "2"),
                                       ("opt_t", -3), ("opt_t", 2.0), ("opt_t", True)])
def test_load_rejects_a_negative_or_non_integer_epoch_or_step(tmp_path, key, value):
    _, net, cfg = toy_setup()
    path = tmp_path / "ck.cnac"
    save_checkpoint(net, cfg, init_opt_state(net, cfg), 2, path)
    rewrite_metadata(path, lambda meta: meta.update({key: value}))
    with pytest.raises(FormatError, match="non-negative integers"):
        load_checkpoint(path)


_FUZZ_FILES = itertools.count()


@functools.cache
def fuzz_base(directory):
    _, net, cfg = bias_free_conv_setup()
    path = directory / "base.cnac"
    save_checkpoint(net, cfg, init_opt_state(net, cfg), 2, path, seeds={"init": 3})
    return path.read_bytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(edits=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)),
                      min_size=1, max_size=4))
def test_corrupt_metadata_raises_only_format_error(tmp_path_factory, edits):
    directory = tmp_path_factory.getbasetemp()
    raw = bytearray(fuzz_base(directory))
    meta_len = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    for pos, byte in edits:
        raw[12 + pos % meta_len] = byte
    # a fresh name per example: rewriting one file in place forces a flush each time
    path = directory / f"fuzz{next(_FUZZ_FILES)}.cnac"
    path.write_bytes(bytes(raw))
    try:
        ck = load_checkpoint(path)
    except FormatError:
        return
    finally:
        path.unlink()
    assert type(ck.epoch) is int and type(ck.opt_state.t) is int


def test_load_reads_each_block_into_its_array_without_a_file_buffer(tmp_path):
    import tracemalloc
    specs = [nn.dense(3072, 256), nn.relu(), nn.dense(256, 256), nn.relu(), nn.dense(256, 10)]
    net = nn.build_network(specs, 0, (3072,))
    cfg = OptConfig(kind="adam", lr=0.001)
    path = tmp_path / "wide.cnac"
    save_checkpoint(net, cfg, init_opt_state(net, cfg), 1, path)
    tracemalloc.start()
    try:
        ck = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * path.stat().st_size
    for (_, _, a), (_, _, b) in zip(net.param_items(), ck.net.param_items()):
        assert a.tobytes() == b.tobytes()


def grow_metadata_length(path):
    raw = bytearray(path.read_bytes())
    raw[8:12] = np.uint32(len(raw)).tobytes()
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("corrupt, message", [
    (grow_metadata_length, "truncated metadata"),
    (lambda path: rewrite_metadata(path, lambda meta: meta["blocks"][0].update(shape=[-2, 9])),
     "truncated parameter block param/0/W"),
    (lambda path: rewrite_metadata(path, lambda meta: meta["blocks"][0].update(
        shape=[2 ** 40])), "truncated parameter block param/0/W"),
], ids=["metadata-length", "negative-count", "oversized-count"])
def test_bad_lengths_are_format_errors(tmp_path, corrupt, message):
    _, net, cfg = bias_free_conv_setup()
    path = tmp_path / "ck.cnac"
    save_checkpoint(net, cfg, init_opt_state(net, cfg), 0, path)
    corrupt(path)
    with pytest.raises(FormatError, match=message):
        load_checkpoint(path)


def test_a_file_cut_short_while_read_is_a_format_error(tmp_path, monkeypatch):
    from types import SimpleNamespace

    from cnalab import checkpoint
    _, net, cfg = bias_free_conv_setup()
    path = tmp_path / "ck.cnac"
    save_checkpoint(net, cfg, init_opt_state(net, cfg), 0, path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    # the file's size as seen before the last block lost its tail
    monkeypatch.setattr(checkpoint.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
    with pytest.raises(FormatError, match="short read"):
        load_checkpoint(path)


def test_a_parameters_only_load_skips_the_moments(tmp_path):
    import tracemalloc
    specs = [nn.dense(3072, 256), nn.relu(), nn.dense(256, 256), nn.relu(), nn.dense(256, 10)]
    net = nn.build_network(specs, 0, (3072,))
    cfg = OptConfig(kind="adam", lr=0.001)
    path = tmp_path / "wide.cnac"
    save_checkpoint(net, cfg, init_opt_state(net, cfg), 4, path, seeds={"init": 0})
    tracemalloc.start()
    try:
        ck = load_checkpoint(path, moments=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    params = sum(arr.nbytes for _, _, arr in net.param_items())
    assert path.stat().st_size > 3 * params
    assert peak < 1.1 * params
    assert ck.opt_state is None and (ck.epoch, ck.seeds, ck.opt_config) == (4, {"init": 0}, cfg)
    for (_, _, a), (_, _, b) in zip(net.param_items(), ck.net.param_items()):
        assert a.tobytes() == b.tobytes()


def cut_last_bytes(path):
    path.write_bytes(path.read_bytes()[:-17])


def append_bytes(path):
    path.write_bytes(path.read_bytes() + b"xx")


@pytest.mark.parametrize("corrupt, message", [
    (cut_last_bytes, "truncated parameter block adam_v/5/b"),
    (append_bytes, "trailing"),
    (grow_metadata_length, "truncated metadata"),
    (lambda path: rewrite_metadata(path, lambda meta: meta["blocks"][4].update(
        name="adam_m/0/b")), "moment"),
    (lambda path: rewrite_metadata(path, lambda meta: meta["blocks"][5].update(
        shape=[2 ** 40])), "truncated parameter block adam_m/3/W"),
    (lambda path: rewrite_metadata(path, lambda meta: meta["blocks"][4].update(
        shape=[1, 2, 3, 3])), "moment"),
    (lambda path: rewrite_metadata(path, lambda meta: meta["blocks"][0].update(
        shape=[1, 2, 3, 3])), "do not match"),
], ids=["truncated", "trailing", "metadata-length", "moment-name", "moment-oversized",
        "moment-shape", "param-shape"])
def test_a_parameters_only_load_rejects_what_a_full_load_rejects(tmp_path, corrupt, message):
    _, net, cfg = bias_free_conv_setup()
    path = tmp_path / "ck.cnac"
    save_checkpoint(net, cfg, init_opt_state(net, cfg), 0, path)
    corrupt(path)
    for moments in (True, False):
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path, moments=moments)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edits=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)),
                      min_size=1, max_size=4))
def test_corrupt_metadata_fails_a_parameters_only_load_as_a_full_one(tmp_path_factory, edits):
    directory = tmp_path_factory.getbasetemp()
    raw = bytearray(fuzz_base(directory))
    meta_len = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    for pos, byte in edits:
        raw[12 + pos % meta_len] = byte
    path = directory / f"fuzz{next(_FUZZ_FILES)}.cnac"
    path.write_bytes(bytes(raw))
    try:
        outcomes = []
        for moments in (True, False):
            try:
                outcomes.append(load_checkpoint(path, moments=moments))
            except FormatError:
                outcomes.append(None)
    finally:
        path.unlink()
    full, params_only = outcomes
    assert (full is None) == (params_only is None)
    if full is not None:
        assert [a.tobytes() for _, _, a in full.net.param_items()] == \
            [a.tobytes() for _, _, a in params_only.net.param_items()]
