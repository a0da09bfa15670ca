"""Versioned binary checkpoints.

Layout (all integers little-endian, documented in README):

    bytes 0-3   magic "CNAC"
    u32         format version (currently 1)
    u32         byte length of the metadata block
    ...         metadata: UTF-8 JSON holding the layer table (specs,
                input shape, depth-map flags, init seed), the epoch
                counter, optimizer config and step count, caller seeds,
                and the ordered block table [{name, shape}, ...]
    ...         one raw little-endian float64 array per table entry,
                row-major, concatenated in table order

A round trip reproduces parameters bit-identically: arrays are written
with tobytes() and read back with frombuffer(), no text formatting.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .csvio import replacing
from .errors import CnaLabError, FormatError
from .nn import LayerSpec, Network, _layout
from .optim import OptConfig, OptState

MAGIC = b"CNAC"
VERSION = 1


@dataclass
class Checkpoint:
    version: int
    net: Network
    opt_config: OptConfig
    opt_state: OptState
    epoch: int
    seeds: dict = field(default_factory=dict)


def _tables(params, opt_state):
    """Block-name prefix -> the {layer: {name: array}} table it stores."""
    return {"param": params, "adam_m": opt_state.m, "adam_v": opt_state.v}


def save_checkpoint(net, opt_config, opt_state, epoch, path, seeds=None):
    blocks, arrays = [], []
    for prefix, table in _tables(net.params, opt_state).items():
        for idx in sorted(table):
            for name in sorted(table[idx]):
                arr = table[idx][name]
                blocks.append({"name": f"{prefix}/{idx}/{name}", "shape": list(arr.shape)})
                arrays.append(arr)

    meta = {
        "specs": [asdict(s) for s in net.specs],
        "input_shape": list(net.input_shape),
        "aggregation": net.aggregation,
        "include_output": net.include_output,
        "init_seed": net.init_seed,
        "epoch": int(epoch),
        "opt": asdict(opt_config),
        "opt_t": int(opt_state.t),
        "seeds": seeds or {},
        "blocks": blocks,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with replacing(path, "wb") as fh:
        fh.write(MAGIC + np.array([VERSION, len(meta_bytes)], dtype="<u4").tobytes() + meta_bytes)
        fh.writelines(np.ascontiguousarray(arr, dtype="<f8") for arr in arrays)


def load_checkpoint(path):
    """Read a .cnac file; a malformed or inconsistent one raises FormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    version = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    meta_len = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    if len(raw) < 12 + meta_len:
        raise FormatError(f"{path}: truncated metadata")
    try:
        meta = json.loads(raw[12:12 + meta_len].decode("utf-8"))
        return _from_meta(meta, raw, 12 + meta_len, version)
    except (ValueError, KeyError, TypeError, AttributeError, ArithmeticError, CnaLabError) as exc:
        raise FormatError(f"{path}: bad checkpoint ({type(exc).__name__}: {exc})") from exc


def _from_meta(meta, raw, offset, version):
    """Checkpoint from parsed metadata and the raw file bytes. Any
    inconsistency among metadata, blocks and layer specs raises; the
    caller reports it as a FormatError."""
    if not all(type(meta[key]) is int and meta[key] >= 0 for key in ("epoch", "opt_t")):
        raise FormatError("epoch and optimizer step must be non-negative integers")
    params = {}
    state = OptState(t=meta["opt_t"])
    tables = _tables(params, state)
    for block in meta["blocks"]:
        shape = tuple(block["shape"])
        count = int(np.prod(shape))
        if not 0 <= count * 8 <= len(raw) - offset:
            raise FormatError(f"truncated parameter block {block['name']}")
        prefix, idx, name = block["name"].split("/")
        if prefix not in tables:
            raise FormatError(f"unknown block prefix {prefix!r}")
        tables[prefix].setdefault(int(idx), {})[name] = np.frombuffer(
            raw, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += count * 8
    if offset != len(raw):
        raise FormatError(f"{len(raw) - offset} trailing bytes after last block")
    if any(table and _layout(table) != _layout(params) for table in (state.m, state.v)):
        raise FormatError("optimizer moment blocks do not match the parameters")

    net = Network(specs=[LayerSpec(**d) for d in meta["specs"]], params=params,
                  input_shape=meta["input_shape"], aggregation=meta["aggregation"],
                  include_output=meta["include_output"], init_seed=meta["init_seed"])
    return Checkpoint(version=version, net=net, opt_config=OptConfig(**meta["opt"]),
                      opt_state=state, epoch=meta["epoch"], seeds=meta.get("seeds", {}))
