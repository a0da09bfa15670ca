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

A round trip reproduces parameters bit-identically: arrays are written raw
and each is read back with readinto() into its own array, no text formatting.
"""

import json
import os
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


def load_checkpoint(path, moments=True):
    """Read a .cnac file; a malformed or inconsistent one raises FormatError.
    With moments=False only the parameters are read: the Adam moment blocks
    are checked (size and layout) and skipped, and opt_state is None."""
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size - 12
        head = fh.read(12)
        if len(head) < 12 or head[:4] != MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic")
        version, meta_len = (int(v) for v in np.frombuffer(head[4:], dtype="<u4"))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        if meta_len > left:
            raise FormatError(f"{path}: truncated metadata")
        try:
            meta = json.loads(fh.read(meta_len).decode("utf-8"))
            return _from_meta(meta, fh, left - meta_len, moments)
        except (ValueError, KeyError, TypeError, AttributeError, ArithmeticError,
                CnaLabError) as exc:
            raise FormatError(f"{path}: bad checkpoint ({type(exc).__name__}: {exc})") from exc


def _from_meta(meta, fh, left, moments):
    """Checkpoint from parsed metadata and the file at its first block, left
    bytes before its end; a block is read (or, for a moment block when not
    moments, seeked past, its layout kept as a zero-byte view) once its size
    fits in them. Any inconsistency raises; the caller reports it as a
    FormatError."""
    if not all(type(meta[key]) is int and meta[key] >= 0 for key in ("epoch", "opt_t")):
        raise FormatError("epoch and optimizer step must be non-negative integers")
    params = {}
    state = OptState(t=meta["opt_t"])
    tables = _tables(params, state)
    for block in meta["blocks"]:
        shape = tuple(block["shape"])
        count = int(np.prod(shape))
        if not 0 <= count * 8 <= left:
            raise FormatError(f"truncated parameter block {block['name']}")
        prefix, idx, name = block["name"].split("/")
        if prefix not in tables:
            raise FormatError(f"unknown block prefix {prefix!r}")
        if moments or prefix == "param":
            arr = tables[prefix].setdefault(int(idx), {})[name] = np.empty(shape, dtype="<f8")
            if fh.readinto(arr) != count * 8:
                raise FormatError(f"short read of parameter block {block['name']}")
        else:
            tables[prefix].setdefault(int(idx), {})[name] = np.broadcast_to(0.0, shape)
            fh.seek(count * 8, os.SEEK_CUR)
        left -= count * 8
    if left:
        raise FormatError(f"{left} trailing bytes after last block")
    if any(table and _layout(table) != _layout(params) for table in (state.m, state.v)):
        raise FormatError("optimizer moment blocks do not match the parameters")

    net = Network(specs=[LayerSpec(**d) for d in meta["specs"]], params=params,
                  input_shape=meta["input_shape"], aggregation=meta["aggregation"],
                  include_output=meta["include_output"], init_seed=meta["init_seed"])
    return Checkpoint(net=net, opt_config=OptConfig(**meta["opt"]),
                      opt_state=state if moments else None, epoch=meta["epoch"],
                      seeds=meta.get("seeds", {}))
