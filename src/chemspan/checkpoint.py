"""Versioned binary checkpoint container and model save/load wrappers.

The exact byte layout is documented in docs/checkpoint-format.md. In short:
an 8-byte magic, a fixed little-endian header (format version, encoder dim,
block count, seed), a length-prefixed JSON blob for everything else (model
kind, full config), then a length-prefixed array section of float64 data.
"""

import json
import math
import os
import struct
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from .config import PipelineConfig
from .errors import CheckpointError
from .ner import NerModel
from .relation import RelationModel

MAGIC = b"CSPNCKPT"
FORMAT_VERSION = 1
HEADER = struct.Struct("<III q")  # format version, encoder dim, block count, seed


def checkpoint_bytes(kind: str, dim: int, blocks: int, seed: int,
                     config: dict, params: Dict[str, np.ndarray]) -> bytes:
    """The checkpoint file's bytes; a value the header cannot hold raises struct.error."""
    blob = json.dumps({"kind": kind, "config": config}, sort_keys=True).encode("utf-8")
    parts = [MAGIC, HEADER.pack(FORMAT_VERSION, dim, blocks, seed),
             struct.pack("<I", len(blob)), blob, struct.pack("<I", len(params))]
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        raw_name = name.encode("utf-8")
        parts += [struct.pack("<H", len(raw_name)), raw_name, struct.pack("<B", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    return b"".join(parts)


def save_checkpoint(path, kind: str, dim: int, blocks: int, seed: int,
                    config: dict, params: Dict[str, np.ndarray]) -> None:
    Path(path).write_bytes(checkpoint_bytes(kind, dim, blocks, seed, config, params))


def _read_exact(fh, size, what):
    # checked first: read(size) allocates size bytes before it sees the end of file
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise CheckpointError(f"{fh.name}: truncated checkpoint: {what} needs "
                              f"{size} bytes, {left} remain")
    data = fh.read(size)
    if len(data) != size:
        raise CheckpointError(f"{fh.name}: truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path) -> Tuple[str, dict, Tuple[int, int, int], Dict[str, np.ndarray]]:
    """Returns (kind, config, (dim, blocks, seed), params)."""
    with open(path, "rb") as fh:
        if _read_exact(fh, len(MAGIC), "magic") != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        version, dim, blocks, seed = HEADER.unpack(_read_exact(fh, HEADER.size, "header"))
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})")
        if seed < 0:  # the header field is an i64, so the upper end of [0, 2**63) holds
            raise CheckpointError(f"{path}: header seed {seed} is outside [0, 2**63)")
        (blob_len,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
        try:
            meta = json.loads(_read_exact(fh, blob_len, "config").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt config blob ({exc})") from None
        if not (isinstance(meta, dict) and isinstance(meta.get("kind"), str)
                and isinstance(meta.get("config"), dict)):
            raise CheckpointError(f"{path}: config blob lacks a 'kind' string "
                                  "or a 'config' object")
        (n_arrays,) = struct.unpack("<I", _read_exact(fh, 4, "array count"))
        params: Dict[str, np.ndarray] = {}
        for _ in range(n_arrays):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "array name length"))
            try:
                name = _read_exact(fh, name_len, "array name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: corrupt array name ({exc})") from None
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "array rank"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, "array shape"))
            data = _read_exact(fh, 8 * math.prod(shape), f"array data for {name}")
            try:
                params[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
            except ValueError as exc:  # e.g. a zero dimension beside huge ones
                raise CheckpointError(f"{path}: array {name} has unusable shape "
                                      f"({exc})") from None
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after array section")
    return meta["kind"], meta["config"], (dim, blocks, seed), params


# ---------------------------------------------------------------------------
# model wrappers

# a checkpoint's kind -> the model class it holds
KINDS = {"ner": NerModel, "re": RelationModel}


def model_bytes(model) -> bytes:
    """A span or relation model's checkpoint: config, seed, and every array."""
    kind = next(k for k, cls in KINDS.items() if isinstance(model, cls))
    return checkpoint_bytes(kind, model.encoder.dim, model.encoder.blocks,
                            model.seed, model.config.to_dict(), model.parameters())


def _load_model(path, expected_kind: str):
    kind, config, (dim, blocks, seed), params = load_checkpoint(path)
    if kind != expected_kind:
        raise CheckpointError(
            f"{path}: checkpoint holds a {kind!r} model, expected {expected_kind!r}")
    config.pop("seeds", None)  # a setting older checkpoints carry and nothing reads
    # the blob is outside input: a bad key, value or variant is corruption here
    try:
        cfg = PipelineConfig.from_dict(config)
        if (dim, blocks) != (cfg.encoder.dim, cfg.encoder.blocks):
            raise CheckpointError(
                f"{path}: header says dim={dim}, blocks={blocks}; config blob says "
                f"dim={cfg.encoder.dim}, blocks={cfg.encoder.blocks}")
        model = KINDS[expected_kind](cfg, seed)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckpointError(f"{path}: config blob does not build a model ({exc})") from None
    current = model.parameters()
    if set(current) != set(params):
        missing = sorted(set(current) ^ set(params))
        raise CheckpointError(f"{path}: parameter names do not match the config "
                              f"(mismatched: {missing[:5]})")
    for name, value in params.items():
        if current[name].shape != value.shape:
            raise CheckpointError(f"{path}: array {name} has shape {value.shape}, "
                                  f"config implies {current[name].shape}")
        if not np.isfinite(value).all():
            raise CheckpointError(f"{path}: array {name} holds NaN or infinity")
        current[name][...] = value
    return model


def _save_model(path, model, expected_kind: str) -> None:
    if not isinstance(model, KINDS[expected_kind]):
        kind = next((k for k, cls in KINDS.items() if isinstance(model, cls)), None)
        raise CheckpointError(f"{path}: model is a {kind!r} model, expected {expected_kind!r}")
    Path(path).write_bytes(model_bytes(model))


def save_ner_model(path, model) -> None:
    _save_model(path, model, "ner")


def load_ner_model(path):
    return _load_model(path, "ner")


def save_re_model(path, model) -> None:
    _save_model(path, model, "re")


def load_re_model(path):
    return _load_model(path, "re")
