"""Named-tensor checkpoint container.

Binary layout, all integers little-endian:

    magic   4 bytes  b"HVIC"
    version u32      currently 2
    count   u32      number of tensors
    per tensor:
        name_len u16, name UTF-8 bytes, rank u32, dims u32 x rank,
        payload float32 LE (row-major)
    crc32   u32      CRC-32 of every byte before it

Round trips are lossless at float32. On load the magic, the version and
then the CRC are checked before anything is parsed, so a truncated or
tampered file, names included, never yields partial state. Version 1
files, whose CRC covered the payloads only, are rejected.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np

from .codebook import Codebook
from .model import EncoderConfig, EncoderState, param_layout

__all__ = [
    "CheckpointError",
    "save_tensors",
    "load_tensors",
    "save_encoder",
    "load_encoder",
    "save_codebook",
    "load_codebook",
]

MAGIC = b"HVIC"
VERSION = 2

# The encoder config rides in a zero-length tensor whose NAME carries every
# field's exact value, in field order (str round-trips Python floats), keeping
# payloads pure float32.
_CONFIG_PREFIX = "meta.encoder_config|"


class CheckpointError(ValueError):
    pass


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write tensors in dict order as float32."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, arr in tensors.items():
        data = np.asarray(arr, dtype="<f4", order="C")  # ascontiguousarray would make a scalar 1-D
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    body = b"".join(chunks)
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def load_tensors(path) -> dict[str, np.ndarray]:
    buf = Path(path).read_bytes()
    if buf[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic; not a checkpoint file")
    if len(buf) < 16:
        raise CheckpointError(f"{path}: truncated checkpoint")
    (version,) = struct.unpack_from("<I", buf, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}; "
                              f"this build reads version {VERSION} only")
    (crc_stored,) = struct.unpack_from("<I", buf, len(buf) - 4)
    if zlib.crc32(buf[:-4]) & 0xFFFFFFFF != crc_stored:
        raise CheckpointError(f"{path}: CRC mismatch; file corrupt")
    view = memoryview(buf)[: len(buf) - 4]
    pos = 8

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError(f"{path}: truncated checkpoint")
        out = view[pos : pos + n]
        pos += n
        return out

    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        n_items = int(np.prod(dims)) if rank else 1
        tensors[name] = np.frombuffer(take(4 * n_items), dtype="<f4").reshape(dims).copy()
    if pos != len(view):
        raise CheckpointError(f"{path}: trailing bytes after checkpoint")
    return tensors


def _config_name(cfg: EncoderConfig) -> str:
    return _CONFIG_PREFIX + "|".join(str(getattr(cfg, f.name)) for f in fields(EncoderConfig))


def save_encoder(path, state: EncoderState) -> None:
    cfg = state.config
    tensors = {_config_name(cfg): np.zeros((0,))}
    for name, _ in param_layout(cfg):
        tensors[name] = state.params[name]
    save_tensors(path, tensors)


def load_encoder(path) -> EncoderState:
    tensors = load_tensors(path)
    config_names = [n for n in tensors if n.startswith(_CONFIG_PREFIX)]
    if not config_names:
        raise CheckpointError(f"{path}: missing tensor {_CONFIG_PREFIX}*")
    values = config_names[0][len(_CONFIG_PREFIX):].split("|")
    try:  # a wrong field count or a value its field's type cannot parse
        parsed = {f.name: type(f.default)(value)
                  for f, value in zip(fields(EncoderConfig), values, strict=True)}
    except ValueError:
        raise CheckpointError(f"{path}: malformed encoder config tensor name") from None
    cfg = EncoderConfig(**parsed)
    params = {}
    for name, shape in param_layout(cfg):
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name}")
        if tensors[name].shape != shape:
            raise CheckpointError(f"{path}: tensor {name} has shape {tensors[name].shape}, expected {shape}")
        params[name] = tensors[name].astype(np.float64)
    return EncoderState(config=cfg, params=params)


def save_codebook(path, cb: Codebook) -> None:
    save_tensors(path, {"centroids": cb.centroids})


def load_codebook(path) -> Codebook:
    tensors = load_tensors(path)
    if "centroids" not in tensors:
        raise CheckpointError(f"{path}: missing tensor centroids")
    return Codebook(centroids=tensors["centroids"].astype(np.float64))
