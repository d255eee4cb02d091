"""Named-tensor checkpoint container.

Binary layout, all integers little-endian:

    magic   4 bytes  b"HVIC"
    version u32      currently 1
    count   u32      number of tensors
    per tensor:
        name_len u16, name UTF-8 bytes, rank u32, dims u32 x rank,
        payload float32 LE (row-major)
    crc32   u32      CRC-32 of all payload bytes, in stored order

Round trips are lossless at float32; the CRC is verified on load and a
truncated or tampered file never yields partial state.
"""

from __future__ import annotations

import struct
import zlib
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
VERSION = 1

# The encoder config rides in a zero-length tensor whose NAME carries the
# exact field values (repr round-trips floats), keeping payloads pure float32.
_CONFIG_PREFIX = "meta.encoder_config|"


class CheckpointError(ValueError):
    pass


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write tensors in dict order as float32."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    payloads = []
    for name, arr in tensors.items():
        data = np.asarray(arr, dtype="<f4", order="C")  # ascontiguousarray would make a scalar 1-D
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        payload = data.tobytes()
        chunks.append(payload)
        payloads.append(payload)
    crc = zlib.crc32(b"".join(payloads)) & 0xFFFFFFFF
    chunks.append(struct.pack("<I", crc))
    Path(path).write_bytes(b"".join(chunks))


def load_tensors(path) -> dict[str, np.ndarray]:
    buf = Path(path).read_bytes()
    view = memoryview(buf)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(buf):
            raise CheckpointError(f"{path}: truncated checkpoint")
        out = view[pos : pos + n]
        pos += n
        return out

    if bytes(take(4)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic; not a checkpoint file")
    version, count = struct.unpack("<II", take(8))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    tensors: dict[str, np.ndarray] = {}
    payloads = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        n_items = int(np.prod(dims)) if rank else 1
        payload = take(4 * n_items)
        payloads.append(bytes(payload))
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    (crc_stored,) = struct.unpack("<I", take(4))
    if pos != len(buf):
        raise CheckpointError(f"{path}: trailing bytes after checkpoint")
    if zlib.crc32(b"".join(payloads)) & 0xFFFFFFFF != crc_stored:
        raise CheckpointError(f"{path}: CRC mismatch; file corrupt")
    return tensors


def _config_name(cfg: EncoderConfig) -> str:
    return _CONFIG_PREFIX + "|".join([
        str(cfg.feature_dim), str(cfg.model_dim), str(cfg.n_blocks),
        str(cfg.mlp_hidden), str(cfg.k_codewords), repr(cfg.mask_start_prob),
        str(cfg.mask_span)])


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
    fields = config_names[0][len(_CONFIG_PREFIX):].split("|")
    if len(fields) != 7:
        raise CheckpointError(f"{path}: malformed encoder config tensor name")
    cfg = EncoderConfig(
        feature_dim=int(fields[0]), model_dim=int(fields[1]), n_blocks=int(fields[2]),
        mlp_hidden=int(fields[3]), k_codewords=int(fields[4]),
        mask_start_prob=float(fields[5]), mask_span=int(fields[6]))
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
