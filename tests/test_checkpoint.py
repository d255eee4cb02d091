"""Checkpoint container: format, integrity, and round trips."""

import re
import struct
import tempfile
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vicspeech.checkpoint import (
    CheckpointError,
    load_codebook,
    load_encoder,
    load_tensors,
    save_codebook,
    save_encoder,
    save_tensors,
)
from vicspeech.codebook import Codebook
from vicspeech.model import EncoderConfig, EncoderState, init_encoder, param_layout


def _rename_in_place(path, old: bytes, new: bytes) -> None:
    """Replace tensor name `old` with `new` of the same length in the
    checkpoint at `path`, and write a CRC that matches the edit."""
    assert len(old) == len(new)
    body = path.read_bytes()[:-4]
    assert body.count(old) == 1
    body = body.replace(old, new)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


class TestContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(7)}
        path = tmp_path / "x.ckpt"
        save_tensors(path, tensors)
        back = load_tensors(path)
        assert list(back) == ["a", "b"]
        for name in tensors:
            assert back[name].dtype == np.float32
            assert np.array_equal(back[name], tensors[name].astype(np.float32))

    def test_magic_and_layout(self, tmp_path):
        path = tmp_path / "y.ckpt"
        save_tensors(path, {"t": np.zeros(2)})
        raw = path.read_bytes()
        assert raw[:4] == b"HVIC"
        version, count = struct.unpack("<II", raw[4:12])
        assert version == 2 and count == 1

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "z.ckpt"
        save_tensors(path, {"t": np.arange(10.0)})
        data = path.read_bytes()
        path.write_bytes(data[:-6])
        with pytest.raises(CheckpointError):
            load_tensors(path)

    def test_payload_tamper_fails_crc(self, tmp_path):
        path = tmp_path / "w.ckpt"
        save_tensors(path, {"t": np.arange(10.0)})
        data = bytearray(path.read_bytes())
        data[-12] ^= 0xFF  # flip a payload byte, leave the CRC alone
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="CRC"):
            load_tensors(path)

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "v1.ckpt"
        save_tensors(path, {"t": np.zeros(2)})
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version 1"):
            load_tensors(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "v.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(CheckpointError, match="magic"):
            load_tensors(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "u.ckpt"
        save_tensors(path, {"t": np.zeros(3)})
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError):
            load_tensors(path)

    def test_non_utf8_tensor_name_named_with_path(self, tmp_path):
        path = tmp_path / "n.ckpt"
        save_tensors(path, {"ab": np.zeros(2)})
        _rename_in_place(path, b"ab", b"\xff\xfe")
        with pytest.raises(CheckpointError,
                           match=re.escape(f"{path}: tensor name is not UTF-8")):
            load_tensors(path)

    def test_dims_whose_product_overflows_are_truncation(self, tmp_path):
        """Dims of 2^31 x 2^31 x 4 items wrap around in int64; their exact
        product runs past the file's end."""
        path = tmp_path / "o.ckpt"
        body = (b"HVIC" + struct.pack("<IIH", 2, 1, 1) + b"t" + struct.pack("<I", 3)
                + struct.pack("<3I", 2**31, 2**31, 4) + bytes(16))
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: truncated")):
            load_tensors(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        """Two tensors of one name are an error, not a silent choice of one."""
        path = tmp_path / "d.ckpt"
        save_tensors(path, {"centroids": np.eye(3), "centroidz": 2.0 * np.eye(3)})
        _rename_in_place(path, b"centroidz", b"centroids")
        with pytest.raises(CheckpointError,
                           match=re.escape(f"{path}: tensor 'centroids' appears twice")):
            load_codebook(path)


_tensors = st.dictionaries(
    st.text(max_size=12),
    hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
               elements=st.floats(width=32)),
    max_size=4)


class TestContainerProperties:
    @settings(max_examples=60, deadline=None)
    @given(tensors=_tensors)
    def test_round_trip_is_lossless(self, tensors):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.ckpt"
            save_tensors(path, tensors)
            back = load_tensors(path)
        assert list(back) == list(tensors)
        for name, arr in tensors.items():
            assert back[name].dtype == np.float32 and back[name].shape == arr.shape
            assert back[name].tobytes() == arr.astype("<f4").tobytes()

    @settings(max_examples=60, deadline=None)
    @given(tensors=_tensors, pick=st.integers(0, 10**6), flip=st.integers(1, 255))
    def test_flipped_byte_rejected(self, tensors, pick, flip):
        """Every byte is covered: magic, version, names, shapes, payloads, CRC."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.ckpt"
            save_tensors(path, tensors)
            data = bytearray(path.read_bytes())
            data[pick % len(data)] ^= flip
            path.write_bytes(bytes(data))
            with pytest.raises(CheckpointError):
                load_tensors(path)


class TestEncoderCheckpoints:
    def test_missing_tensor_named_in_error(self, tmp_path):
        cfg = EncoderConfig(feature_dim=6, model_dim=8, n_blocks=1, mlp_hidden=12,
                            k_codewords=4)
        state = init_encoder(cfg, 0)
        path = tmp_path / "enc.ckpt"
        save_encoder(path, state)
        tensors = load_tensors(path)
        del tensors["head.bias"]
        save_tensors(path, tensors)
        with pytest.raises(CheckpointError, match="head.bias"):
            load_encoder(path)

    def test_edited_config_name_rejected(self, tmp_path):
        """The encoder config rides in a tensor name, which the CRC covers."""
        state = init_encoder(EncoderConfig(feature_dim=6, model_dim=8, n_blocks=1,
                                           mlp_hidden=12, k_codewords=4), 0)
        path = tmp_path / "enc.ckpt"
        save_encoder(path, state)
        data = path.read_bytes()
        assert data.count(b"|0.08|") == 1
        path.write_bytes(data.replace(b"|0.08|", b"|0.09|"))
        with pytest.raises(CheckpointError, match="CRC"):
            load_encoder(path)

    @settings(max_examples=25, deadline=None)
    @given(feature_dim=st.integers(1, 6), model_dim=st.integers(2, 6),
           n_blocks=st.integers(1, 2), mlp_hidden=st.integers(1, 6),
           k_codewords=st.integers(1, 6), mask_start_prob=st.floats(0.0, 1.0),
           mask_span=st.integers(1, 20))
    def test_every_config_field_round_trips(self, **values):
        """Each field is written with str and read back with its default's
        type, so every value, and the type of every value, survives."""
        assert set(values) == {f.name for f in fields(EncoderConfig)}
        cfg = EncoderConfig(**values)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "enc.ckpt"
            save_encoder(path, init_encoder(cfg, 0))
            loaded = load_encoder(path).config
        assert loaded == cfg
        for f in fields(EncoderConfig):
            assert type(getattr(loaded, f.name)) is type(f.default), f.name

    @pytest.mark.parametrize("old, new", [("|40|", "|4x|"), ("|0.08|", "|0.08|1|"),
                                          ("|0.08|", "|")])
    def test_malformed_config_name_named_with_path(self, tmp_path, old, new):
        """A config name whose CRC holds but whose values do not parse is a
        checkpoint error that names the file."""
        path = tmp_path / "enc.ckpt"
        save_encoder(path, init_encoder(EncoderConfig(), 0))
        tensors = {name.replace(old, new, 1): value
                   for name, value in load_tensors(path).items()}
        save_tensors(path, tensors)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: malformed encoder")):
            load_encoder(path)

    @pytest.mark.parametrize("old, new, reason", [
        ("|40|64|", "|40|1|", "invalid encoder config: model_dim must be >= 2"),
        ("|0.08|", "|1.5|", "mask_start_prob must be in [0, 1]")],
        ids=["model_dim", "mask_start_prob"])
    def test_invalid_config_value_named_with_path(self, tmp_path, old, new, reason):
        """A config name that parses to values the encoder rejects is a
        checkpoint error that names the file."""
        path = tmp_path / "enc.ckpt"
        save_encoder(path, init_encoder(EncoderConfig(), 0))
        tensors = {name.replace(old, new, 1): value
                   for name, value in load_tensors(path).items()}
        save_tensors(path, tensors)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: {reason}")):
            load_encoder(path)

    @pytest.mark.parametrize("n_configs", [0, 2])
    def test_one_config_tensor_required(self, tmp_path, n_configs):
        """No config tensor, or two that disagree, leaves the encoder undefined."""
        path = tmp_path / "enc.ckpt"
        save_encoder(path, init_encoder(EncoderConfig(), 0))
        tensors = load_tensors(path)
        config = next(name for name in tensors if name.startswith("meta."))
        if n_configs == 0:
            del tensors[config]
        else:
            tensors = {config.replace("|0.08|", "|0.5|"): np.zeros(0), **tensors}
        save_tensors(path, tensors)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: expected one tensor ")
                           + f".*found {n_configs}"):
            load_encoder(path)

    def test_teacher_and_fresh_student_checkpoints_byte_identical(self, tmp_path):
        """Stage-1 initialization contract: the student copy saves to the
        same bytes as the teacher."""
        cfg = EncoderConfig(feature_dim=6, model_dim=8, n_blocks=1, mlp_hidden=12,
                            k_codewords=4)
        teacher = init_encoder(cfg, 3)
        student = EncoderState.from_vector(cfg, teacher.to_vector())
        p1, p2 = tmp_path / "t.ckpt", tmp_path / "s.ckpt"
        save_encoder(p1, teacher)
        save_encoder(p2, student)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_equal_the_per_parameter_dict_form(self, tmp_path):
        """`save_encoder` writes the state's views of its vector: the file is
        the one that the config tensor and a dict of separate per-parameter
        arrays give."""
        cfg = EncoderConfig(feature_dim=6, model_dim=8, n_blocks=2, mlp_hidden=12,
                            k_codewords=4)
        state = init_encoder(cfg, 4)
        config = "meta.encoder_config|" + "|".join(str(getattr(cfg, f.name))
                                                   for f in fields(EncoderConfig))
        tensors = {config: np.zeros((0,))}
        for name, shape, part in param_layout(cfg):
            tensors[name] = state.to_vector()[part].reshape(shape).copy()
        p1, p2 = tmp_path / "views.ckpt", tmp_path / "dict.ckpt"
        save_encoder(p1, state)
        save_tensors(p2, tensors)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_encoder(p1)
        assert loaded.to_vector().tobytes() == state.to_vector().tobytes()
        assert not loaded.to_vector().flags.writeable


class TestCodebookCheckpoints:
    def test_single_centroids_tensor(self, tmp_path):
        cb = Codebook(centroids=np.arange(20.0).reshape(4, 5))
        path = tmp_path / "cb.ckpt"
        save_codebook(path, cb)
        tensors = load_tensors(path)
        assert list(tensors) == ["centroids"]
        back = load_codebook(path)
        assert np.array_equal(back.centroids, cb.centroids)
        assert back.k == 4 and back.feature_dim == 5

    @pytest.mark.parametrize("centroids, reason", [
        (np.arange(5.0), "centroids must be 2-D"),
        (np.ones((1, 3)), "codebook needs k >= 2"),
        (np.ones((3, 2)), "codebook contains duplicate centroids")],
        ids=["1-D", "one row", "duplicates"])
    def test_invalid_centroids_named_with_path(self, tmp_path, centroids, reason):
        path = tmp_path / "cb.ckpt"
        save_tensors(path, {"centroids": centroids})
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: {reason}")):
            load_codebook(path)
