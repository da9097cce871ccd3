"""Checkpoint serialization: exact round trips and corruption diagnostics."""

import re
import struct

import numpy as np
import pytest

import vocaldiff
from vocaldiff import (TrainConfig, UNetConfig, init_model_params,
                       load_checkpoint, save_checkpoint)
from vocaldiff.checkpoint import (config_text, parse_config_text,
                                  unet_config_from)
from vocaldiff.errors import ConfigurationError, ContractError, FormatError
from vocaldiff.tensor import Tensor
from vocaldiff.unet import ModelParams


@pytest.fixture(scope="module")
def small_params():
    return init_model_params(UNetConfig.for_width(1 / 16), seed=21,
                             zero_init_head=False)


def test_round_trip_is_bitwise(tmp_path, small_params):
    path = tmp_path / "model.vdif"
    save_checkpoint(path, small_params, step=137,
                    train_cfg=TrainConfig(batch=4), extra={"length": 64})
    params, cfg_map, step = load_checkpoint(path)
    assert step == 137
    assert set(params.tensors) == set(small_params.tensors)
    for name, t in small_params.items():
        got = params[name]
        assert got.shape == t.shape
        assert np.array_equal(got.data, t.data), name
    assert cfg_map["length"] == "64"
    assert cfg_map["batch"] == "4"
    assert params.config == small_params.config
    assert not list(tmp_path.glob("*.tmp.*"))


def test_non_float32_tensors_are_rejected(tmp_path):
    cfg = UNetConfig.for_width(1 / 16)
    params = init_model_params(cfg, seed=0, dtype=np.float64)
    with pytest.raises(ContractError, match="float32"):
        save_checkpoint(tmp_path / "x.vdif", params, step=0)


def test_bad_magic_is_diagnosed(tmp_path, small_params):
    path = tmp_path / "model.vdif"
    save_checkpoint(path, small_params, step=1)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"JUNK"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match='expected "VDIF"'):
        load_checkpoint(path)


def test_truncation_names_the_failing_field(tmp_path, small_params):
    path = tmp_path / "model.vdif"
    save_checkpoint(path, small_params, step=1)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError, match="truncated .* at offset"):
        load_checkpoint(path)


def test_duplicate_tensor_name_is_diagnosed(tmp_path):
    cfg_blob = config_text(UNetConfig.for_width(1 / 16)).encode()
    record = struct.pack("<H1sB1I", 1, b"w", 1, 2) + np.zeros(2, "<f4").tobytes()
    blob = (b"VDIF" + struct.pack("<I", 1)
            + struct.pack("<I", len(cfg_blob)) + cfg_blob
            + record + record + struct.pack("<Q", 0))
    path = tmp_path / "dup.vdif"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="duplicate tensor name 'w'"):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", ((2 ** 32 - 1,) * 3, (1 << 20,)))
def test_a_claimed_size_past_the_file_is_truncation(tmp_path, dims):
    # the first claim overflows an index-sized integer, the second is only
    # far larger than the file; neither may reach a read
    cfg_blob = config_text(UNetConfig.for_width(1 / 16)).encode()
    record = (struct.pack(f"<H6sB{len(dims)}I", 6, b"stem.w", len(dims),
                          *dims) + bytes(16))
    path = tmp_path / "huge.vdif"
    path.write_bytes(b"VDIF" + struct.pack("<I", 1)
                     + struct.pack("<I", len(cfg_blob)) + cfg_blob
                     + record + struct.pack("<Q", 0))
    with pytest.raises(FormatError,
                       match="truncated data of 'stem.w' at offset .* "
                             r"have 16\)"):
        load_checkpoint(path)


def test_load_draws_no_model(tmp_path, small_params, monkeypatch):
    path = tmp_path / "model.vdif"
    save_checkpoint(path, small_params, step=3)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a model")

    for module in (vocaldiff.rng, vocaldiff.unet, vocaldiff.attention):
        for name in ("init_params", "substream"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    params, _, step = load_checkpoint(path)
    assert step == 3
    assert list(params.tensors) == list(small_params.tensors)


def test_step_counter_residue_is_diagnosed(tmp_path, small_params):
    path = tmp_path / "model.vdif"
    save_checkpoint(path, small_params, step=1)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError, match="truncated|step counter"):
        load_checkpoint(path)


def test_unsupported_version_is_diagnosed(tmp_path, small_params):
    path = tmp_path / "model.vdif"
    save_checkpoint(path, small_params, step=1)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="unsupported version 9"):
        load_checkpoint(path)


def test_tensors_are_checked_against_the_configured_model(tmp_path,
                                                         small_params):
    path = tmp_path / "model.vdif"
    good = dict(small_params.tensors)
    stem = good["stem.w"].shape
    cases = (
        ({k: v for k, v in good.items() if k != "head.conv.w"},
         "'head.conv.w' is missing"),
        ({**good, "extra.w": Tensor(np.zeros(3, np.float32))},
         "'extra.w' is not part of the configured model"),
        ({**good, "stem.w": Tensor(np.zeros(stem[::-1], np.float32))},
         f"'stem.w' has shape {stem[::-1]}, the configured model needs "
         f"{stem}"),
    )
    for tensors, message in cases:
        save_checkpoint(path, ModelParams(small_params.config, tensors),
                        step=1)
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(path)


# ------------------------------------------------------------- config

def test_config_text_round_trip():
    cfg = UNetConfig.for_width(1 / 8)
    text = config_text(cfg, TrainConfig(), extra={"length": 32})
    parsed = parse_config_text(text)
    rebuilt = unet_config_from(parsed)
    assert rebuilt == cfg
    assert parsed["length"] == "32"
    assert parsed["lr"] == "0.00035"


def test_config_lines_are_sorted_and_flat():
    lines = config_text(UNetConfig()).strip().splitlines()
    keys = [line.split("=")[0] for line in lines]
    assert keys == sorted(keys)
    assert "channel_ladder=64,128,256,512" in lines


def test_config_text_without_equals_is_rejected():
    with pytest.raises(FormatError, match="line 2"):
        parse_config_text("a=1\nnonsense\n")


def test_missing_config_key_is_diagnosed():
    with pytest.raises(ConfigurationError, match="missing"):
        unet_config_from({"groups": "8"})
    malformed = parse_config_text(config_text(UNetConfig.for_width(1 / 16)))
    malformed["groups"] = "x4"
    with pytest.raises(ConfigurationError, match="malformed.*'x4'"):
        unet_config_from(malformed)
