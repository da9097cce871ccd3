"""Synthetic corpus: determinism, the fixed conditioning map, file format."""

import os
import struct

import numpy as np
import pytest

from vocaldiff import gen_pair, read_pair, target_transform, write_pair
from vocaldiff.errors import ConfigurationError, FormatError

HEADER = struct.Struct("<4sIIIQ")


def test_pairs_are_deterministic():
    a = gen_pair(17, length=32)
    b = gen_pair(17, length=32)
    assert np.array_equal(a.z_v, b.z_v) and np.array_equal(a.z_a, b.z_a)
    assert a.z_v.shape == (64, 32) and a.z_v.dtype == np.float32
    assert a.seed == 17 and a.length == 32


def test_distinct_seeds_give_distinct_pairs():
    assert not np.array_equal(gen_pair(0).z_v, gen_pair(1).z_v)


def test_length_validation():
    with pytest.raises(ConfigurationError):
        gen_pair(0, length=8)
    with pytest.raises(ConfigurationError, match="divisible by 8"):
        gen_pair(0, length=20)
    gen_pair(0, length=16)


def test_target_is_a_fixed_function_of_the_conditioning():
    # the map is corpus-wide: recomputing it from z_v must reproduce the
    # stored z_a up to float32 storage rounding
    for seed in (0, 5, 123):
        pair = gen_pair(seed)
        again = target_transform(pair.z_v)
        assert np.max(np.abs(again - pair.z_a)) <= 1e-6


def test_targets_from_different_seeds_do_not_match():
    a, b = gen_pair(2), gen_pair(3)
    mismatch = target_transform(b.z_v)
    corr = np.corrcoef(a.z_a.ravel(), mismatch.ravel())[0, 1]
    assert abs(corr) < 0.5


def test_corpus_statistics():
    flat = np.concatenate([gen_pair(s).z_a.ravel() for s in range(256)])
    assert abs(flat.mean()) <= 0.1
    assert abs(flat.std() - 1.0) <= 0.1
    flat_v = np.concatenate([gen_pair(s).z_v.ravel() for s in range(256)])
    assert abs(flat_v.mean()) <= 0.1
    assert abs(flat_v.std() - 1.0) <= 0.1


# ---------------------------------------------------------- file format

def test_round_trip_is_bitwise(tmp_path):
    pair = gen_pair(9, length=24)
    path = tmp_path / "pair.vlat"
    write_pair(pair, path)
    back = read_pair(path)
    assert np.array_equal(back.z_v, pair.z_v)
    assert np.array_equal(back.z_a, pair.z_a)
    assert back.seed == 9 and back.length == 24
    assert not list(tmp_path.glob("*.tmp.*"))  # atomic write left no temp


def test_failed_write_leaves_no_temp_file(tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()
    with pytest.raises(IsADirectoryError):
        write_pair(gen_pair(0, 16), taken)
    assert not list(tmp_path.glob("*.tmp.*"))


def write_raw(tmp_path, blob, name="bad.vlat"):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


def test_truncated_header_is_diagnosed(tmp_path):
    path = write_raw(tmp_path, b"VLAT\x01\x00")
    with pytest.raises(FormatError, match="truncated header"):
        read_pair(path)


def test_bad_magic_names_the_expected_tag(tmp_path):
    blob = HEADER.pack(b"XLAT", 1, 64, 16, 0) + b"\x00" * (2 * 64 * 16 * 4)
    with pytest.raises(FormatError, match=r'offset 0, expected "VLAT"'):
        read_pair(write_raw(tmp_path, blob))


def test_unsupported_version_is_diagnosed(tmp_path):
    blob = HEADER.pack(b"VLAT", 2, 64, 16, 0) + b"\x00" * (2 * 64 * 16 * 4)
    with pytest.raises(FormatError, match="version 2 at offset 4"):
        read_pair(write_raw(tmp_path, blob))


def test_wrong_channel_count_is_diagnosed(tmp_path):
    blob = HEADER.pack(b"VLAT", 1, 32, 16, 0) + b"\x00" * (2 * 32 * 16 * 4)
    with pytest.raises(FormatError, match="channel count 32 at offset 8"):
        read_pair(write_raw(tmp_path, blob))


def test_truncated_payload_is_diagnosed(tmp_path):
    pair = gen_pair(4, length=16)
    path = tmp_path / "cut.vlat"
    write_pair(pair, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(FormatError, match="truncated after offset"):
        read_pair(path)


def test_trailing_garbage_is_diagnosed(tmp_path):
    pair = gen_pair(4, length=16)
    path = tmp_path / "fat.vlat"
    write_pair(pair, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 3)
    with pytest.raises(FormatError, match="size"):
        read_pair(path)
