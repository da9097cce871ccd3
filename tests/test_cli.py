"""End-to-end command behavior through the argparse entry point."""

import struct

import numpy as np
import pytest

from vocaldiff import (build_cosine_schedule, encode_vocal, forward_diffuse,
                       load_checkpoint, read_pair, save_checkpoint,
                       unet_forward)
from vocaldiff.checkpoint import config_text
from vocaldiff.cli import main
from vocaldiff.rng import substream


def run_gen(dirpath, count=4, length=16, seed=0):
    argv = ["gen-data", "--count", str(count), "--length", str(length),
            "--seed", str(seed), "--out", str(dirpath)]
    assert main(argv) == 0


def run_train(data_dir, ckpt, log, steps=2):
    argv = ["train", "--data", str(data_dir), "--steps", str(steps),
            "--batch", "2", "--timesteps", "20", "--width-mult", "0.0625",
            "--length", "16", "--out", str(ckpt), "--log", str(log)]
    assert main(argv) == 0


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    ckpt = root / "model.vdif"
    log = root / "train.csv"
    run_gen(data)
    run_train(data, ckpt, log)
    return {"data": data, "ckpt": ckpt, "log": log}


def test_gen_data_writes_a_deterministic_corpus(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_gen(a, count=3)
    out = capsys.readouterr().out
    assert "wrote 3 pairs (length 16)" in out
    assert "corpus mean" in out
    files = sorted(p.name for p in a.glob("*.vlat"))
    assert files == [f"pair_{i:06d}.vlat" for i in range(3)]
    run_gen(b, count=3)
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_data_empty_corpus(tmp_path, capsys):
    run_gen(tmp_path / "none", count=0)
    assert "corpus empty: no statistics" in capsys.readouterr().out


def test_train_reports_parameters_and_writes_artifacts(tmp_path, capsys):
    data = tmp_path / "data"
    run_gen(data)
    ckpt, log = tmp_path / "m.vdif", tmp_path / "log.csv"
    run_train(data, ckpt, log)
    out = capsys.readouterr().out
    assert "parameters:" in out and "width_mult 0.0625" in out
    assert "  head" in out  # per-group breakdown
    assert "finished at step 2" in out

    rows = log.read_text().strip().splitlines()
    assert rows[0] == "step,train_loss,val_loss" and len(rows) == 3

    params, cfg_map, step = load_checkpoint(ckpt)
    assert step == 2
    assert cfg_map["length"] == "16" and cfg_map["timesteps"] == "20"
    assert float(cfg_map["width_mult"]) == pytest.approx(0.0625)


def test_train_rejects_too_few_pairs(tmp_path, capsys):
    data = tmp_path / "data"
    run_gen(data, count=1)
    argv = ["train", "--data", str(data), "--steps", "1", "--batch", "4",
            "--length", "16", "--out", str(tmp_path / "m.vdif"),
            "--log", str(tmp_path / "l.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_train_rejects_length_mismatch(tmp_path, capsys):
    data = tmp_path / "data"
    run_gen(data)
    argv = ["train", "--data", str(data), "--steps", "1", "--batch", "2",
            "--length", "64", "--out", str(tmp_path / "m.vdif"),
            "--log", str(tmp_path / "l.csv")]
    assert main(argv) == 1
    assert "length" in capsys.readouterr().err


def test_sample_writes_latent_and_trace(tmp_path, trained, capsys):
    vocal = sorted(trained["data"].glob("*.vlat"))[0]
    out, trace = tmp_path / "gen.vlat", tmp_path / "trace.csv"
    argv = ["sample", "--ckpt", str(trained["ckpt"]), "--vocal", str(vocal),
            "--guidance", "1.0", "--seed", "3", "--out", str(out),
            "--trace", str(trace)]
    assert main(argv) == 0
    assert "sampled" in capsys.readouterr().out

    produced = read_pair(out)
    original = read_pair(vocal)
    assert np.array_equal(produced.z_v, original.z_v)
    assert produced.z_a.shape == (64, 16)
    assert np.all(np.isfinite(produced.z_a))

    rows = trace.read_text().strip().splitlines()
    assert rows[0] == "t,mean_v,std_v,clamp_frac"
    assert len(rows) == 21  # one record per reverse step
    assert [int(r.split(",")[0]) for r in rows[1:4]] == [20, 19, 18]
    assert all(0.0 <= float(r.split(",")[3]) <= 1.0 for r in rows[1:])


def test_sample_rejects_mismatched_length(tmp_path, trained, capsys):
    other = tmp_path / "long"
    run_gen(other, count=1, length=24)
    vocal = sorted(other.glob("*.vlat"))[0]
    argv = ["sample", "--ckpt", str(trained["ckpt"]), "--vocal", str(vocal),
            "--out", str(tmp_path / "x.vlat"),
            "--trace", str(tmp_path / "t.csv")]
    assert main(argv) == 1
    assert "length" in capsys.readouterr().err


def test_analyze_writes_spread_profile(tmp_path, trained, capsys):
    csv = tmp_path / "spread.csv"
    argv = ["analyze", "--ckpt", str(trained["ckpt"]),
            "--data", str(trained["data"]), "--csv", str(csv),
            "--count", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "first decile" in out and "last decile" in out

    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "t,std_v"
    assert len(rows) == 21
    assert all(float(r.split(",")[1]) >= 0.0 for r in rows[1:])


def test_analyze_matches_a_per_pair_computation(tmp_path, trained):
    # analyze runs all pairs as one batch per timestep; the profile must be
    # the per-pair one, drawn in the same order, up to float32 rounding in
    # the batched GEMMs (1e-5 is about 80 float32 epsilons)
    csv = tmp_path / "spread.csv"
    assert main(["analyze", "--ckpt", str(trained["ckpt"]),
                 "--data", str(trained["data"]), "--csv", str(csv),
                 "--count", "3", "--seed", "5"]) == 0
    got = [float(r.split(",")[1])
           for r in csv.read_text().strip().splitlines()[1:]]

    params, _, _ = load_checkpoint(trained["ckpt"])
    pairs = [read_pair(p) for p in sorted(trained["data"].glob("*.vlat"))[:3]]
    sched = build_cosine_schedule(20)
    rng = substream(5, "analyze")
    conds = [encode_vocal(p.z_v, params) for p in pairs]
    want = []
    for t in range(1, 21):
        values = []
        for pair, cond in zip(pairs, conds):
            eps = rng.standard_normal(pair.z_a.shape).astype(np.float32)
            x_t = forward_diffuse(pair.z_a, eps, t, sched)
            values.append(unet_forward(x_t, t, cond, params, sched).data)
        want.append(float(np.concatenate(values, axis=None).std()))
    np.testing.assert_allclose(got, want, rtol=1e-5)


def test_bench_reports_timings_and_exponents(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    argv = ["bench", "--length", "64", "--reps", "1", "--window", "4",
            "--csv", str(csv)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "warning: single repetition" in out
    assert "fitted scaling exponents" in out
    assert "OPENBLAS_NUM_THREADS" in out
    assert out.count("ms/call  median ") == 9  # one per kernel and length

    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "kernel,length,ns_per_call"
    kernels = {r.split(",")[0] for r in rows[1:10]}
    assert kernels == {"local", "global", "soft_align"}
    assert sum(r.startswith("exponent_") for r in rows) == 3


def test_missing_checkpoint_is_a_clean_error(tmp_path, capsys):
    argv = ["sample", "--ckpt", str(tmp_path / "absent.vdif"),
            "--vocal", str(tmp_path / "absent.vlat"),
            "--out", str(tmp_path / "x.vlat"),
            "--trace", str(tmp_path / "t.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_sample_and_analyze_reject_a_checkpoint_missing_a_tensor(
        tmp_path, trained, capsys):
    params, _, _ = load_checkpoint(trained["ckpt"])
    del params.tensors["head.conv.w"]
    broken = tmp_path / "broken.vdif"
    save_checkpoint(broken, params, step=0, extra={"length": 16})
    vocal = sorted(trained["data"].glob("*.vlat"))[0]
    for argv in (["sample", "--ckpt", str(broken), "--vocal", str(vocal),
                  "--out", str(tmp_path / "x.vlat"),
                  "--trace", str(tmp_path / "t.csv")],
                 ["analyze", "--ckpt", str(broken),
                  "--data", str(trained["data"]),
                  "--csv", str(tmp_path / "s.csv")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'head.conv.w' is missing" in err


def test_a_corrupt_tensor_size_is_a_one_line_error(tmp_path, trained,
                                                    capsys):
    # stem.w claims 4 * (2**32 - 1)**3 bytes, which does not fit an index
    cfg_blob = config_text(load_checkpoint(trained["ckpt"])[0].config,
                           extra={"length": 16}).encode()
    corrupt = tmp_path / "corrupt.vdif"
    corrupt.write_bytes(
        b"VDIF" + struct.pack("<I", 1) + struct.pack("<I", len(cfg_blob))
        + cfg_blob
        + struct.pack("<H6sB3I", 6, b"stem.w", 3, *(2 ** 32 - 1,) * 3)
        + bytes(16) + struct.pack("<Q", 0))
    vocal = sorted(trained["data"].glob("*.vlat"))[0]
    assert main(["sample", "--ckpt", str(corrupt), "--vocal", str(vocal),
                 "--out", str(tmp_path / "x.vlat"),
                 "--trace", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "truncated data of 'stem.w'" in err


def test_train_rejects_a_bad_learning_rate(tmp_path, capsys):
    data = tmp_path / "data"
    run_gen(data)
    for lr in ("nan", "-1"):
        ckpt = tmp_path / f"m{lr}.vdif"
        argv = ["train", "--data", str(data), "--steps", "1", "--batch", "2",
                "--length", "16", "--lr", lr, "--width-mult", "0.0625",
                "--out", str(ckpt), "--log", str(tmp_path / "l.csv")]
        assert main(argv) == 1
        assert "lr must be finite" in capsys.readouterr().err
        assert not ckpt.exists()


def test_train_rejects_a_negative_step_count(tmp_path, capsys):
    data = tmp_path / "data"
    run_gen(data)
    ckpt = tmp_path / "m.vdif"
    argv = ["train", "--data", str(data), "--steps", "-3", "--batch", "2",
            "--length", "16", "--width-mult", "0.0625",
            "--out", str(ckpt), "--log", str(tmp_path / "l.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "steps must be >= 0" in err
    assert not ckpt.exists()


def test_bad_option_values_are_one_line_errors(tmp_path, trained, capsys):
    data, ckpt = str(trained["data"]), str(trained["ckpt"])
    cases = [(["train", "--data", data, "--steps", "1", "--batch", "2",
               "--length", "16", "--width-mult", width,
               "--out", str(tmp_path / "m.vdif"),
               "--log", str(tmp_path / "l.csv")], "width_mult")
             for width in ("nan", "inf", "0", "1e308")]
    cases += [(["bench", "--length", length], "--length")
              for length in ("0", "3")]
    cases += [(["bench", "--length", "8", "--reps", "0"], "--reps")]
    cases += [(["analyze", "--ckpt", ckpt, "--data", data, "--count", count,
                "--csv", str(tmp_path / "s.csv")], "--count")
              for count in ("-1", "0")]
    for argv, key in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert key in err
    assert not (tmp_path / "m.vdif").exists()
    assert not (tmp_path / "s.csv").exists()


def test_sample_and_analyze_reject_malformed_run_settings(
        tmp_path, trained, capsys):
    params, _, _ = load_checkpoint(trained["ckpt"])
    vocal = sorted(trained["data"].glob("*.vlat"))[0]
    for extra, commands in (({"length": 16, "timesteps": "abc"},
                             ("sample", "analyze")),
                            ({"length": "x16", "timesteps": 20},
                             ("sample",))):
        bad = tmp_path / "bad.vdif"
        save_checkpoint(bad, params, step=0, extra=extra)
        key, value = next((k, v) for k, v in extra.items()
                          if isinstance(v, str))
        argv = {"sample": ["sample", "--ckpt", str(bad), "--vocal",
                           str(vocal), "--out", str(tmp_path / "x.vlat"),
                           "--trace", str(tmp_path / "t.csv")],
                "analyze": ["analyze", "--ckpt", str(bad),
                            "--data", str(trained["data"]),
                            "--csv", str(tmp_path / "s.csv")]}
        for command in commands:
            assert main(argv[command]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert f"{key}={value!r}" in err
