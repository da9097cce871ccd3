"""Training loop: splits, fixed-probe validation, logging, early stop."""

import numpy as np
import pytest

from vocaldiff import (TrainConfig, UNetConfig, build_cosine_schedule,
                       gen_pair, init_model_params, load_checkpoint)
from vocaldiff.errors import VocalDiffError
from vocaldiff.training import (TrainResult, run_training, split_pairs,
                                validation_loss)


@pytest.fixture()
def corpus():
    return [gen_pair(s, length=16) for s in range(4)]


def small_model(seed=31):
    return init_model_params(UNetConfig.for_width(1 / 16), seed=seed,
                             zero_init_head=False)


def test_split_takes_the_tail():
    pairs = list(range(5))
    train, val = split_pairs(pairs, 0.5)
    assert train == [0, 1, 2] and val == [3, 4]


def test_split_rounds_down_to_zero():
    train, val = split_pairs(list(range(4)), 0.1)
    assert train == [0, 1, 2, 3] and val == []
    train, val = split_pairs(list(range(4)), 0.0)
    assert val == []


def test_validation_loss_is_a_fixed_probe(corpus):
    params = small_model()
    cfg = TrainConfig(timesteps=50)
    sched = build_cosine_schedule(50)
    a = validation_loss(params, corpus[:2], cfg, sched)
    b = validation_loss(params, corpus[:2], cfg, sched)
    assert a == b and np.isfinite(a) and a > 0.0
    params["stem.w"].data += 0.05
    assert validation_loss(params, corpus[:2], cfg, sched) != a


def test_run_training_completes_and_logs(tmp_path, corpus):
    cfg = TrainConfig(batch=2, steps=3, timesteps=50, lr=1e-3,
                      validation_fraction=0.25, seed=0)
    params = small_model()
    ckpt = tmp_path / "model.vdif"
    log = tmp_path / "log.csv"
    lines = []
    result = run_training(corpus, cfg, params, ckpt_path=ckpt, log_path=log,
                          eval_every=1, log_fn=lines.append)

    assert isinstance(result, TrainResult)
    assert result.steps_run == 3 and len(result.train_losses) == 3
    assert [s for s, _ in result.val_history] == [1, 2, 3]
    assert not result.stopped_early

    rows = log.read_text().strip().splitlines()
    assert rows[0] == "step,train_loss,val_loss"
    assert len(rows) == 4
    assert rows[1].split(",")[2] != ""  # eval at step 1 lands in the log

    loaded, cfg_map, step = load_checkpoint(ckpt)
    assert step == 3
    assert cfg_map["length"] == "16"
    assert set(loaded.tensors) == set(params.tensors)
    assert any(line.startswith("step 1:") for line in lines)


def test_training_is_deterministic(corpus):
    losses = []
    for _ in range(2):
        cfg = TrainConfig(batch=2, steps=3, timesteps=50, lr=1e-3,
                          validation_fraction=0.0, seed=4)
        result = run_training(corpus, cfg, small_model())
        losses.append(result.train_losses)
    assert losses[0] == losses[1]


def test_zero_learning_rate_triggers_early_stop(corpus):
    # parameters never move, so the second evaluation cannot improve on
    # the first and patience=1 stops the run at step 2
    cfg = TrainConfig(batch=2, steps=10, timesteps=50, lr=0.0,
                      validation_fraction=0.25, seed=0)
    result = run_training(corpus, cfg, small_model(), eval_every=1,
                          patience=1)
    assert result.stopped_early
    assert result.steps_run == 2
    vals = [v for _, v in result.val_history]
    assert vals[0] == vals[1]


def test_final_checkpoint_reflects_the_last_step(tmp_path, corpus):
    cfg = TrainConfig(batch=2, steps=2, timesteps=50, lr=1e-3,
                      validation_fraction=0.0, seed=1)
    ckpt = tmp_path / "model.vdif"
    run_training(corpus, cfg, small_model(), ckpt_path=ckpt)
    _, _, step = load_checkpoint(ckpt)
    assert step == 2


def test_non_finite_step_stops_training(corpus):
    cfg = TrainConfig(batch=2, steps=3, timesteps=50, lr=1e-3,
                      validation_fraction=0.0, seed=0)
    params = small_model()
    params["stem.w"].data[1, 2, 0] = np.nan
    before = {name: t.data.copy() for name, t in params.items()}
    with pytest.raises(VocalDiffError, match=r"step 1:.*gradient stem\.w"):
        run_training(corpus, cfg, params)
    for name, t in params.items():
        assert np.array_equal(t.data, before[name], equal_nan=True), name
