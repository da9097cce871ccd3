"""Backbone wiring: shapes, conditioning plumbing, parameter accounting."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from vocaldiff import (ModelParams, UNetConfig, encode_vocal, film,
                       init_model_params, param_breakdown, param_layout,
                       sinusoidal_embedding, timestep_embedding, unet_forward)
from vocaldiff import unet as unet_module
from vocaldiff.errors import ConfigurationError, ContractError, DimensionError
from vocaldiff.gradcheck import check_gradients
from vocaldiff.tensor import (Tape, Tensor, add, backward, group_norm, matmul,
                              mul, narrow, reshape, silu, tensor_sum)
from vocaldiff.unet import stack_conds


@pytest.fixture(scope="module")
def tiny_cfg():
    return UNetConfig.for_width(1 / 16)


@pytest.fixture(scope="module")
def live_params(tiny_cfg):
    # nonzero head so outputs actually move
    return init_model_params(tiny_cfg, seed=3, zero_init_head=False)


def make_inputs(rng, length, cfg=None, params=None):
    x = Tensor(rng.standard_normal((64, length)).astype(np.float32))
    z_v = rng.standard_normal((64, length)).astype(np.float32)
    cond = encode_vocal(z_v, params) if params is not None else None
    return x, z_v, cond


# ------------------------------------------------------------- config

def test_width_scaling_rederives_groups_and_embed_dim():
    cfg = UNetConfig.for_width(1 / 16)
    assert cfg.channels == (4, 8, 16, 32)
    assert all(c % cfg.groups == 0 for c in cfg.channels)
    assert cfg.time_embed_dim == 32
    assert cfg.attention.model_dim == 32
    # a custom ladder scales groups and embed dim with it, not the default's
    cfg = UNetConfig.for_width(0.5, channel_ladder=(32, 64, 96, 128))
    assert cfg.channels == (16, 32, 48, 64)
    assert cfg.time_embed_dim == 64
    assert cfg.groups == 8


def test_config_validation():
    with pytest.raises(ConfigurationError):
        UNetConfig(groups=7)
    with pytest.raises(ConfigurationError):
        UNetConfig(heads=3)
    with pytest.raises(ConfigurationError):
        UNetConfig(heads=512)  # per-head dim of 1 cannot be rotated in pairs
    with pytest.raises(ConfigurationError):
        UNetConfig(time_embed_dim=513)
    for width in (float("nan"), float("inf"), 0.0, -0.5):
        with pytest.raises(ConfigurationError, match="width_mult"):
            UNetConfig.for_width(width)
        with pytest.raises(ConfigurationError, match="width_mult"):
            UNetConfig(width_mult=width)
    # finite, but the scaled ladder overflows to inf
    with pytest.raises(ConfigurationError, match="width_mult"):
        UNetConfig.for_width(1e308)


# ------------------------------------------------------------ forward

@pytest.mark.parametrize("length", [16, 64, 128, 1024])
def test_forward_shape_matches_input(tiny_cfg, live_params, sched, length):
    rng = np.random.default_rng(length)
    x, _, cond = make_inputs(rng, length, tiny_cfg, live_params)
    out = unet_forward(x, 100, cond, live_params, sched)
    assert out.shape == (64, length)
    assert out.data.dtype == np.float32


def test_forward_input_validation(tiny_cfg, live_params, sched):
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        unet_forward(Tensor(rng.standard_normal((64, 20))), 10, None,
                     live_params, sched)
    with pytest.raises(DimensionError):
        unet_forward(Tensor(rng.standard_normal((63, 16))), 10, None,
                     live_params, sched)


def test_forward_batch_equals_per_item_calls(tiny_cfg, sched):
    # two items, each with its own non-zero vocal tokens, in one call; and
    # the unconditional pass of the same batch
    params = init_model_params(tiny_cfg, seed=3, zero_init_head=False,
                               dtype=np.float64)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 64, 16))
    conds = [encode_vocal(rng.standard_normal((64, 16)), params)
             for _ in range(2)]
    for cond, item_conds in ((stack_conds(conds), conds),
                             (None, [None, None])):
        out = unet_forward(x, 400, cond, params, sched).data
        want = np.stack([unet_forward(xi, 400, ci, params, sched).data
                         for xi, ci in zip(x, item_conds)])
        assert out.shape == want.shape == (2, 64, 16)
        assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))


def test_zero_init_head_gives_exactly_zero_output(tiny_cfg, sched):
    params = init_model_params(tiny_cfg, seed=0)
    rng = np.random.default_rng(1)
    x, _, cond = make_inputs(rng, 16, tiny_cfg, params)
    assert np.all(unet_forward(x, 100, cond, params, sched).data == 0.0)
    assert np.all(unet_forward(x, 100, None, params, sched).data == 0.0)


def test_forward_is_deterministic(live_params, sched):
    rng = np.random.default_rng(2)
    x, _, cond = make_inputs(rng, 24, None, live_params)
    a = unet_forward(x, 250, cond, live_params, sched).data
    b = unet_forward(x, 250, cond, live_params, sched).data
    assert np.array_equal(a, b)


def test_conditioning_changes_output(live_params, sched):
    rng = np.random.default_rng(3)
    x, _, cond = make_inputs(rng, 32, None, live_params)
    with_cond = unet_forward(x, 400, cond, live_params, sched).data
    without = unet_forward(x, 400, None, live_params, sched).data
    assert np.max(np.abs(with_cond - without)) > 0.0


def test_every_parameter_reaches_the_tape(tiny_cfg, sched):
    # the unconditional pass swaps in null_pooled, so covering every tensor
    # needs one conditional and one unconditional forward
    params = init_model_params(tiny_cfg, seed=5, zero_init_head=False)
    for t in params.tensors.values():
        t.requires_grad = True
    rng = np.random.default_rng(4)
    x, z_v, _ = make_inputs(rng, 16)
    with Tape():
        cond = encode_vocal(z_v, params)
        loss = add(tensor_sum(unet_forward(x, 100, cond, params, sched)),
                   tensor_sum(unet_forward(x, 700, None, params, sched)))
        grads = backward(loss)
    missing = [name for name, t in params.tensors.items()
               if t.node_id not in grads]
    assert not missing, missing


def test_no_backward_closure_holds_a_tensor(tiny_cfg, sched):
    # a captured Tensor links back to its tape (param -> tape -> closure ->
    # param), so the tape and every activation it saved outlive the step
    # until the cycle collector runs
    params = init_model_params(tiny_cfg, seed=5, zero_init_head=False)
    for t in params.tensors.values():
        t.requires_grad = True
    x, z_v, _ = make_inputs(np.random.default_rng(8), 16)
    with Tape() as tape:
        unet_forward(x, 100, encode_vocal(z_v, params), params, sched)
    holders = {rec.backward.__qualname__
               for rec in tape._records
               for cell in rec.backward.__closure__ or ()
               if isinstance(cell.cell_contents, Tensor)}
    assert len(tape) > 100
    assert not holders, holders


# ------------------------------------------------------- param helpers

def test_count_params(tiny_cfg):
    assert ModelParams(tiny_cfg, {}).param_count == 0
    params = ModelParams(tiny_cfg, {"w": Tensor(np.zeros((2, 3)))})
    assert params.param_count == 6


def test_param_breakdown_sums_to_total(live_params):
    breakdown = param_breakdown(live_params)
    assert sum(breakdown.values()) == live_params.param_count
    assert "mid" in breakdown and "head" in breakdown


def test_default_width_lands_in_target_band():
    n = init_model_params(UNetConfig(), seed=0).param_count
    assert 8_000_000 <= n <= 25_000_000


# sha256 over every parameter's name and float32 bytes, in order, of
# init_model_params at width 1/16: pins the names, their order and every draw
INIT_DIGESTS = {
    (0, True):
        "ddf9bd8987e9ba095551bd12dcc9865067c6deb8d548c8dee59ffa4ed490b98b",
    (0, False):
        "cbe2c40e792fec0757ef9481b1d29425b3aea545baa23aa5912b1b355f7c1a84",
    (3, True):
        "d46adf5621309949e1ccc3feb9f1ed5a660ef693249f48d0112dea9177fab9ba",
    (3, False):
        "694581c8fc58f7269ff4c264e5b7f39a9c129295da84bc39fac33cf5a59213ed",
}


@pytest.mark.parametrize("seed,zero_head", sorted(INIT_DIGESTS))
def test_init_draws_are_pinned(tiny_cfg, seed, zero_head):
    params = init_model_params(tiny_cfg, seed=seed, zero_init_head=zero_head)
    digest = hashlib.sha256()
    for name, t in params.items():
        digest.update(name.encode("utf-8"))
        digest.update(t.data.tobytes())
    assert digest.hexdigest() == INIT_DIGESTS[seed, zero_head]


@pytest.mark.parametrize("width", (1 / 16, 1 / 8))
def test_param_layout_shapes_match_init(width):
    cfg = UNetConfig.for_width(width)
    layout = param_layout(cfg)
    params = init_model_params(cfg, seed=0)
    assert list(layout) == list(params.tensors)
    for name, (shape, _) in layout.items():
        assert params[name].shape == shape, name


def test_full_width_layout_counts_without_allocating():
    tracemalloc.start()
    try:
        layout = param_layout(UNetConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(math.prod(shape) for shape, _ in layout.values()) == 18_237_696
    assert peak < 1 << 20


def test_model_params_rejects_non_tensor(tiny_cfg):
    with pytest.raises(ContractError):
        ModelParams(tiny_cfg, {"w": np.zeros(3)})


# ----------------------------------------------------------- modules

GROUPS = 3


def film_inputs(rng, lead=(), cond_lead=None, c=6, length=10, d=4,
                dtype=np.float64, scale=1.0):
    """(x, gamma, beta, cond_vec, w, b) arrays for a film call with
    GROUPS groups; cond_lead defaults to x's leading axes."""
    cond_lead = lead if cond_lead is None else cond_lead

    def draw(shape, s=1.0):
        return (rng.standard_normal(shape) * s).astype(dtype)

    return [draw(lead + (c, length)), 1.0 + draw(c, 0.3), draw(c, 0.3),
            draw(cond_lead + (d,)), draw((d, 2 * c), scale),
            draw(2 * c, scale)]


def test_film_zero_affine_is_identity():
    """With a zero generator the modulation is the identity, so film is
    silu(group_norm(x))."""
    rng = np.random.default_rng(5)
    x, gamma, beta, cv, w, b = (Tensor(a) for a in film_inputs(
        rng, dtype=np.float32))
    zeros = [Tensor(np.zeros_like(t.data)) for t in (w, b)]
    out = film(x, GROUPS, gamma, beta, cv, *zeros).data
    want = silu(group_norm(x, GROUPS, gamma, beta)).data
    assert out.dtype == np.float32
    assert out.tobytes() == want.tobytes()


def test_film_shift_offsets_channels():
    # a zero input normalizes to zero and silu(0) = 0, so only the shift
    # half of the generator's bias reaches the output
    x = Tensor(np.zeros((3, 5)))
    ones, zeros = Tensor(np.ones(3)), Tensor(np.zeros(3))
    cv = Tensor(np.zeros(2))
    w = Tensor(np.zeros((2, 6)))
    b = Tensor(np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0]))
    out = film(x, 3, ones, zeros, cv, w, b).data
    assert np.array_equal(out, np.array([1.0, 2.0, 3.0])[:, None]
                          * np.ones((1, 5)))


def test_film_batch_equals_per_item_calls():
    rng = np.random.default_rng(9)
    x, gamma, beta, cv, w, b = film_inputs(rng, lead=(2,))
    shared = [Tensor(a) for a in (gamma, beta)]
    affine = [Tensor(w), Tensor(b)]
    out = film(Tensor(x), GROUPS, *shared, Tensor(cv), *affine).data
    want = np.stack([film(Tensor(xi), GROUPS, *shared, Tensor(ci),
                          *affine).data for xi, ci in zip(x, cv)])
    assert out.shape == want.shape
    assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))


def test_film_validates_affine_shapes():
    x = Tensor(np.zeros((3, 5)))
    ones, zeros = Tensor(np.ones(3)), Tensor(np.zeros(3))
    cv = Tensor(np.zeros(2))
    w, b = Tensor(np.zeros((2, 6))), Tensor(np.zeros(6))
    with pytest.raises(ConfigurationError):
        film(x, 3, ones, zeros, cv, Tensor(np.zeros((2, 5))), b)
    with pytest.raises(ConfigurationError):
        film(x, 3, ones, zeros, cv, w, Tensor(np.zeros(5)))
    with pytest.raises(DimensionError):
        film(x, 3, Tensor(np.ones(4)), zeros, cv, w, b)
    with pytest.raises(DimensionError):
        film(x, 3, ones, Tensor(np.zeros(2)), cv, w, b)
    with pytest.raises(ConfigurationError):
        film(x, 2, ones, zeros, cv, w, b)
    with pytest.raises(DimensionError):
        film(Tensor(np.zeros(5)), 1, Tensor(np.ones(1)), Tensor(np.zeros(1)),
             cv, Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))


def test_film_gradients():
    rng = np.random.default_rng(6)
    names = ("x", "gamma", "beta", "cv", "w", "b")
    # unbatched, batched, and one cond vector shared by a batch
    for lead, cond_lead in (((), ()), ((2,), (2,)), ((2,), ())):
        params = {n: Tensor(a) for n, a in zip(
            names, film_inputs(rng, lead, cond_lead, c=6, length=4, d=2,
                               scale=0.3))}
        m = Tensor(rng.standard_normal(lead + (6, 4)))
        errors = check_gradients(
            lambda: tensor_sum(mul(film(params["x"], GROUPS,
                                        *(params[n] for n in names[1:])),
                                   m)),
            params)
        assert set(errors) == set(names)
        assert max(errors.values()) < 1e-5, (lead, cond_lead, errors)


def film_composed(x, cond_vec, w, b):
    """FiLM's modulation as a composition of tape primitives."""
    c = x.shape[-2]
    lead, d = cond_vec.shape[:-1], cond_vec.shape[-1]
    sb = add(matmul(reshape(cond_vec, lead + (1, d)), w), b)
    sb = reshape(sb, lead + (2 * c, 1))
    scale = narrow(sb, -2, 0, c)
    shift = narrow(sb, -2, c, c)
    return add(mul(x, add(scale, 1.0)), shift)


def film_chain(x, groups, gamma, beta, cond_vec, w, b):
    """The modulated norm as the chain of taped primitives film fuses."""
    return film_composed(silu(group_norm(x, groups, gamma, beta)),
                         cond_vec, w, b)


# the last case is the unconditional batch: one null vector for every item
@pytest.mark.parametrize("lead, cond_lead", [((), ()), ((2,), (2,)),
                                             ((2,), ())],
                         ids=["unbatched", "batched", "shared-cond"])
def test_film_matches_its_composition_bitwise(lead, cond_lead):
    """film against film_chain: output and all six gradients bytewise."""
    rng = np.random.default_rng(11)
    for dtype in (np.float32, np.float64):
        arrays = film_inputs(rng, lead, cond_lead, dtype=dtype, scale=0.5)
        m = Tensor(rng.standard_normal(arrays[0].shape).astype(dtype))
        results = []
        for fn in (film, film_chain):
            inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            with Tape() as tape:
                out = fn(inputs[0], GROUPS, *inputs[1:])
                records = len(tape)
                grads = backward(tensor_sum(mul(out, m)))
            results.append((out.data,
                            [grads[t.node_id].data for t in inputs]))
            if fn is film:
                assert records == 1
        (out, grads), (want, want_grads) = results
        assert out.dtype == dtype
        assert out.tobytes() == want.tobytes()
        assert len(grads) == 6
        for g, want_g in zip(grads, want_grads):
            assert g.shape == want_g.shape and g.dtype == want_g.dtype
            assert g.tobytes() == want_g.tobytes(), dtype


def test_forward_records_22_film_and_3_group_norm_ops(monkeypatch, sched,
                                                       tiny_cfg, live_params):
    """Every modulated site is one film record; group_norm is left to the
    attention and cross-attention norms and the head, silu to the head and
    the time MLP."""
    rng = np.random.default_rng(4)
    x, _, cond = make_inputs(rng, 16, tiny_cfg, live_params)
    leaves = {n: Tensor(t.data, requires_grad=True)
              for n, t in live_params.items()}
    params = ModelParams(tiny_cfg, leaves)
    recorded = {"film": 0, "group_norm": 0, "silu": 0}

    def counting(name):
        original = getattr(unet_module, name)

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            recorded[name] += out._tape is not None
            return out

        return wrapper

    for name in recorded:
        monkeypatch.setattr(unet_module, name, counting(name))
    with Tape():
        unet_forward(x, 100, cond, params, sched)
    assert recorded == {"film": 22, "group_norm": 3, "silu": 2}


def test_encode_vocal_shapes_and_pooling(tiny_cfg, live_params):
    rng = np.random.default_rng(7)
    z_v = rng.standard_normal((64, 64)).astype(np.float32)
    tokens, pooled = encode_vocal(z_v, live_params)
    assert tokens.shape == (16, tiny_cfg.time_embed_dim)
    assert pooled.shape == (tiny_cfg.time_embed_dim,)
    assert np.max(np.abs(pooled.data - tokens.data.mean(axis=0))) <= 1e-6


def test_encode_vocal_zero_input_gives_zero_tokens(live_params):
    # conv biases start at zero, so silence encodes to silence
    tokens, pooled = encode_vocal(np.zeros((64, 32), np.float32), live_params)
    assert np.all(tokens.data == 0.0)
    assert np.all(pooled.data == 0.0)


def test_encode_vocal_validation(live_params):
    with pytest.raises(DimensionError):
        encode_vocal(np.zeros((32, 16), np.float32), live_params)
    with pytest.raises(DimensionError):
        encode_vocal(np.zeros((64, 18), np.float32), live_params)


def test_sinusoidal_embedding_at_zero():
    emb = sinusoidal_embedding(0, 32)
    assert np.array_equal(emb[:16], np.zeros(16))
    assert np.array_equal(emb[16:], np.ones(16))


def test_sinusoidal_embedding_distinct_over_schedule():
    rows = np.stack([sinusoidal_embedding(t, 64) for t in range(801)])
    assert np.unique(rows, axis=0).shape[0] == 801


def test_sinusoidal_embedding_rejects_odd_dim():
    with pytest.raises(ConfigurationError):
        sinusoidal_embedding(3, 33)


def test_timestep_embedding_with_and_without_mlp(tiny_cfg, live_params):
    raw = sinusoidal_embedding(40, tiny_cfg.time_embed_dim)
    assert raw.shape == (tiny_cfg.time_embed_dim,)
    refined = timestep_embedding(40, tiny_cfg.time_embed_dim, live_params)
    assert refined.shape == raw.shape
    assert refined.data.dtype == np.float32
    assert np.max(np.abs(refined.data - raw)) > 0.0
    again = timestep_embedding(40, tiny_cfg.time_embed_dim, live_params)
    assert np.array_equal(refined.data, again.data)
