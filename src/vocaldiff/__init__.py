"""Vocal-conditioned latent diffusion with timestep-mixed attention,
implemented from scratch on numpy."""

from .attention import (AttentionConfig, AttentionParams, global_attention,
                        init_attention_params, local_attention, rope_rotate,
                        soft_align_attention)
from .checkpoint import load_checkpoint, save_checkpoint
from .diffusion import (SamplerTrace, TrainConfig, cfg_combine, ddpm_sample,
                        loss_snr, recover_eps, recover_x0, train_step,
                        v_target)
from .errors import (ConfigurationError, ContractError, DimensionError,
                     FormatError, VocalDiffError)
from .optim import AdamWState, adamw_step, clip_grad_norm, cosine_lr
from .schedule import (Schedule, build_cosine_schedule, forward_diffuse,
                       mix_weight, snr_weight)
from .synthdata import (LatentPair, gen_pair, read_pair, target_transform,
                        write_pair)
from .tensor import Tape, Tensor, backward
from .training import run_training
from .unet import (ModelParams, UNetConfig, encode_vocal, film,
                   init_model_params, param_breakdown, sinusoidal_embedding,
                   timestep_embedding, unet_forward)

__version__ = "0.1.0"
