"""flowsteer: inversion-free editing of video latents on flow velocity fields.

The package steers a latent trajectory from a source video toward a target
condition by integrating the difference of two conditional velocity-field
evaluations at noise-coupled states, with two stabilizers: mask-anchored
refinement of cross-attention logits (where to edit) and contrast-driven
magnitude amplification (how strongly to edit). Velocity fields are
pluggable; the bundled backends are an analytically solvable Gaussian
field and a toy cross-attention model, both deterministic and verifiable
at desk scale.
"""

from .amm import AmmConfig, amplify, contrast_map, gamma_f
from .backends import (
    BackendRegistry,
    GaussianCondition,
    ToyAttentionCondition,
    VelocityQuery,
    gaussian_velocity,
    make_toy_condition_pair,
    toy_attention_velocity,
)
from .core import (
    EditMask,
    RngStream,
    TimeGrid,
    VideoLatent,
    interpolate_source,
    load_mask,
    load_tensor,
    read_fatn,
    sample_gaussian,
    save_tensor,
    write_fatn,
)
from .diagnostics import binarize_signal, iou, magnitude_stats
from .engine import (
    EditConfig,
    EditReport,
    StepRecord,
    blend_baseline,
    couple_target,
    editing_signal,
    run_edit,
)
from .metrics import (
    FlowField,
    ToyFrameEmbedder,
    frame_consistency,
    local_structure_similarity,
    masked_psnr,
    warp_error,
)
from .runner import frame_sweep
from .sar import (
    SarConfig,
    TargetTokenSet,
    apply_sar,
    spatiotemporal_modulation,
    text_token_modulation,
)

__all__ = [
    "AmmConfig",
    "BackendRegistry",
    "EditConfig",
    "EditMask",
    "EditReport",
    "FlowField",
    "GaussianCondition",
    "RngStream",
    "SarConfig",
    "StepRecord",
    "TargetTokenSet",
    "TimeGrid",
    "ToyAttentionCondition",
    "ToyFrameEmbedder",
    "VelocityQuery",
    "VideoLatent",
    "amplify",
    "apply_sar",
    "binarize_signal",
    "blend_baseline",
    "contrast_map",
    "couple_target",
    "editing_signal",
    "frame_consistency",
    "frame_sweep",
    "gamma_f",
    "gaussian_velocity",
    "interpolate_source",
    "iou",
    "load_mask",
    "load_tensor",
    "local_structure_similarity",
    "magnitude_stats",
    "make_toy_condition_pair",
    "masked_psnr",
    "read_fatn",
    "run_edit",
    "sample_gaussian",
    "save_tensor",
    "spatiotemporal_modulation",
    "text_token_modulation",
    "toy_attention_velocity",
    "warp_error",
    "write_fatn",
]

__version__ = "0.1.0"
