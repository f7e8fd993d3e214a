"""The coupled-trajectory editing loop.

Starting from the source latent, each active grid step draws fresh noise,
places a pseudo-source state on the straight source-noise path, couples a
target state to it so both velocity evaluations share one noise
realization, and moves the trajectory by the amplified difference of the
target- and source-conditioned velocities of the backend's condition pair:

    z_src  = (1 - t) x_src + t N
    z_tar  = z_edit + z_src - x_src
    dv     = V(z_tar, t, target) - V(z_src, t, source)
    z_edit = z_edit + (t_next - t) * amplify(dv)

The attention hook (mask-anchored logit refinement) applies to the target
evaluation only. The first ``grid.skip`` intervals contribute no update.

Inside a step the layers pass plain float32 arrays; ``VideoLatent`` is the
checked type only at the run's input and result. Non-finite values are not
checked where they arise: they propagate into the updated state, which is
checked once per step, before the baseline blend could replace them, and a
non-finite state raises ``NonFiniteStateError`` naming the step. Other
errors, such as a target token index out of range, propagate unchanged.

Determinism and attribution: the run seed spawns one substream per step
index, so a step's noise depends only on (seed, step index, draw index).
Skipping more initial steps therefore changes the outcome only through the
removed intervals, never by shifting noise onto different steps. Coupling
is computed difference-first, ``(z_edit - x_src) + z_src``, which keeps the
coupled state exactly on the pseudo-source path while the trajectory still
sits at the source; with identical source and target conditions the whole
run is then a bitwise fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .amm import AmmConfig, amplify, contrast_map, gamma_f
from .backends import BackendRegistry, VelocityQuery
from .core import EditMask, RngStream, TimeGrid, VideoLatent, interpolate_source, sample_gaussian
from .diagnostics import binarize_signal, iou, magnitude_stats
from .errors import NonFiniteStateError, ShapeMismatchError
from .sar import AttentionMaps, SarConfig, TargetTokenSet, apply_sar


@dataclass(frozen=True)
class EditConfig:
    """Everything a single edit run needs besides the source latent."""

    grid: TimeGrid
    sar: SarConfig
    amm: AmmConfig
    mask: EditMask
    j_tar: TargetTokenSet
    seed: int = 0
    n_avg: int = 1
    baseline_blend: bool = False
    record_contrast: bool = False
    record_states: bool = False

    def __post_init__(self):
        if self.n_avg < 1:
            raise ValueError(f"n_avg must be >= 1, got {self.n_avg}")


@dataclass
class StepRecord:
    """Diagnostics for one active step; signal stats are kept both before
    and after amplification since either view can be of interest."""

    index: int
    t: float
    dt: float
    mean_abs: float
    mean_abs_amm: float
    per_frame_mean_abs: tuple[float, ...]
    iou: float
    iou_amm: float
    contrast: Optional[np.ndarray] = None
    z_src: Optional[np.ndarray] = None
    z_tar: Optional[np.ndarray] = None
    z_edit_before: Optional[np.ndarray] = None


@dataclass
class EditReport:
    seed: int
    frames: int
    gain: float
    steps: list[StepRecord] = field(default_factory=list)


def couple_target(z_edit: np.ndarray, z_src: np.ndarray, x_src: np.ndarray) -> np.ndarray:
    """Target state z_edit + z_src - x_src, grouped difference-first."""
    if not (z_edit.shape == z_src.shape == x_src.shape):
        raise ShapeMismatchError("coupling operands must share one shape")
    return (z_edit - x_src) + z_src


def blend_baseline(z_edit: np.ndarray, z_reference: np.ndarray, mask: EditMask) -> np.ndarray:
    """Keep z_edit inside the mask, the reference outside; exact selection."""
    if z_edit.shape != z_reference.shape:
        raise ShapeMismatchError("blend operands must share one shape")
    if mask.shape != z_edit.shape[2:]:
        raise ShapeMismatchError(
            f"mask shape {mask.shape} does not match latent grid {z_edit.shape[2:]}"
        )
    keep = mask.data.astype(bool)[None, None]
    return np.where(keep, z_edit, z_reference)


def _sar_hook(cfg: EditConfig, t: float):
    def hook(maps: AttentionMaps, layer: int) -> AttentionMaps:
        return apply_sar(maps, cfg.mask, cfg.j_tar, cfg.sar, t, cfg.grid, layer)

    return hook


def editing_signal(
    z_edit: np.ndarray,
    x_src: np.ndarray,
    t: float,
    cfg: EditConfig,
    backend: BackendRegistry,
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Average of v_target(z_tar) - v_source(z_src) over n_avg noise draws.

    Returns ``(dv, noise, z_src, z_tar)``: the mean signal and the first
    draw's noise and states. The states are None unless
    ``cfg.record_states`` is set. The refinement hook is installed on the
    target evaluation only; the source velocity sees raw attention. Draws
    accumulate in a fixed sequential order so the mean is reproducible.
    """
    hook = _sar_hook(cfg, t)
    acc = np.zeros(x_src.shape, dtype=np.float32)
    for draw in range(cfg.n_avg):
        noise = sample_gaussian(rng, x_src.shape)
        z_src = interpolate_source(x_src, noise, t)
        z_tar = couple_target(z_edit, z_src, x_src)
        v_tar = backend.velocity(VelocityQuery(z_tar, t, "target", attention_hook=hook))
        v_src = backend.velocity(VelocityQuery(z_src, t, "source"))
        acc += v_tar - v_src
        if draw == 0:
            first = (noise, z_src, z_tar) if cfg.record_states else (noise, None, None)
    return (acc / np.float32(cfg.n_avg), *first)


def _signal_stats(dv: np.ndarray, cfg: EditConfig) -> tuple[float, tuple[float, ...], float]:
    """(mean |dv|, per-frame mean |dv|, IoU of the binarized signal vs. the mask).

    With a batch, the IoU is averaged over samples.
    """
    mean_abs, per_frame = magnitude_stats(dv)
    binary = binarize_signal(dv, eps=cfg.amm.epsilon)
    score = float(np.mean([iou(binary[b], cfg.mask.data) for b in range(binary.shape[0])]))
    return mean_abs, per_frame, score


def run_edit(
    x_src: VideoLatent,
    cfg: EditConfig,
    backend: BackendRegistry,
) -> tuple[VideoLatent, EditReport]:
    """Drive the editing trajectory across the grid and report per-step stats.

    The state is checked for finiteness once per step, before the baseline
    blend; a non-finite state raises NonFiniteStateError naming the step.
    """
    if cfg.mask.shape != x_src.data.shape[2:]:
        raise ShapeMismatchError(
            f"mask shape {cfg.mask.shape} does not match latent grid {x_src.data.shape[2:]}"
        )
    frames = x_src.dims.frames
    gain = gamma_f(cfg.amm, frames)
    report = EditReport(seed=cfg.seed, frames=frames, gain=gain)
    run_rng = RngStream(cfg.seed)
    x = z_edit = x_src.data
    for index, t, t_next in cfg.grid.intervals():
        dv, noise, z_src, z_tar = editing_signal(
            z_edit, x, t, cfg, backend, run_rng.substream(index)
        )
        contrast = contrast_map(dv, cfg.amm.epsilon)
        dv_amm = amplify(dv, contrast, gain)
        z_next = z_edit + (t_next - t) * dv_amm
        if not np.isfinite(z_next).all():
            raise NonFiniteStateError(index, "latent entries must be finite")
        if cfg.baseline_blend:
            z_next = blend_baseline(z_next, interpolate_source(x, noise, t_next), cfg.mask)
        mean_abs, per_frame, iou_dv = _signal_stats(dv, cfg)
        mean_abs_amm, _, iou_amm = _signal_stats(dv_amm, cfg)
        record = StepRecord(
            index=index,
            t=t,
            dt=t_next - t,
            mean_abs=mean_abs,
            mean_abs_amm=mean_abs_amm,
            per_frame_mean_abs=per_frame,
            iou=iou_dv,
            iou_amm=iou_amm,
            contrast=contrast if cfg.record_contrast else None,
            z_src=z_src,
            z_tar=z_tar,
            z_edit_before=z_edit if cfg.record_states else None,
        )
        report.steps.append(record)
        z_edit = z_next
    return VideoLatent(z_edit), report
