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
evaluation only, on each sample's (L, F*H*W) pre-softmax logits. The first
``grid.skip`` intervals contribute no update.

Inside a step the layers pass plain float32 arrays; ``VideoLatent`` is the
checked type only at the run's input and result. Non-finite values are not
checked where they arise: they propagate into the updated state, which is
checked once per step, before the baseline blend could replace them, and a
non-finite state raises ``NonFiniteStateError`` naming the step. Other
errors, such as a target token index out of range, propagate unchanged.

Determinism and attribution: the run seed spawns one substream per step
index, so a step's noise depends only on (seed, step index, draw index).
Skipping more initial steps therefore changes the outcome only through the
removed intervals, never by shifting noise onto different steps. The same
property lets a run draw one step ahead: when a draw is worth a pool round
trip (``core.draw_ahead_pays``: it spans more than one RNG chunk, or it has
at least 2**15 values and a second CPU is usable), step k+1's draws are
started as step k begins, their helpers fill chunks on ``core.POOL`` while
step k computes, and step k+1's own ``sample_gaussian`` calls fill the
chunks left. Desk-size draws run on the calling thread, just before their
step. A run whose draws span more than one chunk also computes in place: a
workspace of latent-size buffers, allocated once per run, takes each draw,
state, velocity, signal and update through ``out=``, and each velocity is
written into the buffer of its state. Smaller runs allocate their steps'
arrays as they always have. Neither path changes a value: the in-place
step repeats the same IEEE operations in the same order.

Coupling is computed difference-first, ``(z_edit - x_src) + z_src``, which
keeps the coupled state exactly on the pseudo-source path while the
trajectory still sits at the source; with identical source and target
conditions the whole run is then a bitwise fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .amm import AmmConfig, amplify, contrast_map, gamma_f
from .backends import BackendRegistry, VelocityQuery
from .core import (
    EditMask,
    RngStream,
    TimeGrid,
    VideoLatent,
    draw_ahead_pays,
    draw_spans_chunks,
    interpolate_source,
    sample_gaussian,
)
from .diagnostics import binarize_signal, iou, magnitude_stats
from .errors import NonFiniteStateError, ShapeMismatchError
from .sar import SarConfig, TargetTokenSet, apply_sar


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


def couple_target(
    z_edit: np.ndarray, z_src: np.ndarray, x_src: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Target state z_edit + z_src - x_src, grouped difference-first; written
    into ``out`` when given."""
    if not (z_edit.shape == z_src.shape == x_src.shape):
        raise ShapeMismatchError("coupling operands must share one shape")
    if out is None:
        return (z_edit - x_src) + z_src
    return np.add(np.subtract(z_edit, x_src, out=out), z_src, out=out)


def blend_baseline(
    z_edit: np.ndarray, z_reference: np.ndarray, mask: EditMask, in_place: bool = False
) -> np.ndarray:
    """Keep z_edit inside the mask, the reference outside; exact selection.
    With ``in_place`` the result overwrites ``z_edit``."""
    if z_edit.shape != z_reference.shape:
        raise ShapeMismatchError("blend operands must share one shape")
    if mask.shape != z_edit.shape[2:]:
        raise ShapeMismatchError(
            f"mask shape {mask.shape} does not match latent grid {z_edit.shape[2:]}"
        )
    keep = mask.data.astype(bool)[None, None]
    if not in_place:
        return np.where(keep, z_edit, z_reference)
    np.copyto(z_edit, z_reference, where=~keep)
    return z_edit


def _sar_hook(cfg: EditConfig, t: float):
    def hook(logits: np.ndarray, layer: int) -> np.ndarray:
        return apply_sar(logits, cfg.mask, cfg.j_tar, cfg.sar, t, cfg.grid, layer)

    return hook


class _Workspace:
    """Latent-size float32 buffers that the steps of one in-place run take
    and give back, so each is allocated once per run."""

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        self.free: list[np.ndarray] = []

    def take(self) -> np.ndarray:
        return self.free.pop() if self.free else np.empty(self.shape, dtype=np.float32)

    def give(self, *buffers: np.ndarray) -> None:
        self.free.extend(buffers)


def editing_signal(
    z_edit: np.ndarray,
    x_src: np.ndarray,
    t: float,
    cfg: EditConfig,
    backend: BackendRegistry,
    noises: list[np.ndarray],
    ws: Optional[_Workspace] = None,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Average of v_target(z_tar) - v_source(z_src) over the ``cfg.n_avg`` noise draws.

    ``noises`` holds the draws in order and is emptied as they are used.
    Returns ``(dv, noise, z_src, z_tar)``: the mean signal and the first
    draw's noise and states. The states are None unless ``cfg.record_states``
    is set. The refinement hook is installed on the target evaluation only;
    the source velocity sees raw attention. Draws accumulate in a fixed
    sequential order so the mean is reproducible.

    With a workspace ``ws`` every latent-size result is written into one of
    its buffers and each velocity into the buffer of its state; the noise is
    used up, and every buffer the caller does not get back is given back.
    The first draw's noise (for the baseline blend) and states (for the
    record) are kept intact when ``cfg`` asks for them.
    """
    hook = _sar_hook(cfg, t)
    if ws is None:
        acc = np.zeros(x_src.shape, dtype=np.float32)
    else:
        acc = ws.take()
        acc.fill(0)
    for draw in range(cfg.n_avg):
        noise = spent = noises.pop(0)  # with a workspace the interpolation uses up ``spent``
        if ws is not None and draw == 0 and cfg.baseline_blend:
            spent = ws.take()  # the blend reads this draw's noise after the step
            np.copyto(spent, noise)
        reuse_states = ws is not None and not (draw == 0 and cfg.record_states)
        z_src = interpolate_source(x_src, spent, t, out=ws and ws.take())
        if ws is not None:
            ws.give(spent)
        z_tar = couple_target(z_edit, z_src, x_src, out=ws and ws.take())
        v_tar = backend.velocity(
            VelocityQuery(z_tar, t, "target", hook, out=z_tar if reuse_states else None)
        )
        v_src = backend.velocity(
            VelocityQuery(z_src, t, "source", out=z_src if reuse_states else None)
        )
        v_tar -= v_src
        acc += v_tar
        if reuse_states:
            ws.give(z_src, z_tar)
        if draw == 0:
            first = (noise, z_src, z_tar) if cfg.record_states else (noise, None, None)
    n_avg = np.float32(cfg.n_avg)
    dv = acc / n_avg if ws is None else np.divide(acc, n_avg, out=acc)
    return (dv, *first)


def _signal_stats(
    dv: np.ndarray, cfg: EditConfig, per_frame: bool
) -> tuple[float, tuple[float, ...], float]:
    """(mean |dv|, per-frame mean |dv| or (), IoU of the binarized signal vs. the mask).

    With a batch, the IoU is averaged over samples.
    """
    mean_abs, frame_means = magnitude_stats(dv, per_frame)
    binary = binarize_signal(dv, eps=cfg.amm.epsilon)
    score = float(np.mean([iou(binary[b], cfg.mask.data) for b in range(binary.shape[0])]))
    return mean_abs, frame_means, score


def run_edit(
    x_src: VideoLatent,
    cfg: EditConfig,
    backend: BackendRegistry,
) -> tuple[VideoLatent, EditReport]:
    """Drive the editing trajectory across the grid and report per-step stats.

    The state is checked for finiteness once per step, before the baseline
    blend; a non-finite state raises NonFiniteStateError naming the step.
    A step's draws come from the run's substream of its index. When a draw
    is worth a pool round trip, each next step's draws are started on
    ``core.POOL`` as a step begins; when one spans several RNG chunks, the
    step also runs in place in buffers allocated once per run. The run
    returns or raises only once no helper of a started draw can still write.
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
    steps = list(cfg.grid.intervals())
    ws = _Workspace(x.shape) if draw_spans_chunks(x.size) else None
    draw_ahead = draw_ahead_pays(x.size)
    ahead = None  # the next step's substream, its draws started
    try:
        for k, (index, t, t_next) in enumerate(steps):
            rng = run_rng.substream(index) if ahead is None else ahead
            noises = [sample_gaussian(rng, x.shape) for _ in range(cfg.n_avg)]
            ahead = None
            if draw_ahead and k + 1 < len(steps):
                ahead = run_rng.substream(steps[k + 1][0])
                for _ in range(cfg.n_avg):
                    ahead.start_normals(x.size, np.float32, out=ws and ws.take().reshape(-1))
            dv, noise, z_src, z_tar = editing_signal(z_edit, x, t, cfg, backend, noises, ws)
            contrast = contrast_map(dv, cfg.amm.epsilon)
            dv_amm = amplify(dv, contrast, gain, out=ws and ws.take())
            z_next = np.multiply(dv_amm, t_next - t, out=ws and ws.take())
            z_next += z_edit
            if not np.isfinite(z_next).all():
                raise NonFiniteStateError(index, "latent entries must be finite")
            if cfg.baseline_blend:
                z_ref = interpolate_source(x, noise, t_next, out=ws and ws.take())
                z_next = blend_baseline(z_next, z_ref, cfg.mask, in_place=ws is not None)
                if ws is not None:
                    ws.give(z_ref, noise)
            mean_abs, per_frame, iou_dv = _signal_stats(dv, cfg, per_frame=True)
            mean_abs_amm, _, iou_amm = _signal_stats(dv_amm, cfg, per_frame=False)
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
            if ws is not None:
                ws.give(dv, dv_amm)
                if z_edit is not x and not cfg.record_states:
                    ws.give(z_edit)
            z_edit = z_next
    finally:
        if ahead is not None:
            ahead.cancel_started()
    return VideoLatent(z_edit), report
