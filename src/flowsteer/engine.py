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

Determinism: the run seed spawns one substream per step index, so a
step's noise depends only on (seed, step index, draw index), and skipping
more initial steps never shifts noise onto different steps. It also lets a
run draw ahead while it walks the grid's intervals one at a time. Every
draw is started into a workspace buffer: the first step's, from
``substream(grid.active_steps)``, before the loop, and the next step's,
from ``substream(index - 1)``, as soon as the draws of step ``index`` are
joined. The draw alone decides whether ``core.POOL`` helps (see ``core``).

Every step runs in place, in the latent-size buffers of a per-run
workspace, with each velocity written into its state's buffer. At
``n_avg = 1``, without blend or recorded states, a step lives in four: the
state E, this step's noise N, the next step's noise and a work buffer W.
``z_src`` goes into W (using up N), ``z_tar`` into N, and
``dv = (v_tar - v_src) + 0`` into v_tar's buffer, freeing W; the ``+ 0``
is the sum's identity (a -0 difference becomes +0), and ``/ n_avg`` is
skipped at 1, where it is exact. The statistics of dv, and after
``amplify(out=dv)`` those of dv_amm, are taken with |signal| in W before the
update ``z_next = dv_amm * (t_next - t) + E`` overwrites dv_amm's buffer.
A blend keeps a copy of the first noise, each further draw takes two state
buffers, and recorded states leave the workspace. The IEEE operations are
an allocating step's, in the same order, so no value changes.

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
    keep = mask.data[None, None]
    if not in_place:
        return np.where(keep, z_edit, z_reference)
    np.copyto(z_edit, z_reference, where=~keep)
    return z_edit


def _sar_hook(cfg: EditConfig, t: float):
    def hook(logits: np.ndarray, layer: int, out: np.ndarray) -> np.ndarray:
        return apply_sar(logits, cfg.mask, cfg.j_tar, cfg.sar, t, layer, out=out)

    return hook


class _Workspace:
    """Latent-size float32 buffers that the steps of one run take and give
    back, so each is allocated once per run."""

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
    ws: _Workspace,
) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """Average of v_target(z_tar) - v_source(z_src) over the ``cfg.n_avg`` noise draws.

    ``noises`` holds the draws in order; it is emptied and each draw used up.
    Results go into buffers of the run's workspace ``ws``, which gets back
    every one the caller does not. Returns ``(dv, noise, z_src, z_tar)``: the
    mean signal, the first draw's noise (intact) if the blend needs it and its
    states if ``cfg.record_states`` asks, else None. The refinement hook acts
    on the target evaluation only. Draws add up in a fixed order from +0.
    """
    hook = _sar_hook(cfg, t)
    for draw in range(cfg.n_avg):
        noise = spent = noises.pop(0)  # the interpolation uses up ``spent``
        if draw == 0 and cfg.baseline_blend:
            spent = ws.take()  # the blend reads this draw's noise after the step
            np.copyto(spent, noise)
        recorded = draw == 0 and cfg.record_states  # these states leave the workspace
        z_src = interpolate_source(x_src, spent, t, out=ws.take())
        ws.give(spent)
        z_tar = couple_target(z_edit, z_src, x_src, out=ws.take())
        v_tar = backend.velocity(
            VelocityQuery(z_tar, t, "target", hook, out=None if recorded else z_tar)
        )
        v_src = backend.velocity(VelocityQuery(z_src, t, "source", out=None if recorded else z_src))
        v_tar -= v_src
        if draw == 0:
            dv = v_tar
            dv += 0  # the sum's identity: a -0 difference becomes +0
            states = (z_src, z_tar) if recorded else (None, None)
            first = (noise if cfg.baseline_blend else None, *states)
        else:
            dv += v_tar
            ws.give(z_tar)
        if not recorded:
            ws.give(z_src)
    if cfg.n_avg > 1:
        np.divide(dv, np.float32(cfg.n_avg), out=dv)
    return (dv, *first)


def _signal_stats(
    signal: np.ndarray, cfg: EditConfig, ws: _Workspace, per_frame: bool
) -> tuple[float, tuple[float, ...], float]:
    """(mean |signal|, per-frame mean |signal| or (), IoU of the binarized signal
    vs. the mask, averaged over a batch), from one |signal| in a buffer of ``ws``."""
    mag = np.abs(signal, out=ws.take())
    mean_abs, frame_means = magnitude_stats(mag, per_frame, absolute=True)
    binary = binarize_signal(mag, eps=cfg.amm.epsilon, absolute=True)
    ws.give(mag)
    score = float(np.mean([iou(binary[b], cfg.mask.data) for b in range(binary.shape[0])]))
    return mean_abs, frame_means, score


def run_edit(
    x_src: VideoLatent,
    cfg: EditConfig,
    backend: BackendRegistry,
) -> tuple[VideoLatent, EditReport]:
    """Drive the editing trajectory across the grid and report per-step stats.

    Each step runs in place while the next step's draws are under way (see
    the module docstring); a non-finite state raises NonFiniteStateError naming
    the step. The run returns or raises only once no helper of a started
    draw can still write.
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
    ws = _Workspace(x.shape)

    def start_draws(rng: RngStream) -> None:  # each into a buffer of the workspace
        for _ in range(cfg.n_avg):
            rng.start_normals(x.size, np.float32, out=ws.take().reshape(-1))

    ahead = run_rng.substream(cfg.grid.active_steps)  # the stream whose draws are started
    try:
        start_draws(ahead)
        for index, t, t_next in cfg.grid.intervals():
            noises = [sample_gaussian(ahead, x.shape) for _ in range(cfg.n_avg)]
            if index > 1:
                ahead = run_rng.substream(index - 1)
                start_draws(ahead)
            dv, noise, z_src, z_tar = editing_signal(z_edit, x, t, cfg, backend, noises, ws)
            contrast = contrast_map(dv, cfg.amm.epsilon)
            mean_abs, per_frame, iou_dv = _signal_stats(dv, cfg, ws, per_frame=True)
            dv_amm = amplify(dv, contrast, gain, out=dv)
            mean_abs_amm, _, iou_amm = _signal_stats(dv_amm, cfg, ws, per_frame=False)
            z_next = np.multiply(dv_amm, t_next - t, out=dv_amm)
            z_next += z_edit
            if not np.isfinite(z_next).all():
                raise NonFiniteStateError(index, "latent entries must be finite")
            if cfg.baseline_blend:
                z_ref = interpolate_source(x, noise, t_next, out=ws.take())
                blend_baseline(z_next, z_ref, cfg.mask, in_place=True)
                ws.give(z_ref, noise)
            report.steps.append(StepRecord(
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
            ))
            if z_edit is not x and not cfg.record_states:
                ws.give(z_edit)
            z_edit = z_next
    finally:
        ahead.cancel_started()
    return VideoLatent(z_edit), report
