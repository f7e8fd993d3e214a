"""Editing-signal instrumentation: binarized-signal IoU, magnitude stats,
and frame-count sweeps.

The binarization reuses the modulation module's per-sample min-max
normalization, applied to the channel-mean absolute signal, and cuts at a
threshold. Runs cut at ``DEFAULT_BINARIZE_THRESHOLD`` (0.5), which every
report echoes so results are self-describing. IoU of two empty sets is
defined as 1 (perfect agreement of emptiness). Signals are float32
(B, C, F, H, W) arrays.

No claim is made that the toy backends reproduce any particular attenuation
trend over frame counts; the sweep is bookkeeping around real runs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from .amm import contrast_map
from .core import EditMask, VideoLatent
from .errors import ShapeMismatchError

DEFAULT_BINARIZE_THRESHOLD = 0.5

SWEEP_CSV_HEADER = ("F", "step", "mean_abs", "iou", "gamma_f")


def binarize_signal(
    dv: np.ndarray,
    threshold: float = DEFAULT_BINARIZE_THRESHOLD,
    eps: float = 1e-7,
) -> np.ndarray:
    """Per-sample binary map (B, F, H, W) of where the signal is strong.

    Channel-mean |dv| is min-max normalized per sample and cut strictly
    above ``threshold``; a constant signal therefore binarizes to all
    zeros.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    normalized = contrast_map(np.abs(dv), eps)[:, 0]
    return (normalized > threshold).astype(np.uint8)


def iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two binary grids; empty vs empty is 1."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"iou operands differ in shape: {a.shape} vs {b.shape}")
    a = a.astype(bool)
    b = b.astype(bool)
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)


def magnitude_stats(dv: np.ndarray, per_frame: bool = True) -> tuple[float, tuple[float, ...]]:
    """(mean |dv| over all entries, mean |dv| per latent frame); the per-frame
    tuple is empty unless ``per_frame``."""
    mag = np.abs(dv)
    overall = float(mag.mean(dtype=np.float64))
    frames = dv.shape[2] if per_frame else 0
    return overall, tuple(float(mag[:, :, f].mean(dtype=np.float64)) for f in range(frames))


def report_rows(report) -> list[tuple[int, int, float, float, float]]:
    """(F, step, mean_abs, iou, gamma_f) rows of an ``EditReport``, one per step."""
    return [(report.frames, rec.index, rec.mean_abs, rec.iou, report.gain) for rec in report.steps]


def frame_sweep(
    family: Callable[[int], tuple[VideoLatent, EditMask]],
    base_cfg,
    backend,
    frame_counts: Sequence[int],
) -> list[tuple[int, int, float, float, float]]:
    """Run one edit per frame count and tabulate per-step diagnostics.

    ``family(F)`` must supply the source latent and the mask at that
    latent frame count; everything else (grid, strengths, seed) comes from
    ``base_cfg`` so runs are comparable. Rows are
    (F, step, mean_abs, iou, gamma_f).
    """
    from .engine import run_edit

    rows: list[tuple[int, int, float, float, float]] = []
    for frames in frame_counts:
        x_src, mask = family(int(frames))
        if x_src.dims.frames != frames or mask.shape[0] != frames:
            raise ShapeMismatchError(
                f"family returned {x_src.dims.frames} frames, requested {frames}"
            )
        cfg = replace(base_cfg, mask=mask)
        _, report = run_edit(x_src, cfg, backend)
        rows.extend(report_rows(report))
    return rows


def sweep_rows_to_csv(rows: Sequence[tuple[int, int, float, float, float]]) -> str:
    """Render sweep rows as CSV text (header + one row per step, \\n endings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for frames, step, mean_abs, iou_value, gain in rows:
        writer.writerow([frames, step, repr(float(mean_abs)), repr(float(iou_value)), repr(float(gain))])
    return buf.getvalue()
