"""Editing-signal instrumentation: binarized-signal IoU, magnitude stats,
and the per-step diagnostics table.

The binarization reuses the modulation module's per-sample min-max
normalization, applied to the channel-mean absolute signal, and cuts at the
fixed ``DEFAULT_BINARIZE_THRESHOLD`` (0.5), which every report echoes so
results are self-describing. IoU of two empty sets is defined as 1 (perfect
agreement of emptiness). Signals are float32 (B, C, F, H, W) arrays.

The editing loop takes a signal's statistics before the step overwrites it,
from one |dv| that it passes to both statistics with ``absolute=True``.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

import numpy as np

from .amm import contrast_map
from .errors import ShapeMismatchError

DEFAULT_BINARIZE_THRESHOLD = 0.5

SWEEP_CSV_HEADER = ("F", "step", "mean_abs", "iou", "gamma_f")


def binarize_signal(dv: np.ndarray, *, eps: float = 1e-7, absolute: bool = False) -> np.ndarray:
    """Per-sample bool map (B, F, H, W) of where the signal is strong.

    Channel-mean |dv| is min-max normalized per sample and cut strictly
    above ``DEFAULT_BINARIZE_THRESHOLD``; a constant signal therefore
    binarizes to all False. With ``absolute`` the caller passes |dv| itself.
    """
    normalized = contrast_map(dv if absolute else np.abs(dv), eps)[:, 0]
    return normalized > DEFAULT_BINARIZE_THRESHOLD


def iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two binary grids (nonzero is set); empty vs
    empty is 1."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"iou operands differ in shape: {a.shape} vs {b.shape}")
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)


def magnitude_stats(
    dv: np.ndarray, per_frame: bool = True, *, absolute: bool = False
) -> tuple[float, tuple[float, ...]]:
    """(mean |dv| over all entries, mean |dv| per latent frame); the per-frame
    tuple is empty unless ``per_frame``. With ``absolute`` the caller passes
    |dv| itself."""
    mag = dv if absolute else np.abs(dv)
    overall = float(mag.mean(dtype=np.float64))
    frames = dv.shape[2] if per_frame else 0
    return overall, tuple(float(mag[:, :, f].mean(dtype=np.float64)) for f in range(frames))


def report_rows(report) -> list[tuple[int, int, float, float, float]]:
    """(F, step, mean_abs, iou, gamma_f) rows of an ``EditReport``, one per step."""
    return [(report.frames, rec.index, rec.mean_abs, rec.iou, report.gain) for rec in report.steps]


def sweep_rows_to_csv(rows: Sequence[tuple[int, int, float, float, float]]) -> str:
    """Render sweep rows as CSV text (header + one row per step, \\n endings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for frames, step, mean_abs, iou_value, gain in rows:
        writer.writerow([frames, step, repr(float(mean_abs)), repr(float(iou_value)), repr(float(gain))])
    return buf.getvalue()
