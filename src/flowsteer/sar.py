"""Mask-anchored refinement of cross-attention logits.

Two convex modulation passes over a pre-softmax logit matrix of shape
(F*H*W) x L sharpen the coupling between selected text tokens and a binary
spatial region:

* text-token pass: inside the masked voxels, target-token entries move
  toward the voxel's row maximum and all other entries toward its row
  minimum, each by a convex step of strength beta1;

* spatio-temporal pass: within each target-token column, masked voxels
  move toward the column maximum and unmasked voxels toward the column
  minimum, by strength beta2.

Each update is a convex interpolation toward an existing extremum, so
modulated values never leave the original logit range and the softmax
downstream still yields probability rows. The refinement is gated to the
early, high-t part of a run: it applies only while t >= tau_fraction *
t_max and only on configured layers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import FrozenSet, Optional

import numpy as np

from .core import EditMask, TimeGrid
from .errors import ConfigError, ShapeMismatchError


@dataclass(frozen=True)
class AttentionMaps:
    """Per-layer attention matrix of shape (F*H*W) x L with its voxel dims.

    Holds pre-softmax logits while hooks run; backends reuse the container
    for post-softmax weights when reporting diagnostics. Only the shape is
    checked: a non-finite logit reaches the velocity, and the editing loop's
    end-of-step check reports it.
    """

    logits: np.ndarray
    dims: tuple[int, int, int, int]  # (F, H, W, L)

    def __post_init__(self):
        arr = np.asarray(self.logits)
        f, h, w, tokens = self.dims
        if arr.ndim != 2 or arr.shape != (f * h * w, tokens):
            raise ShapeMismatchError(
                f"logit matrix shape {arr.shape} does not match dims {self.dims}"
            )
        arr = np.ascontiguousarray(arr)
        arr = arr.view()
        arr.flags.writeable = False
        object.__setattr__(self, "logits", arr)

    @property
    def voxels(self) -> int:
        return self.logits.shape[0]

    @property
    def tokens(self) -> int:
        return self.logits.shape[1]


@dataclass(frozen=True)
class TargetTokenSet:
    """Nonempty set of text-token column indices (0-based) that carry the edit."""

    indices: FrozenSet[int]

    def __post_init__(self):
        idx = frozenset(int(i) for i in self.indices)
        if not idx:
            raise ValueError("target token set must be nonempty")
        if any(i < 0 for i in idx):
            raise ValueError("target token indices must be >= 0")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, *indices: int) -> "TargetTokenSet":
        return cls(frozenset(indices))

    def column_selector(self, tokens: int) -> np.ndarray:
        if max(self.indices) >= tokens:
            raise ValueError(
                f"target token index {max(self.indices)} out of range for L={tokens}"
            )
        sel = np.zeros(tokens, dtype=bool)
        sel[list(self.indices)] = True
        return sel


@dataclass(frozen=True)
class SarConfig:
    """Strengths and gating for the attention refinement.

    ``layer_set`` is None for "all layers" or a frozenset of layer indices.
    Refinement is active while t >= tau_fraction * t_max.
    """

    beta1: float = 0.3
    beta2: float = 0.3
    tau_fraction: float = 0.6
    layer_set: Optional[FrozenSet[int]] = None

    def __post_init__(self):
        if not 0.0 <= self.beta1 <= 1.0:
            raise ConfigError("sar.beta1", f"must be in [0, 1], got {self.beta1}")
        if not 0.0 <= self.beta2 <= 1.0:
            raise ConfigError("sar.beta2", f"must be in [0, 1], got {self.beta2}")
        if not 0.0 < self.tau_fraction <= 1.0:
            raise ConfigError("sar.tau_fraction", f"must be in (0, 1], got {self.tau_fraction}")

    def applies_to_layer(self, layer: int) -> bool:
        return self.layer_set is None or layer in self.layer_set


def _mask_rows(maps: AttentionMaps, mask: EditMask) -> np.ndarray:
    f, h, w, _ = maps.dims
    if mask.shape != (f, h, w):
        raise ShapeMismatchError(f"mask shape {mask.shape} does not match voxel grid {(f, h, w)}")
    return mask.flat()


def _row_extreme(logits: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """(N, 1) row max (``np.maximum``) or row min (``np.minimum``) of an (N, L) matrix.

    Loops over the L token columns because numpy reduces a short inner axis
    one row at a time, several times slower than L whole-column ufunc calls.
    The values equal ``ufunc.reduce(logits, axis=1)``, NaN included; only the
    sign of a zero extremum from a +0/-0 tie may differ, as it already does
    between numpy's own SIMD widths.
    """
    out = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        ufunc(out, logits[:, j], out=out)
    return out[:, None]


def text_token_modulation(
    maps: AttentionMaps,
    mask: EditMask,
    j_tar: TargetTokenSet,
    beta1: float,
) -> AttentionMaps:
    """Convex pull of masked rows toward their extrema, keyed by token role.

    For voxels with mask 1, target-token entries become
    (1 - beta1) * A + beta1 * rowmax and all other entries
    (1 - beta1) * A + beta1 * rowmin. Everything else is untouched.
    """
    if not 0.0 <= beta1 <= 1.0:
        raise ValueError(f"beta1 must be in [0, 1], got {beta1}")
    if beta1 == 0.0:
        return maps
    logits = maps.logits
    rows = _mask_rows(maps, mask)
    if not rows.any():
        return maps
    tar_cols = j_tar.column_selector(maps.tokens)
    sub = logits[rows]
    row_max = _row_extreme(sub, np.maximum)
    row_min = _row_extreme(sub, np.minimum)
    pulled = np.where(tar_cols[None, :], row_max, row_min)
    out = logits.copy()
    out[rows] = (1.0 - beta1) * sub + beta1 * pulled
    return AttentionMaps(out, maps.dims)


def spatiotemporal_modulation(
    maps: AttentionMaps,
    mask: EditMask,
    j_tar: TargetTokenSet,
    beta2: float,
) -> AttentionMaps:
    """Convex pull of target-token columns toward their spatial extrema.

    Masked voxels move toward the column max, unmasked voxels toward the
    column min; non-target columns are untouched.
    """
    if not 0.0 <= beta2 <= 1.0:
        raise ValueError(f"beta2 must be in [0, 1], got {beta2}")
    if beta2 == 0.0:
        return maps
    logits = maps.logits
    rows = _mask_rows(maps, mask)
    tar_cols = j_tar.column_selector(maps.tokens)
    sub = logits[:, tar_cols]
    col_max = sub.max(axis=0, keepdims=True)
    col_min = sub.min(axis=0, keepdims=True)
    pulled = np.where(rows[:, None], col_max, col_min)
    out = logits.copy()
    out[:, tar_cols] = (1.0 - beta2) * sub + beta2 * pulled
    return AttentionMaps(out, maps.dims)


def apply_sar(
    maps: AttentionMaps,
    mask: EditMask,
    j_tar: TargetTokenSet,
    cfg: SarConfig,
    t: float,
    grid: TimeGrid,
    layer: int = 0,
) -> AttentionMaps:
    """Gated composition of both modulation passes on pre-softmax logits.

    Outside the active window (t < tau_fraction * t_max) or off the
    configured layers the input is returned unchanged.
    """
    if t < cfg.tau_fraction * grid.t_max or not cfg.applies_to_layer(layer):
        return maps
    if mask.is_empty() and cfg.beta2 > 0.0:
        warnings.warn(
            "attention refinement with an all-zero mask suppresses target "
            "tokens everywhere; check the mask input",
            stacklevel=2,
        )
    refined = text_token_modulation(maps, mask, j_tar, cfg.beta1)
    return spatiotemporal_modulation(refined, mask, j_tar, cfg.beta2)
