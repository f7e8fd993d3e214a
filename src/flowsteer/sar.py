"""Mask-anchored refinement of cross-attention logits.

Two convex modulation passes over a pre-softmax logit array of shape
L x (F*H*W), one row per text token and one column per voxel, sharpen the
coupling between selected text tokens and a binary spatial region:

* text-token pass: in each masked voxel's column, target-token entries move
  toward the column's token maximum and all other entries toward its token
  minimum, each by a convex step of strength beta1;

* spatio-temporal pass: within each target-token row, masked voxels move
  toward the row maximum and unmasked voxels toward the row minimum, by
  strength beta2.

Each update is a convex interpolation toward an existing extremum, so
modulated values never leave the original logit range and the softmax
downstream still yields probabilities. The refinement is gated to the
early, high-t part of a run: every grid starts at t = 1, so it applies only
while t >= tau_fraction, and only on configured layers.

The logits are a plain (L, F*H*W) array whose columns follow the mask's
flattened voxel order. The passes take a boolean column selector (the
masked voxels) and a boolean row selector (the target tokens);
``apply_sar`` takes the first as a view of the ``EditMask``'s bool data and
builds the second from the ``TargetTokenSet``, once per call, and checks
the mask's voxel count against the logit columns there. Column and row
extrema are numpy's own max/min reductions over the token or voxel axis.
A pass that changes nothing returns its input array itself. Otherwise the
text-token pass returns the ``out`` buffer it is given, with its result
written there, or a new array; the spatio-temporal pass returns a new array,
or its input when asked to work in place. No other pass writes into its
input. So ``apply_sar`` returns its input when gated off and, when given
``out``, returns ``out`` whenever the text-token pass changed the logits:
the spatio-temporal pass then refines that array in place.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import FrozenSet, Optional

import numpy as np

from .core import EditMask
from .errors import ConfigError, ShapeMismatchError


@dataclass(frozen=True)
class TargetTokenSet:
    """Nonempty set of text-token indices (0-based) that carry the edit."""

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

    def token_selector(self, tokens: int) -> np.ndarray:
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

    ``layers`` is None for "all layers" or a frozenset of layer indices >= 0.
    Refinement is active while t >= tau_fraction; every grid starts at t = 1.
    """

    beta1: float = 0.3
    beta2: float = 0.3
    tau_fraction: float = 0.6
    layers: Optional[FrozenSet[int]] = None

    def __post_init__(self):
        if not 0.0 <= self.beta1 <= 1.0:
            raise ConfigError("sar.beta1", f"must be in [0, 1], got {self.beta1}")
        if not 0.0 <= self.beta2 <= 1.0:
            raise ConfigError("sar.beta2", f"must be in [0, 1], got {self.beta2}")
        if not 0.0 < self.tau_fraction <= 1.0:
            raise ConfigError("sar.tau_fraction", f"must be in (0, 1], got {self.tau_fraction}")
        if self.layers and min(self.layers) < 0:
            raise ConfigError("sar.layers", f"indices must be >= 0, got {min(self.layers)}")

    def applies_to_layer(self, layer: int) -> bool:
        return self.layers is None or layer in self.layers


def _convex_step(sub: np.ndarray, pulled: np.ndarray, beta: float) -> np.ndarray:
    """(1 - beta) * sub + beta * pulled, computed in place in both operands."""
    np.multiply(sub, 1.0 - beta, out=sub)
    np.multiply(pulled, beta, out=pulled)
    return np.add(sub, pulled, out=sub)


def text_token_modulation(
    logits: np.ndarray,
    mask_cols: np.ndarray,
    tar_rows: np.ndarray,
    beta1: float,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Convex pull of masked voxel columns toward their token extrema, keyed by token role.

    For voxels with mask 1, target-token entries become
    (1 - beta1) * A + beta1 * colmax and all other entries
    (1 - beta1) * A + beta1 * colmin. Everything else is untouched. The
    result goes into ``out``, shaped like ``logits``, when given, else into a
    new array.
    """
    if not 0.0 <= beta1 <= 1.0:
        raise ValueError(f"beta1 must be in [0, 1], got {beta1}")
    if beta1 == 0.0 or not mask_cols.any():
        return logits
    # compress keeps the token-major layout; logits[:, mask_cols] comes out voxel-major,
    # where each token reduction walks a short row per voxel, several times slower
    sub = logits.compress(mask_cols, axis=1)
    pulled = np.where(tar_rows[:, None], sub.max(axis=0), sub.min(axis=0))
    if out is None:
        out = np.empty_like(logits)
    np.copyto(out, logits)
    out[:, mask_cols] = _convex_step(sub, pulled, beta1)
    return out


def spatiotemporal_modulation(
    logits: np.ndarray,
    mask_cols: np.ndarray,
    tar_rows: np.ndarray,
    beta2: float,
    in_place: bool = False,
) -> np.ndarray:
    """Convex pull of target-token rows toward their spatial extrema.

    Masked voxels move toward the row max, unmasked voxels toward the
    row min; non-target rows are untouched. With ``in_place`` the result
    overwrites ``logits``.
    """
    if not 0.0 <= beta2 <= 1.0:
        raise ValueError(f"beta2 must be in [0, 1], got {beta2}")
    if beta2 == 0.0:
        return logits
    sub = logits[tar_rows]
    row_max = sub.max(axis=1, keepdims=True)
    row_min = sub.min(axis=1, keepdims=True)
    pulled = np.where(mask_cols[None, :], row_max, row_min)
    out = logits if in_place else logits.copy()
    out[tar_rows] = _convex_step(sub, pulled, beta2)
    return out


def apply_sar(
    logits: np.ndarray,
    mask: EditMask,
    j_tar: TargetTokenSet,
    cfg: SarConfig,
    t: float,
    layer: int = 0,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gated composition of both modulation passes on pre-softmax logits.

    Outside the active window (t < tau_fraction) or off the
    configured layers, and when both passes are no-ops, the input array
    itself is returned. Inside the window the mask becomes the column
    selector and the target tokens the row selector, once for both passes,
    and the refined logits go into ``out`` when given (see the module
    docstring); ``logits`` is never written.
    """
    if t < cfg.tau_fraction or not cfg.applies_to_layer(layer):
        return logits
    if mask.is_empty() and cfg.beta2 > 0.0:
        warnings.warn(
            "attention refinement with an all-zero mask suppresses target "
            "tokens everywhere; check the mask input",
            stacklevel=2,
        )
    mask_cols = mask.flat()
    if mask_cols.size != logits.shape[1]:
        raise ShapeMismatchError(
            f"mask has {mask_cols.size} voxels but the logit array has {logits.shape[1]} columns"
        )
    tar_rows = j_tar.token_selector(logits.shape[0])
    refined = text_token_modulation(logits, mask_cols, tar_rows, cfg.beta1, out)
    # a refined array is the first pass's own copy, so the second pass may overwrite it
    return spatiotemporal_modulation(
        refined, mask_cols, tar_rows, cfg.beta2, in_place=refined is not logits
    )
