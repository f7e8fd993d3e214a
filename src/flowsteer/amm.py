"""Contrast-driven amplification of the editing signal.

The editing signal is averaged over channels, min-max normalized per batch
sample into a [0, 1] contrast map, and multiplied back elementwise as
(1 + gain * contrast). The gain grows logarithmically with the latent frame
count, ``gamma * log(F) / log(F0)``, so a single frame gets no
amplification and the reference length F0 gets exactly gamma. The epsilon
in the normalization denominator keeps constant signals at zero contrast
and bounds every multiplier in [1, 1 + gain].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class AmmConfig:
    gamma: float = 1.0
    f0: int = 21
    epsilon: float = 1e-7

    def __post_init__(self):
        if not self.gamma >= 0.0:
            raise ConfigError("amm.gamma", f"must be >= 0, got {self.gamma}")
        if not self.f0 >= 2:
            raise ConfigError("amm.f0", f"must be >= 2, got {self.f0}")
        if not self.epsilon > 0.0:
            raise ConfigError("amm.epsilon", f"must be > 0, got {self.epsilon}")


def gamma_f(cfg: AmmConfig, frames: int) -> float:
    """Frame-adaptive gain gamma * log(F) / log(F0); zero at F = 1."""
    if frames < 1:
        raise ValueError(f"frame count must be >= 1, got {frames}")
    return cfg.gamma * (math.log(frames) / math.log(cfg.f0))


def contrast_map(dv: np.ndarray, eps: float = 1e-7) -> np.ndarray:
    """Channel-mean signal, min-max normalized independently per sample.

    ``dv`` is a float32 (B, C, F, H, W) array; the result has shape
    (B, 1, F, H, W) and, for a finite signal, lies in [0, 1]. Minima and
    maxima are taken over the flattened F*H*W positions of each sample; the
    denominator carries +eps so a constant signal maps to an all-zero
    contrast instead of 0/0.
    """
    mean = dv.mean(axis=1, keepdims=True, dtype=np.float32)
    flat = mean.reshape(mean.shape[0], -1)
    lo = flat.min(axis=1).reshape(-1, 1, 1, 1, 1)
    hi = flat.max(axis=1).reshape(-1, 1, 1, 1, 1)
    return (mean - lo) / (hi - lo + np.float32(eps))


def amplify(
    dv: np.ndarray, contrast: np.ndarray, gain: float, out: np.ndarray | None = None
) -> np.ndarray:
    """(1 + gain * contrast) * dv with the contrast broadcast over channels,
    written into ``out`` when given."""
    if gain < 0.0:
        raise ValueError(f"gain must be >= 0, got {gain}")
    factor = 1.0 + np.float32(gain) * contrast
    return np.multiply(factor, dv, out=out)
