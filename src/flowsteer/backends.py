"""Conditional velocity fields over video latents, and the edit's condition pair.

Two desk-scale backends are provided:

* a Gaussian backend whose velocity is the closed-form conditional
  expectation for the straight-line path between N(mu, s^2 I) data and
  N(0, I) noise -- fully verifiable against brute-force estimates;

* a toy cross-attention backend that projects voxels to queries, scores
  them against per-condition text keys, and mixes text values through a
  row softmax. It exposes its pre-softmax logits to an optional hook so
  attention-level interventions can be tested end to end.

Both are immutable after construction and evaluate deterministically, so
velocity calls are pure and safe to issue concurrently. An edit evaluates
exactly two conditions, so ``BackendRegistry`` holds the source/target pair
and a ``VelocityQuery`` names its role, ``"source"`` or ``"target"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .core import RngStream, clamp_time
from .errors import ShapeMismatchError
from .sar import AttentionMaps, TargetTokenSet, _row_extreme

# Hook over pre-softmax logits; second argument is the attention layer index.
AttentionHook = Callable[[AttentionMaps, int], AttentionMaps]


@dataclass(frozen=True)
class GaussianCondition:
    """Data distribution N(mean, scale^2 I); mean broadcasts per channel."""

    mean: np.ndarray
    scale: float

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float32))
        if mean.ndim != 1:
            raise ShapeMismatchError("mean must be a scalar or per-channel vector")
        mean = mean.view()
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def channel_mean(self, channels: int) -> np.ndarray:
        """mean as a (1, C, 1, 1, 1)-broadcastable array."""
        mu = self.mean
        if mu.size == 1:
            mu = np.broadcast_to(mu, (channels,))
        elif mu.size != channels:
            raise ShapeMismatchError(
                f"per-channel mean has {mu.size} entries but latent has {channels} channels"
            )
        return mu.reshape(1, channels, 1, 1, 1)


@dataclass(frozen=True)
class ToyAttentionCondition:
    """One text condition for the toy cross-attention backend.

    ``query_weights`` maps the per-voxel feature vector (3 normalized grid
    coordinates followed by the C channel values) to query space; it is
    shared between paired source/target conditions, as are the keys. A
    condition pair encoding an edit differs only in the value rows of the
    target tokens.
    """

    text_keys: np.ndarray  # (L, d)
    text_values: np.ndarray  # (L, C)
    query_weights: np.ndarray  # (3 + C, d)
    temperature: float

    def __post_init__(self):
        keys = np.ascontiguousarray(self.text_keys, dtype=np.float32)
        values = np.ascontiguousarray(self.text_values, dtype=np.float32)
        weights = np.ascontiguousarray(self.query_weights, dtype=np.float32)
        if keys.ndim != 2 or keys.shape[0] < 1:
            raise ShapeMismatchError("text_keys must be a nonempty (L, d) matrix")
        if values.ndim != 2 or values.shape[0] != keys.shape[0]:
            raise ShapeMismatchError(
                f"text_values rows {values.shape} must match text_keys rows {keys.shape}"
            )
        if weights.shape != (3 + values.shape[1], keys.shape[1]):
            raise ShapeMismatchError(
                f"query_weights shape {weights.shape} must be (3 + C, d) = "
                f"{(3 + values.shape[1], keys.shape[1])}"
            )
        if not self.temperature > 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        for arr in (keys, values, weights):
            arr.flags.writeable = False
        object.__setattr__(self, "text_keys", keys)
        object.__setattr__(self, "text_values", values)
        object.__setattr__(self, "query_weights", weights)

    @property
    def tokens(self) -> int:
        return self.text_keys.shape[0]

    @property
    def channels(self) -> int:
        return self.text_values.shape[1]


Condition = GaussianCondition | ToyAttentionCondition


def make_toy_condition_pair(
    model_seed: int,
    tokens: int,
    query_dim: int,
    channels: int,
    j_tar: TargetTokenSet,
    temperature: float = 2.0,
) -> tuple[ToyAttentionCondition, ToyAttentionCondition]:
    """Build a (source, target) condition pair differing only on target-token values."""
    root = RngStream(model_seed)
    keys = root.substream(0).normals(tokens * query_dim).reshape(tokens, query_dim)
    values = root.substream(1).normals(tokens * channels).reshape(tokens, channels)
    weights = root.substream(2).normals((3 + channels) * query_dim).reshape(3 + channels, query_dim)
    tar_rows = sorted(j_tar.column_selector(tokens).nonzero()[0])
    edited = values.copy()
    replacement = root.substream(3).normals(len(tar_rows) * channels).reshape(-1, channels)
    edited[tar_rows] = replacement
    src = ToyAttentionCondition(keys, values, weights, temperature)
    tar = ToyAttentionCondition(keys, edited, weights, temperature)
    return src, tar


@dataclass(frozen=True)
class VelocityQuery:
    """Arguments of one conditional velocity evaluation; ``state`` is a float32
    (B, C, F, H, W) array."""

    state: np.ndarray
    time: float
    condition: str  # the role, "source" or "target"
    attention_hook: Optional[AttentionHook] = None

    def __post_init__(self):
        if self.condition not in ("source", "target"):
            raise ValueError(f"condition must be 'source' or 'target', got {self.condition!r}")
        object.__setattr__(self, "time", clamp_time(self.time))


def gaussian_velocity(state: np.ndarray, t: float, cond: GaussianCondition) -> np.ndarray:
    """Closed-form velocity of the straight path between data and noise.

    With X ~ N(mu, s^2 I), N ~ N(0, I) and Z_t = (1 - t) X + t N, the field
    is E[N - X | Z_t = z]. Writing r(z) = (z - (1 - t) mu) / ((1-t)^2 s^2 + t^2):

        E[X | z] = mu + (1 - t) s^2 r(z),   E[N | z] = t r(z),
        velocity = (t - (1 - t) s^2) r(z) - mu.

    The denominator (1-t)^2 s^2 + t^2 is positive for every t in [0, 1]
    when s > 0, so no special-casing is needed anywhere on the grid.
    """
    t = clamp_time(t)
    mu = cond.channel_mean(state.shape[1])
    s2 = cond.scale * cond.scale
    denom = (1.0 - t) * (1.0 - t) * s2 + t * t
    r = (state - (1.0 - t) * mu) / denom
    return (t - (1.0 - t) * s2) * r - mu


@lru_cache(maxsize=8)
def _voxel_grid(frames: int, height: int, width: int) -> np.ndarray:
    """Read-only (F*H*W, 3) matrix of normalized cell-center coordinates."""
    fs = (np.arange(frames, dtype=np.float32) + np.float32(0.5)) / np.float32(frames)
    hs = (np.arange(height, dtype=np.float32) + np.float32(0.5)) / np.float32(height)
    ws = (np.arange(width, dtype=np.float32) + np.float32(0.5)) / np.float32(width)
    grid = np.stack(np.meshgrid(fs, hs, ws, indexing="ij"), axis=-1)
    grid.flags.writeable = False  # locks the owner, so no view can be made writeable
    return grid.reshape(-1, 3)


def _voxel_features(state: np.ndarray, sample: int) -> np.ndarray:
    """Feature matrix (F*H*W, 3 + C): cell-center coordinates then channel values."""
    _, channels, frames, height, width = state.shape
    values = state[sample].reshape(channels, -1).T  # (F*H*W, C)
    return np.concatenate([_voxel_grid(frames, height, width), values], axis=1)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    # 0 * min is +-0 while every logit is finite and NaN once one is -inf or NaN (+inf
    # already makes its row NaN), so no non-finite logit passes as an exact zero weight.
    shift = _row_extreme(logits, np.maximum) + 0 * logits.min()
    probs = logits - shift
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def toy_attention_velocity(
    state: np.ndarray,
    t: float,
    cond: ToyAttentionCondition,
    hook: Optional[AttentionHook] = None,
    layer: int = 0,
) -> tuple[np.ndarray, list[AttentionMaps]]:
    """Attention-mixed velocity plus the post-hook, post-softmax maps per sample.

    Queries are a fixed linear map of voxel coordinates and local channel
    values; logits are (Q K^T) / temperature. The hook, when given, runs on
    the pre-softmax logits of each sample.
    """
    batch, channels, frames, height, width = state.shape
    if cond.channels != channels:
        raise ShapeMismatchError(
            f"condition produces {cond.channels} channels, latent has {channels}"
        )
    dims = (frames, height, width, cond.tokens)
    outs = []
    maps: list[AttentionMaps] = []
    for b in range(batch):
        feats = _voxel_features(state, b)
        queries = feats @ cond.query_weights
        logits = queries @ cond.text_keys.T
        logits /= np.float32(cond.temperature)
        attn = AttentionMaps(logits, dims)
        if hook is not None:
            attn = hook(attn, layer)
        probs = _softmax_rows(attn.logits)
        mixed = probs @ cond.text_values  # (F*H*W, C)
        outs.append(mixed.T.reshape(channels, frames, height, width))
        maps.append(AttentionMaps(probs, dims))
    return np.stack(outs), maps


class BackendRegistry:
    """The edit's source/target condition pair, dispatching queries by role."""

    def __init__(self, source: Condition, target: Condition):
        for role, cond in (("source", source), ("target", target)):
            if not isinstance(cond, Condition):
                raise TypeError(f"{role} must be a condition, got {type(cond).__name__}")
        self.source = source
        self.target = target

    def velocity(self, query: VelocityQuery) -> np.ndarray:
        vel, _ = self.velocity_with_maps(query)
        return vel

    def velocity_with_maps(
        self, query: VelocityQuery
    ) -> tuple[np.ndarray, list[AttentionMaps]]:
        """Dispatch a query; attention maps are empty for map-free backends."""
        cond = self.source if query.condition == "source" else self.target
        if isinstance(cond, GaussianCondition):
            return gaussian_velocity(query.state, query.time, cond), []
        return toy_attention_velocity(query.state, query.time, cond, hook=query.attention_hook)
