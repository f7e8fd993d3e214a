"""Conditional velocity fields over video latents, and the edit's condition pair.

Two desk-scale backends are provided:

* a Gaussian backend whose velocity is the closed-form conditional
  expectation for the straight-line path between N(mu, s^2 I) data and
  N(0, I) noise -- fully verifiable against brute-force estimates;

* a toy cross-attention backend that projects voxels to queries, scores
  them against per-condition text keys, and mixes text values through a
  softmax over the tokens. Its logits are token-major, one (L, F*H*W)
  array per sample, exposed before the softmax to an optional hook so
  attention-level interventions can be tested end to end.

Both are immutable after construction and evaluate deterministically, so
velocity calls are pure and safe to issue concurrently: the toy field's
temporaries are buffers of the calling thread, kept across calls, and its
result is never one of them. Its token sum repeats numpy's pairwise order,
so the token-major layout gives the bits of the row-major one wherever
numpy runs the products through BLAS gemm (C >= 2 and query width >= 2).

The toy field's three matrix products run in column blocks with
M*K*width <= 2**18, the size up to which OpenBLAS runs a gemm on the
calling thread. Above it OpenBLAS hands the product to its own worker
threads, which spin between calls: a toy edit then burned about twice its
wall time in CPU, and the CPU that the editing loop gives to the next
step's noise draw (see ``engine``) was taken. A gemm's columns are
independent, so a block gives the same bits as the whole product. Products
with M = 1 or K = 1 stay whole: numpy sends those to gemv, whose sums a
block would reorder. No BLAS setting is touched, so other users of BLAS in
the process see no change.

An edit evaluates exactly two conditions, so ``BackendRegistry`` holds the
source/target pair and a ``VelocityQuery`` names its role, ``"source"`` or
``"target"``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import RngStream, check_time
from .errors import ShapeMismatchError
from .sar import TargetTokenSet

# Hook over the pre-softmax (L, F*H*W) logit array, one row per text token; second
# argument is the attention layer index. It returns the logits to softmax, its input
# if unchanged, and must not write into its input.
AttentionHook = Callable[[np.ndarray, int], np.ndarray]


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
    tar_rows = sorted(j_tar.token_selector(tokens).nonzero()[0])
    edited = values.copy()
    replacement = root.substream(3).normals(len(tar_rows) * channels).reshape(-1, channels)
    edited[tar_rows] = replacement
    src = ToyAttentionCondition(keys, values, weights, temperature)
    tar = ToyAttentionCondition(keys, edited, weights, temperature)
    return src, tar


@dataclass(frozen=True)
class VelocityQuery:
    """Arguments of one conditional velocity evaluation; ``state`` is a float32
    (B, C, F, H, W) array. A field writes the velocity into ``out`` when
    given, which may be ``state`` itself."""

    state: np.ndarray
    time: float
    condition: str  # the role, "source" or "target"
    attention_hook: Optional[AttentionHook] = None
    out: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.condition not in ("source", "target"):
            raise ValueError(f"condition must be 'source' or 'target', got {self.condition!r}")


def gaussian_velocity(
    state: np.ndarray, t: float, cond: GaussianCondition, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Closed-form velocity of the straight path between data and noise.

    With X ~ N(mu, s^2 I), N ~ N(0, I) and Z_t = (1 - t) X + t N, the field
    is E[N - X | Z_t = z]. Writing r(z) = (z - (1 - t) mu) / ((1-t)^2 s^2 + t^2):

        E[X | z] = mu + (1 - t) s^2 r(z),   E[N | z] = t r(z),
        velocity = (t - (1 - t) s^2) r(z) - mu.

    The denominator (1-t)^2 s^2 + t^2 is positive for every t in [0, 1]
    when s > 0, so no special-casing is needed anywhere on the grid. The
    result is written into ``out`` when given, which may be ``state``.
    """
    t = check_time(t)
    mu = cond.channel_mean(state.shape[1])
    s2 = cond.scale * cond.scale
    denom = (1.0 - t) * (1.0 - t) * s2 + t * t
    r = np.subtract(state, (1.0 - t) * mu, out=out)
    r /= denom
    r *= t - (1.0 - t) * s2
    r -= mu
    return r


def _voxel_grid(frames: int, height: int, width: int) -> np.ndarray:
    """(F*H*W, 3) matrix of normalized cell-center coordinates."""
    fs = (np.arange(frames, dtype=np.float32) + np.float32(0.5)) / np.float32(frames)
    hs = (np.arange(height, dtype=np.float32) + np.float32(0.5)) / np.float32(height)
    ws = (np.arange(width, dtype=np.float32) + np.float32(0.5)) / np.float32(width)
    return np.stack(np.meshgrid(fs, hs, ws, indexing="ij"), axis=-1).reshape(-1, 3)


class _ToyBuffers:
    """One thread's toy-velocity temporaries for one (C, F, H, W) latent and
    (L, d) key shape. ``feats`` is the (3 + C, F*H*W) feature matrix, its
    three cell-center rows filled here once; ``features`` fills the rest.
    The queries are dead before the token sum's scratch is needed, so the
    two share one buffer."""

    def __init__(self, key: tuple[tuple[int, ...], tuple[int, ...]]):
        (channels, frames, height, width), (tokens, dim) = key
        voxels = frames * height * width
        self.key = key
        self.feats = np.empty((3 + channels, voxels), dtype=np.float32)
        self.feats[:3] = _voxel_grid(frames, height, width).T
        work = np.empty((max(dim, 8), voxels), dtype=np.float32)
        self.queries = work[:dim]
        self.scratch = work[:8]
        self.logits = np.empty((tokens, voxels), dtype=np.float32)
        self.probs = np.empty((tokens, voxels), dtype=np.float32)
        self.shift = np.empty(voxels, dtype=np.float32)

    def features(self, state: np.ndarray, sample: int) -> np.ndarray:
        """Feature matrix (3 + C, F*H*W): cell-center coordinates then channel values."""
        np.copyto(self.feats[3:], state[sample].reshape(self.feats.shape[0] - 3, -1))
        return self.feats


_LOCAL = threading.local()


def _toy_buffers(key: tuple[tuple[int, ...], tuple[int, ...]]) -> _ToyBuffers:
    """The calling thread's buffer set for ``key``; a new shape replaces it."""
    bufs = getattr(_LOCAL, "toy", None)
    if bufs is None or bufs.key != key:
        bufs = _LOCAL.toy = _ToyBuffers(key)
    return bufs


# OpenBLAS runs a gemm on one thread while M*N*K <= SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD.
_SERIAL_GEMM = 65536 * 4


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.matmul(a, b, out=out)`` for 2-d operands, in near-equal column blocks
    of ``b`` and ``out`` with M*K*width <= ``_SERIAL_GEMM``. Products with M = 1
    or K = 1 run whole, as do those with M*K > ``_SERIAL_GEMM`` / 4, whose
    blocks could come out one column wide: numpy would send those to gemv."""
    m, k = a.shape
    n = b.shape[1]
    width = _SERIAL_GEMM // (m * k)
    if m == 1 or k == 1 or width < 4 or n <= width:
        return np.matmul(a, b, out=out)
    blocks = -(-n // width)
    for i in range(blocks):
        lo, hi = i * n // blocks, (i + 1) * n // blocks
        np.matmul(a, b[:, lo:hi], out=out[:, lo:hi])
    return out


def _pairwise_sum(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    if n > 128:
        half = n // 2 - (n // 2) % 8
        _pairwise_sum(x[:half], out, scratch)
        out += _pairwise_sum(x[half:], np.empty_like(out), scratch)
        return out
    if n < 8:
        np.copyto(out, x[0])
        rest = range(1, n)
    else:
        stop = n - n % 8
        np.copyto(scratch, x[:8])
        for i in range(8, stop, 8):
            scratch += x[i : i + 8]
        pairs = scratch.reshape(4, 2, -1)
        np.add(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])  # r0+r1, r2+r3, r4+r5, r6+r7
        np.add(scratch[0], scratch[2], out=scratch[0])
        np.add(scratch[4], scratch[6], out=scratch[4])
        np.add(scratch[0], scratch[4], out=out)
        rest = range(stop, n)
    for j in rest:
        out += x[j]
    return out


def _token_sum(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of an (n, N) array into ``out``, (N,), in numpy's own order.

    numpy sums a contiguous row of n values pairwise: sequentially below 8;
    up to 128 in eight accumulators stepping by 8, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder in sequence;
    above 128 as the sums of two halves split at n/2 rounded down to a
    multiple of 8. The reduction adds that to its identity, +0. The same
    additions, column by column, equal ``np.add.reduce(x.T, axis=1)`` bit for
    bit, but for the sign of a NaN met by another NaN, which depends on the
    operand order numpy's compiled loop uses. ``scratch`` is (8, N) and is
    overwritten.
    """
    _pairwise_sum(x, out, scratch)
    out += 0  # the identity: a -0 sum becomes +0
    return out


def _softmax_tokens(
    logits: np.ndarray, out: np.ndarray, shift: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Softmax over axis 0 of an (L, N) logit array, written into ``out``.

    ``shift`` (N,) and ``scratch`` (8, N) are overwritten; ``logits`` is not.
    """
    # 0 * min is +-0 while every logit is finite and NaN once one is -inf or NaN (+inf
    # already makes its column NaN), so no non-finite logit passes as an exact zero weight.
    np.maximum.reduce(logits, axis=0, out=shift)
    shift += 0 * logits.min()
    probs = np.subtract(logits, shift, out=out)
    np.exp(probs, out=probs)
    probs /= _token_sum(probs, shift, scratch)
    return probs


def toy_attention_velocity(
    state: np.ndarray,
    t: float,
    cond: ToyAttentionCondition,
    hook: Optional[AttentionHook] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Attention-mixed velocity, written into ``out`` (C-contiguous) when given.

    Queries are a fixed linear map of voxel coordinates and local channel
    values; logits are K Q^T / temperature, one (L, F*H*W) array per sample.
    The hook, when given, runs on the pre-softmax logits of each sample, as
    layer 0: the toy field has one attention layer.
    The temporaries are the calling thread's buffers, reused by its next
    call; the velocity is ``out`` or a new array, never one of them.
    """
    batch, channels, frames, height, width = state.shape
    if cond.channels != channels:
        raise ShapeMismatchError(
            f"condition produces {cond.channels} channels, latent has {channels}"
        )
    bufs = _toy_buffers((state.shape[1:], cond.text_keys.shape))
    result = np.empty(state.shape, dtype=np.float32) if out is None else out
    for b in range(batch):
        feats = bufs.features(state, b)
        _matmul(cond.query_weights.T, feats, bufs.queries)
        logits = _matmul(cond.text_keys, bufs.queries, bufs.logits)
        logits /= np.float32(cond.temperature)
        if hook is not None:
            logits = hook(logits, 0)
        probs = _softmax_tokens(logits, bufs.probs, bufs.shift, bufs.scratch)
        _matmul(cond.text_values.T, probs, result[b].reshape(channels, -1))
    return result


class BackendRegistry:
    """The edit's source/target condition pair, dispatching queries by role."""

    def __init__(self, source: Condition, target: Condition):
        for role, cond in (("source", source), ("target", target)):
            if not isinstance(cond, Condition):
                raise TypeError(f"{role} must be a condition, got {type(cond).__name__}")
        self.source = source
        self.target = target

    def velocity(self, query: VelocityQuery) -> np.ndarray:
        """Dispatch a query by role; the velocity is written into ``query.out``
        when given."""
        cond = self.source if query.condition == "source" else self.target
        if isinstance(cond, GaussianCondition):
            return gaussian_velocity(query.state, query.time, cond, query.out)
        return toy_attention_velocity(
            query.state, query.time, cond, hook=query.attention_hook, out=query.out
        )

    def velocity_with_maps(self, query: VelocityQuery) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(velocity(query), [])``: no field returns its attention maps. Kept
        as a name the bench's span tracer wraps, until the tracer moves to the
        velocity-field protocol."""
        return self.velocity(query), []
