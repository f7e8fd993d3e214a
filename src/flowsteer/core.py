"""Dense latent tensors, masks, time grids, deterministic RNG, and file I/O.

Conventions fixed here and relied on by every other module:

* Video latents are ``float32`` arrays of shape ``(B, C, F, H, W)`` stored in
  C order (W fastest, then H, F, C, B). All entries must be finite.
  ``VideoLatent`` is the checked boundary type: finiteness is checked when a
  latent is loaded or synthesized, and the editing loop checks its state once
  at the end of each step. Inside a step, layers pass plain arrays.

* Times lie in [0, 1]. The grid is ``t_i = i / steps``, walked from 1 down
  to 0, and the functions that compute with a time (``interpolate_source``
  here, ``gaussian_velocity`` in ``backends``) reject any other t with
  ``ValueError``; nothing is snapped into range.

* Tensor files ("FATN") carry an ASCII header line
  ``FATN <ndim> <d1> ... <dn>\\n`` followed by a little-endian float32
  payload of ``prod(dims)`` values in C order. Round-trips are bit-exact.

* Masks come in as 8-bit grayscale PGM (P5), one file per frame, or as a
  single FATN tensor of dims ``(F, H, W)``. Values are binarized (above half
  the PGM's maxval, so ``> 127`` at 255; ``> 0.5`` for float inputs) and
  resampled to the latent grid with an any-coverage rule: a latent cell is
  set if any source cell whose extent intersects it is set. The rule dilates
  rather than erodes, so thin scribbles survive downsampling, and it is the
  identity at matched resolution. An ``EditMask`` holds the result as a
  read-only bool array, so its consumers use it as a selector directly.

* Random draws use a counter-based generator so that a ``(seed, counter)``
  pair fully determines every value, independent of draw batching,
  chunking, thread count or platform. Draw ``k`` of stream ``seed`` is

      ``mix64((seed + (k + 1) * GAMMA) mod 2**64)``

  with ``GAMMA = 0x9E3779B97F4A7C15`` and ``mix64`` the finalizer
  ``x ^= x>>30; x *= 0xBF58476D1CE4E5B9; x ^= x>>27;
  x *= 0x94D049BB133111EB; x ^= x>>31`` (all mod 2**64).
  Uniforms map the top 53 bits to [0, 1); standard normals use the
  Box-Muller transform on consecutive uniform pairs, where the first
  uniform of a pair is shifted into (0, 1] so the logarithm is finite.
  Generating ``n`` normals consumes exactly ``2 * ceil(n / 2)`` counter
  positions. Substream ``i`` of a stream reseeds with
  ``mix64(mix64(seed ^ SPLIT_SALT) + (i + 1) * GAMMA)``,
  ``SPLIT_SALT = 0xD6E8FEB86659FD93``.
  Because draw ``k`` depends only on ``(seed, k)``, a normals draw is
  computed in fixed chunks of counter positions, filled by the thread that
  joins it and by helpers on ``POOL``, one persistent pool of one thread
  per further usable CPU. The draw alone decides its helpers: one that
  fills at least one whole fill block gets one per chunk, up to one per
  further usable CPU; a smaller one gets none and runs on the joining
  thread. A draw may be started ahead (``RngStream.start_normals``): its
  helpers begin at once, and the ``normals`` call that joins it fills
  whatever chunks are left, so the editing loop draws each next step's
  noise while a step computes (see ``engine``). A join cancels the helpers
  that have not started, so it never waits for a queued pool task. A
  thread fills a chunk in blocks of at most ``_FILL_PAIRS`` pairs, in a
  scratch buffer that no other thread uses meanwhile and with a shared
  read-only ramp of counter offsets, both kept across draws. Each
  Box-Muller value is computed in float64 and written straight into an
  output of the caller's dtype, rounding once, as a cast would. The values
  do not depend on the chunk or block size, the number of threads, when a
  draw starts or the thread a chunk runs on. Uniform draws of a few values
  and substream seeds are computed on Python ints, with the same bits. A
  stream's ``counter`` is unguarded, so one stream object must not be used
  by two callers at once.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ShapeMismatchError, TensorFormatError

_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL_2 = np.uint64(0x94D049BB133111EB)
_SPLIT_SALT = 0xD6E8FEB86659FD93
_MASK64 = 0xFFFFFFFFFFFFFFFF
_U53_SCALE = float(2.0**-53)
_SHIFT_11, _SHIFT_27, _SHIFT_30, _SHIFT_31 = (np.uint64(k) for k in (11, 27, 30, 31))

# Counter pairs per chunk of a normals draw, the unit a thread takes.
_CHUNK_PAIRS = 1 << 16
# Pairs per block that a chunk is filled in; a fill's scratch is 512 KiB.
_FILL_PAIRS = 1 << 14
# Uniform draws of at most this many values run on Python ints, not numpy.
_SMALL_DRAW = 16

# Dimensions in tensor file headers must keep the payload addressable.
MAX_ELEMENTS = 2**31


class LatentDims(NamedTuple):
    batch: int
    channels: int
    frames: int
    height: int
    width: int


@dataclass(frozen=True)
class VideoLatent:
    """Dense real tensor of shape (B, C, F, H, W); finite, float32, read-only."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 5:
            raise ShapeMismatchError(f"latent must be 5-dimensional, got shape {arr.shape}")
        if any(d < 1 for d in arr.shape):
            raise ShapeMismatchError(f"all latent dims must be >= 1, got {arr.shape}")
        if arr.dtype != np.float32 or not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr, dtype=np.float32)
        if not np.isfinite(arr).all():
            raise ValueError("latent entries must be finite")
        arr = arr.view()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> LatentDims:
        return LatentDims(*self.data.shape)


@dataclass(frozen=True)
class EditMask:
    """Binary tensor of shape (F, H, W) marking the intended edit region.

    ``data`` is a read-only C-contiguous bool array. Other dtypes are taken
    when every entry is 0 or 1."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ShapeMismatchError(f"mask must have dims (F, H, W), got shape {arr.shape}")
        if any(d < 1 for d in arr.shape):
            raise ShapeMismatchError(f"all mask dims must be >= 1, got {arr.shape}")
        if arr.dtype != bool:
            if ((arr != 0) & (arr != 1)).any():
                raise ValueError("mask entries must be 0 or 1")
            arr = arr == 1
        arr = np.ascontiguousarray(arr).view()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def flat(self) -> np.ndarray:
        """Voxel-order (F slow, W fast) boolean view, length F*H*W."""
        return self.data.reshape(-1)

    def is_empty(self) -> bool:
        return not self.data.any()


@dataclass(frozen=True)
class TimeGrid:
    """The uniform grid t_i = i / steps, from t = 1 down to t = 0.

    ``steps`` counts intervals; the first ``skip`` of them contribute no
    state update.
    """

    steps: int
    skip: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0 <= self.skip < self.steps:
            raise ValueError(f"skip must satisfy 0 <= skip < steps, got {self.skip}")

    @property
    def active_steps(self) -> int:
        return self.steps - self.skip

    def intervals(self) -> Iterable[tuple[int, float, float]]:
        """Yield (step_index, t_cur, t_next) for active steps only.

        step_index counts down from ``steps - skip`` to 1, matching the
        convention that step i moves the state from t_i to t_{i-1}.
        """
        for i in range(self.active_steps, 0, -1):
            yield i, i / self.steps, (i - 1) / self.steps


def _mix64(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied in place to uint64 ``x``; ``tmp`` is scratch of its shape."""
    np.right_shift(x, _SHIFT_30, out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    np.multiply(x, _MIX_MUL_1, out=x)
    np.right_shift(x, _SHIFT_27, out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    np.multiply(x, _MIX_MUL_2, out=x)
    np.right_shift(x, _SHIFT_31, out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    return x


def _mix64_ints(states: Iterable[int]) -> list[int]:
    """``_mix64`` of each of ``states``, Python ints in [0, 2**64)."""
    bits = []
    for x in states:
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK64
        bits.append(x ^ (x >> 31))
    return bits


def _raw_into(seed: int, first: int, ramp: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """Draws ``first .. first + len(out) - 1`` of stream ``seed``, written into ``out``.

    ``ramp`` is ``arange(len(out)) * GAMMA`` and may be ``out`` itself.
    """
    np.add(ramp, np.uint64((seed + (first + 1) * _GAMMA) & _MASK64), out=out)
    _mix64(out, tmp)


def _ramp(n: int) -> np.ndarray:
    """``arange(n) * GAMMA`` as uint64."""
    ramp = np.arange(n, dtype=np.uint64)
    return np.multiply(ramp, np.uint64(_GAMMA), out=ramp)


@lru_cache(maxsize=16)
def _gamma_ramp(n: int) -> np.ndarray:
    """Read-only ``_ramp(n)``, shared by the draws that fill blocks of n / 2 pairs."""
    ramp = _ramp(n)
    ramp.flags.writeable = False
    return ramp


def _fill_chunk(
    out: np.ndarray,
    seed: int,
    counter: int,
    lo: int,
    hi: int,
    ramp: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Box-Muller pairs ``lo .. hi-1`` of a normals draw starting at ``counter``, written to
    ``out[2*lo : 2*hi]``, or up to its end, in blocks of ``len(ramp) // 2`` pairs. ``ramp``
    is ``_gamma_ramp(len(ramp))`` and ``scratch`` a (2, >= len(ramp)) uint64 array that no
    other thread uses meanwhile.

    Every transcendental runs on a contiguous float64 array, as in a one-shot draw.
    """
    step = len(ramp) // 2
    for start in range(lo, hi, step):
        _fill_block(out, seed, counter, start, min(start + step, hi), ramp, scratch)


def _fill_block(
    out: np.ndarray,
    seed: int,
    counter: int,
    lo: int,
    hi: int,
    ramp: np.ndarray,
    scratch: np.ndarray,
) -> None:
    m = hi - lo
    bits, tmp = scratch[0, : 2 * m], scratch[1, : 2 * m]
    _raw_into(seed, counter + 2 * lo, ramp[: 2 * m], bits, tmp)
    np.right_shift(bits, _SHIFT_11, out=bits)
    radius, angle = tmp[:m].view(np.float64), tmp[m:].view(np.float64)
    np.add(bits[0::2], 1.0, out=radius)
    np.multiply(radius, _U53_SCALE, out=radius)
    # u2 * 2pi in one rounding: scaling by 2**-53 is exact, before or after the product
    np.multiply(bits[1::2], _U53_SCALE * (2.0 * math.pi), out=angle)
    np.log(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    trig = bits[:m].view(np.float64)
    np.cos(angle, out=trig)
    np.multiply(radius, trig, out=out[2 * lo : 2 * hi : 2])
    np.sin(angle, out=angle)
    odd = out[2 * lo + 1 : 2 * hi : 2]  # one short when ``out`` has odd length
    np.multiply(radius[: len(odd)], angle[: len(odd)], out=odd)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Fill scratch that no thread is using. A thread takes one for as long as it
# fills chunks, so there are never more than the most threads that ever filled
# at once, and a draw-ahead whose helper and joiner take turns keeps one.
_spare_scratch: list[np.ndarray] = []
_spare_lock = threading.Lock()


def _take_scratch(pairs: int) -> np.ndarray:
    """A (2, 2 * pairs) uint64 fill scratch for the caller alone, until it hands
    it back to ``_spare_scratch``; a spare of another block size is dropped."""
    with _spare_lock:
        buf = _spare_scratch.pop() if _spare_scratch else None
    if buf is None or buf.shape[1] != 2 * pairs:
        buf = np.empty((2, 2 * pairs), dtype=np.uint64)
    return buf


# Helpers of draws, one thread per further usable CPU: the thread that joins a
# draw fills chunks too.
POOL = ThreadPoolExecutor(max(1, _usable_cpus() - 1), "flowsteer")


class _Draw:
    """One normals draw, whose chunks go to whichever thread asks next: the
    ``POOL`` helpers submitted when it starts, and the thread that joins it.

    A draw that fills at least one whole block of ``min(_CHUNK_PAIRS,
    _FILL_PAIRS)`` pairs gets one helper per chunk, up to one per further
    usable CPU; a smaller one gets none and asks nothing of the pool or the
    CPU count. A thread fills its chunks in such blocks, in a scratch it
    takes from the spares, with the shared read-only ramp; both outlive the
    draw."""

    def __init__(self, seed: int, counter: int, n: int, dtype, out: np.ndarray | None):
        self.seed, self.counter, self.n, self.dtype = seed, counter, n, np.dtype(dtype)
        if out is None:
            out = np.empty(n, dtype=self.dtype)
        elif out.shape != (n,) or out.dtype != self.dtype or not out.flags.c_contiguous:
            raise ValueError(f"out must be a contiguous ({n},) {self.dtype} array")
        self.out = out
        self.pairs = (n + 1) // 2
        self.end = counter + 2 * self.pairs
        starts = range(0, self.pairs, _CHUNK_PAIRS)
        self._block = min(_CHUNK_PAIRS, _FILL_PAIRS)
        self._ramp = _gamma_ramp(2 * min(self.pairs, self._block))
        helpers = min(len(starts), _usable_cpus() - 1) if self.pairs >= self._block else 0
        self._todo = iter(starts)
        self._lock = threading.Lock()
        self._helpers = [POOL.submit(self._fill) for _ in range(helpers)]

    def _fill(self) -> None:
        scratch = None  # taken with the first chunk, so a thread that finds none takes none
        try:
            while True:
                with self._lock:
                    lo = next(self._todo, None)
                if lo is None:
                    return
                if scratch is None:
                    scratch = _take_scratch(self._block)
                hi = min(lo + _CHUNK_PAIRS, self.pairs)
                try:
                    _fill_chunk(self.out, self.seed, self.counter, lo, hi, self._ramp, scratch)
                except BaseException:
                    self._stop()
                    raise
        finally:
            if scratch is not None:
                with _spare_lock:
                    _spare_scratch.append(scratch)

    def _stop(self) -> None:
        """Hand out no further chunk."""
        with self._lock:
            self._todo = iter(())

    def _settle(self) -> list[BaseException | None]:
        """Drop the helpers that never started and wait for the others, so no
        thread writes into ``out`` once this returns; their errors, in order."""
        return [f.exception() for f in self._helpers if not f.cancel()]

    def join(self) -> np.ndarray:
        """Fill every chunk no helper has taken, then return ``out`` or raise
        the first helper error."""
        try:
            self._fill()
        finally:
            errors = self._settle()
        for error in filter(None, errors):
            raise error
        return self.out

    def cancel(self) -> None:
        """Stop the draw; no helper writes once this returns."""
        self._stop()
        self._settle()


@dataclass
class RngStream:
    """Counter-based deterministic random stream (see module docstring).

    The only mutable state is ``counter`` and the draws started ahead of it;
    all draws are pure functions of (seed, counter position), so distinct
    streams are safe to use from distinct threads. One stream object must
    not be used by two callers at once: each draw reads ``counter`` and then
    advances it.

    ``normals`` computes a draw in fixed chunks of ``_CHUNK_PAIRS`` counter
    pairs, which it hands out to the thread that joins it and, for a draw of
    at least one fill block, to up to one ``POOL`` helper per further usable
    CPU. ``start_normals`` submits the helpers of a draw early, and the
    matching ``normals`` call joins it. The values do not depend on the
    chunk size, on when a draw starts, or on which thread computes which
    chunk.
    """

    seed: int
    counter: int = 0
    _started: list[_Draw] = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.seed = int(self.seed) & _MASK64

    def _raw(self, n: int) -> np.ndarray:
        bits = _ramp(n)
        _raw_into(self.seed, self.counter, bits, bits, np.empty_like(bits))
        self.counter += n
        return bits

    def _raw_ints(self, n: int) -> list[int]:
        """``_raw(n)`` as Python ints, cheaper for a few values."""
        start = self.seed + (self.counter + 1) * _GAMMA
        self.counter += n
        return _mix64_ints([(start + i * _GAMMA) & _MASK64 for i in range(n)])

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 values in [0, 1). Up to ``_SMALL_DRAW`` of them are computed on
        Python ints, with the same bits: ``>> 11`` and the scaling are exact."""
        if n <= _SMALL_DRAW:
            return np.array([(v >> 11) * _U53_SCALE for v in self._raw_ints(n)], dtype=np.float64)
        return np.asarray(self._raw(n) >> _SHIFT_11, dtype=np.float64) * _U53_SCALE

    def start_normals(self, n: int, dtype=np.float64, out: np.ndarray | None = None) -> None:
        """Start the draw that a later ``normals(n, dtype)`` call returns.

        Its ``POOL`` helpers begin on its chunks now, and that call fills the
        chunks they have not taken. Draws started one after another are the
        stream's next draws, in order. ``out``, a contiguous 1-d array of
        ``n`` elements of ``dtype``, receives the draw in place of a new array.
        """
        counter = self._started[-1].end if self._started else self.counter
        self._started.append(_Draw(self.seed, counter, n, dtype, out))

    def normals(self, n: int, dtype=np.float64) -> np.ndarray:
        """n standard normals via Box-Muller, as ``dtype``; consumes 2*ceil(n/2) draws.

        Each value is computed in float64 and rounded once into ``dtype``, so
        a float32 draw equals ``normals(n).astype(np.float32)`` bit for bit.
        Joins the oldest started draw if it is this one; other started draws
        are cancelled first. The counter advances only once every chunk has
        been written; an error in any chunk propagates once no helper can
        write, cancels the draws started after it, and leaves the counter
        unchanged.
        """
        head = self._started[0] if self._started else None
        if head and (head.counter, head.n, head.dtype) == (self.counter, n, np.dtype(dtype)):
            draw = self._started.pop(0)
        else:
            self.cancel_started()
            draw = _Draw(self.seed, self.counter, n, dtype, None)
        try:
            out = draw.join()
        except BaseException:
            self.cancel_started()
            raise
        self.counter = draw.end
        return out

    def cancel_started(self) -> None:
        """Cancel every started draw not yet joined; none of their helpers
        writes once this returns."""
        while self._started:
            self._started.pop().cancel()

    def substream(self, index: int) -> "RngStream":
        """Independent child stream; deterministic in (seed, index)."""
        if index < 0:
            raise ValueError("substream index must be >= 0")
        (base,) = _mix64_ints([self.seed ^ _SPLIT_SALT])
        # mix64(base + (index + 1) * GAMMA) is draw ``index`` of stream ``base``.
        return RngStream(RngStream(base, index)._raw_ints(1)[0])


def sample_gaussian(rng: RngStream, dims: Sequence[int]) -> np.ndarray:
    """Draw an i.i.d. standard-normal float32 array of the given (B, C, F, H, W) dims.

    Box-Muller output is finite by construction, so the draw is not checked.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 5 or any(d < 1 for d in dims):
        raise ShapeMismatchError(f"dims must be 5 positive integers, got {dims}")
    n = int(np.prod(dims))
    return rng.normals(n, np.float32).reshape(dims)


def check_time(t: float) -> float:
    """``t`` as a float; raises ValueError unless 0 <= t <= 1."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t!r} outside [0, 1]")
    return float(t)


def interpolate_source(
    x_src: np.ndarray, noise: np.ndarray, t: float, out: np.ndarray | None = None
) -> np.ndarray:
    """(1 - t) * x_src + t * noise, elementwise; exact at both endpoints.

    With ``out`` the result is written there and ``noise`` is used up: it
    may hold ``t * noise`` afterwards.
    """
    if x_src.shape != noise.shape:
        raise ShapeMismatchError(f"source shape {x_src.shape} != noise shape {noise.shape}")
    t = check_time(t)
    if t == 0.0 or t == 1.0:
        end = x_src if t == 0.0 else noise
        if out is None:
            return end.copy()
        np.copyto(out, end)
        return out
    if out is None:
        return (1.0 - t) * x_src + t * noise
    np.multiply(noise, t, out=noise)
    return np.add(np.multiply(x_src, 1.0 - t, out=out), noise, out=out)


# ---------------------------------------------------------------------------
# FATN tensor files
# ---------------------------------------------------------------------------

_FATN_MAGIC = b"FATN"
_MAX_HEADER_BYTES = 4096


def write_fatn(path: str | Path, array: np.ndarray) -> None:
    """Write any n-dim float array as a FATN file (float32 payload, C order)."""
    arr = np.ascontiguousarray(array, dtype=np.float32)
    header = "FATN %d %s\n" % (arr.ndim, " ".join(str(d) for d in arr.shape))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(arr.astype("<f4", copy=False).tobytes(order="C"))


def read_fatn(path: str | Path) -> np.ndarray:
    """Read a FATN file; raises TensorFormatError on any malformation."""
    with open(path, "rb") as fh:
        header = fh.readline(_MAX_HEADER_BYTES + 1)
        if not header.endswith(b"\n"):
            if len(header) > _MAX_HEADER_BYTES:
                raise TensorFormatError(f"{path}: header exceeds {_MAX_HEADER_BYTES} bytes")
            raise TensorFormatError(f"{path}: truncated header")
        fields = header.split()
        if not fields or fields[0] != _FATN_MAGIC:
            raise TensorFormatError(f"{path}: missing FATN magic")
        try:
            ndim = int(fields[1])
            dims = [int(tok) for tok in fields[2:]]
        except (IndexError, ValueError) as exc:
            raise TensorFormatError(f"{path}: malformed header fields") from exc
        if ndim < 1 or len(dims) != ndim:
            raise TensorFormatError(
                f"{path}: header declares {ndim} dims but provides {len(dims)}"
            )
        if any(d < 1 for d in dims):
            raise TensorFormatError(f"{path}: nonpositive dimension in header")
        count = 1
        for d in dims:
            count *= d
            if count > MAX_ELEMENTS:
                raise TensorFormatError(f"{path}: dim overflow, more than {MAX_ELEMENTS} elements")
        payload = fh.read(4 * count + 1)
        if len(payload) < 4 * count:
            raise TensorFormatError(
                f"{path}: truncated payload, expected {4 * count} bytes, got {len(payload)}"
            )
        if len(payload) > 4 * count:
            raise TensorFormatError(f"{path}: trailing bytes after payload")
    return np.frombuffer(payload, dtype="<f4", count=count).reshape(dims).copy()


def save_tensor(latent: VideoLatent, path: str | Path) -> None:
    write_fatn(path, latent.data)


def load_tensor(path: str | Path) -> VideoLatent:
    arr = read_fatn(path)
    if arr.ndim != 5:
        raise TensorFormatError(f"{path}: latent file must have 5 dims, got {arr.ndim}")
    return VideoLatent(arr)


# ---------------------------------------------------------------------------
# PGM (P5) images
# ---------------------------------------------------------------------------


def _read_pgm_token(fh) -> bytes:
    tok = bytearray()
    while True:
        ch = fh.read(1)
        if not ch:
            raise TensorFormatError("truncated PGM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if tok:
                return bytes(tok)
            continue
        tok += ch


def read_pgm(path: str | Path, mask: bool = False) -> np.ndarray:
    """Read an 8-bit binary PGM (P5) into a (H, W) uint8 array, or with ``mask``
    into a bool array of the pixels above half its maxval (``2 * v > maxval``).
    The file must hold exactly one image: bytes after its payload are rejected."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic != b"P5":
            raise TensorFormatError(f"{path}: unsupported image format (want P5)")
        try:
            width = int(_read_pgm_token(fh))
            height = int(_read_pgm_token(fh))
            maxval = int(_read_pgm_token(fh))
        except ValueError as exc:
            raise TensorFormatError(f"{path}: malformed PGM header") from exc
        if width < 1 or height < 1:
            raise TensorFormatError(f"{path}: zero-size image")
        if not 0 < maxval <= 255:
            raise TensorFormatError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
        payload = fh.read(width * height + 1)
        if len(payload) < width * height:
            raise TensorFormatError(f"{path}: truncated PGM payload")
        if len(payload) > width * height:
            raise TensorFormatError(f"{path}: trailing bytes after payload")
    image = np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()
    if image.max() > maxval:
        raise TensorFormatError(f"{path}: pixel value {image.max()} above maxval {maxval}")
    return image > maxval // 2 if mask else image


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a (H, W) uint8 array as binary PGM."""
    img = np.ascontiguousarray(image, dtype=np.uint8)
    if img.ndim != 2:
        raise ShapeMismatchError(f"PGM image must be 2-d, got shape {img.shape}")
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(img.tobytes(order="C"))


# ---------------------------------------------------------------------------
# Mask loading and any-coverage resampling
# ---------------------------------------------------------------------------


def _coverage_blocks(n_src: int, n_dst: int) -> list[tuple[int, int]]:
    """Half-open source index ranges intersecting each destination cell.

    Destination cell i spans [i * n_src / n_dst, (i + 1) * n_src / n_dst) in
    source coordinates; block boundaries use exact integer arithmetic.
    """
    blocks = []
    for i in range(n_dst):
        start = (i * n_src) // n_dst
        end = -((-(i + 1) * n_src) // n_dst)  # ceil division
        blocks.append((start, min(max(end, start + 1), n_src)))
    return blocks


def resample_mask_any(mask: np.ndarray, dst_shape: tuple[int, int, int]) -> np.ndarray:
    """Any-coverage (dilating) resample of a binary (F, H, W) grid, as a new
    C-contiguous bool array."""
    src = np.asarray(mask, dtype=bool)
    if src.ndim != 3:
        raise ShapeMismatchError(f"mask grid must be 3-d, got shape {src.shape}")
    out = src
    for axis, n_dst in enumerate(dst_shape):
        n_src = out.shape[axis]
        if n_src == n_dst:
            continue
        moved = np.moveaxis(out, axis, 0)
        reduced = np.empty((n_dst,) + moved.shape[1:], dtype=bool)
        for i, (a, b) in enumerate(_coverage_blocks(n_src, n_dst)):
            reduced[i] = moved[a:b].any(axis=0)
        out = np.moveaxis(reduced, 0, axis)
    return out.copy()


def load_mask(
    source: str | Path | Sequence[str | Path],
    latent_dims: tuple[int, int, int],
) -> EditMask:
    """Load a mask from per-frame PGM files or one FATN (F, H, W) tensor.

    PGM pixels binarize above half the file's maxval (> 127 at 255), float
    grids at > 0.5; the binary grid is then resampled to ``latent_dims``
    with the any-coverage rule.
    """
    frames, height, width = (int(d) for d in latent_dims)
    if frames < 1 or height < 1 or width < 1:
        raise ShapeMismatchError(f"latent dims must be positive, got {latent_dims}")
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix.lower() == ".pgm":
            grid = read_pgm(path, mask=True)[None, :, :]
        else:
            arr = read_fatn(path)
            if arr.ndim != 3:
                raise TensorFormatError(f"{path}: mask tensor must have dims (F, H, W)")
            grid = arr > 0.5
    else:
        paths = list(source)
        if not paths:
            raise TensorFormatError("empty mask frame list")
        planes = [read_pgm(p, mask=True) for p in paths]
        if any(p.shape != planes[0].shape for p in planes):
            raise ShapeMismatchError("mask frames must share one resolution")
        grid = np.stack(planes, axis=0)
    return EditMask(resample_mask_any(grid, (frames, height, width)))
