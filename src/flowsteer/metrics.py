"""Reference-based quality metrics that need no pretrained models.

Videos here are plain arrays whose trailing dims are (F, H, W); leading
batch/channel dims broadcast against the mask. Metrics needing learned
features take an embedder whose ``embed`` maps an (H, W) frame to a
unit-norm vector; the bundled toy embedder is normalized block-mean pixels.

Flow-warp error uses backward bilinear sampling with border clamping:
cells whose source coordinate falls outside the frame by more than half a
pixel are excluded from the mean and counted. Aggregation is a full-frame
mean over all included cells of all frame pairs.

A metric that has no value on its inputs (no region to compare, too few
frames, no flow) raises ``MetricUndefinedError`` with the reason as the
report records it. ``METRICS`` maps each metric's config name to its
evaluation on a run's channel-mean videos.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import EditMask
from .errors import MetricUndefinedError, ShapeMismatchError

PSNR_CAP_DB = 99.0


@dataclass(frozen=True)
class FlowField:
    """Per-pair pixel displacements, shape (F-1, 2, H, W); channel 0 is dx."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 4 or arr.shape[1] != 2:
            raise ShapeMismatchError(f"flow field must have shape (F-1, 2, H, W), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("flow entries must be finite")
        arr = arr.view()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)


class ToyFrameEmbedder:
    """Block-mean downsample to a fixed grid, then L2 normalize.

    An all-zero frame has no direction; it maps to the first basis vector so
    the output is always exactly unit norm.

    The frame is cut into near-equal blocks, at most ``grid`` by ``grid``;
    their heights and widths take at most two values each. The blocks of
    each of the (at most four) shapes are gathered into one array and summed
    in one reduction, in the order numpy's own ``block.mean()`` of each
    block view adds them, so the means are bit for bit those of a per-block
    loop: a block that is contiguous in the frame is summed pairwise in one
    run; any other in runs of as many whole rows as fit numpy's reduction
    buffer (``np.getbufsize()`` values, or one row if it is longer), and the
    runs' sums are added in order. A frame in another layout (columns not
    adjacent, or rows reversed or overlapping) is copied to C order first.
    """

    def __init__(self, grid: int = 8):
        if grid < 1:
            raise ValueError("grid must be >= 1")
        self.grid = int(grid)

    def embed(self, frame: np.ndarray) -> np.ndarray:
        img = np.asarray(frame, dtype=np.float64)
        if img.ndim != 2:
            raise ShapeMismatchError(f"frame must be 2-d, got shape {img.shape}")
        h, w = img.shape
        if img.strides[1] != img.itemsize or img.strides[0] < w * img.itemsize:
            img = np.ascontiguousarray(img)
        pooled = np.empty((min(self.grid, h), min(self.grid, w)), dtype=np.float64)
        row_starts, row_sizes = _partition(h, pooled.shape[0])
        col_starts, col_sizes = _partition(w, pooled.shape[1])
        for bh in set(row_sizes.tolist()):
            ri = np.flatnonzero(row_sizes == bh)
            rows = row_starts[ri, None] + np.arange(bh)
            for bw in set(col_sizes.tolist()):
                ci = np.flatnonzero(col_sizes == bw)
                cols = col_starts[ci, None] + np.arange(bw)
                blocks = img[rows[:, None, :, None], cols[None, :, None, :]]
                whole = bh == 1 or (bw == w and img.strides[0] == w * img.itemsize)
                run = bh if whole else max(1, np.getbufsize() // bw)
                sums = np.add.reduce(blocks[:, :, :run].reshape(len(ri), len(ci), -1), axis=-1)
                for r in range(run, bh, run):
                    part = blocks[:, :, r : r + run].reshape(len(ri), len(ci), -1)
                    sums += np.add.reduce(part, axis=-1)
                pooled[np.ix_(ri, ci)] = sums / (bh * bw)
        vec = pooled.reshape(-1)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            out = np.zeros_like(vec)
            out[0] = 1.0
            return out
        return vec / norm


def _partition(n: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts and sizes of ``parts`` contiguous near-equal blocks covering
    range(n), for 1 <= parts <= n."""
    bounds = (np.arange(parts + 1) * n) // parts
    return bounds[:-1], np.diff(bounds)


def _check_video(video: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(video, dtype=np.float64)
    if arr.ndim < 3:
        raise ShapeMismatchError(f"{what} must have at least (F, H, W) dims, got {arr.shape}")
    return arr


def masked_psnr(a: np.ndarray, b: np.ndarray, mask: EditMask, peak: float = 1.0) -> float:
    """PSNR over the complement of the mask (the unedited region), in dB.

    Capped at 99 dB once the MSE drops below peak^2 * 10^-9.9, which covers
    the identical-input case.
    """
    va, vb = _check_video(a, "a"), _check_video(b, "b")
    if va.shape != vb.shape:
        raise ShapeMismatchError(f"video shapes differ: {va.shape} vs {vb.shape}")
    if va.shape[-3:] != mask.shape:
        raise ShapeMismatchError(f"mask {mask.shape} does not match video grid {va.shape[-3:]}")
    if not peak > 0.0:
        raise ValueError(f"peak must be positive, got {peak}")
    outside = ~mask.data
    if not outside.any():
        raise MetricUndefinedError("mask covers everything; no unedited region")
    diff = va[..., outside] - vb[..., outside]
    mse = float(np.mean(diff * diff))
    if mse < peak * peak * 10.0**-9.9:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(peak * peak / mse))


@dataclass(frozen=True)
class WarpErrorResult:
    value: float
    compared_cells: int
    excluded_cells: int


def warp_error_detail(video: np.ndarray, flow: Optional[FlowField]) -> WarpErrorResult:
    """Mean squared deviation between flow-warped frames and their successors.

    Frame f is sampled at (y - dy, x - dx) to predict frame f+1; sampling is
    bilinear with coordinates clamped to the frame, and cells whose source
    position lies outside by more than 0.5 px are excluded from the mean.
    """
    if flow is None:
        raise MetricUndefinedError("no flow file configured")
    vid = _check_video(video, "video")
    if vid.ndim != 3:
        raise ShapeMismatchError(f"warp error expects a (F, H, W) video, got {vid.shape}")
    frames, height, width = vid.shape
    if frames < 2:
        raise MetricUndefinedError("needs at least two frames")
    if flow.data.shape != (frames - 1, 2, height, width):
        raise ShapeMismatchError(
            f"flow shape {flow.data.shape} does not match video {(frames - 1, 2, height, width)}"
        )
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    total = 0.0
    compared = 0
    excluded = 0
    for f in range(frames - 1):
        dx = flow.data[f, 0].astype(np.float64)
        dy = flow.data[f, 1].astype(np.float64)
        sy = ys - dy
        sx = xs - dx
        valid = (
            (sy >= -0.5) & (sy <= height - 0.5) & (sx >= -0.5) & (sx <= width - 0.5)
        )
        cy = np.clip(sy, 0.0, height - 1.0)
        cx = np.clip(sx, 0.0, width - 1.0)
        y0 = np.floor(cy).astype(int)
        x0 = np.floor(cx).astype(int)
        y1 = np.minimum(y0 + 1, height - 1)
        x1 = np.minimum(x0 + 1, width - 1)
        wy = cy - y0
        wx = cx - x0
        src = vid[f]
        warped = (
            (1 - wy) * (1 - wx) * src[y0, x0]
            + (1 - wy) * wx * src[y0, x1]
            + wy * (1 - wx) * src[y1, x0]
            + wy * wx * src[y1, x1]
        )
        diff = (warped - vid[f + 1])[valid]
        total += float((diff * diff).sum())
        compared += int(valid.sum())
        excluded += int((~valid).sum())
    if compared == 0:
        raise MetricUndefinedError("flow pushed every cell out of frame; nothing to compare")
    return WarpErrorResult(total / compared, compared, excluded)


def warp_error(video: np.ndarray, flow: FlowField) -> float:
    return warp_error_detail(video, flow).value


def frame_consistency(video: np.ndarray, embedder: ToyFrameEmbedder) -> float:
    """Mean cosine similarity between embeddings of consecutive frames."""
    vid = _check_video(video, "video")
    if vid.ndim != 3:
        raise ShapeMismatchError(f"frame consistency expects (F, H, W), got {vid.shape}")
    if vid.shape[0] < 2:
        raise MetricUndefinedError("needs at least two frames")
    embeddings = [np.asarray(embedder.embed(frame), dtype=np.float64) for frame in vid]
    for e in embeddings:
        if abs(np.linalg.norm(e) - 1.0) > 1e-6:
            raise ValueError("embedder output must be unit norm")
    sims = [float(a @ b) for a, b in zip(embeddings, embeddings[1:])]
    return float(np.mean(sims))


def local_structure_similarity(
    src: np.ndarray,
    edit: np.ndarray,
    mask: EditMask,
    embedder: ToyFrameEmbedder,
) -> float:
    """Mean per-frame cosine between embeddings of the mask's bounding-box crops.

    Frames whose mask slice is empty are skipped; the mask must be nonempty
    somewhere.
    """
    vs, ve = _check_video(src, "src"), _check_video(edit, "edit")
    if vs.shape != ve.shape:
        raise ShapeMismatchError(f"video shapes differ: {vs.shape} vs {ve.shape}")
    if vs.ndim != 3:
        raise ShapeMismatchError(f"local similarity expects (F, H, W), got {vs.shape}")
    if vs.shape != (mask.shape[0],) + mask.shape[1:]:
        raise ShapeMismatchError(f"mask {mask.shape} does not match video {vs.shape}")
    if mask.is_empty():
        raise MetricUndefinedError("mask is empty; no region to compare")
    sims = []
    for f in range(vs.shape[0]):
        bits = mask.data[f]
        if not bits.any():
            continue
        rows = np.nonzero(bits.any(axis=1))[0]
        cols = np.nonzero(bits.any(axis=0))[0]
        r0, r1 = rows[0], rows[-1] + 1
        c0, c1 = cols[0], cols[-1] + 1
        ea = np.asarray(embedder.embed(vs[f, r0:r1, c0:c1]), dtype=np.float64)
        eb = np.asarray(embedder.embed(ve[f, r0:r1, c0:c1]), dtype=np.float64)
        sims.append(float(ea @ eb))
    return float(np.mean(sims))


# config name -> metric of (source, edited, mask, flow, peak, embedder), where source
# and edited are (F, H, W) videos and flow is None when no flow file is configured
METRICS = {
    "masked_psnr": lambda src, out, mask, flow, peak, emb: masked_psnr(out, src, mask, peak),
    "warp_error": lambda src, out, mask, flow, peak, emb: asdict(warp_error_detail(out, flow)),
    "frame_consistency": lambda src, out, mask, flow, peak, emb: frame_consistency(out, emb),
    "local_structure": lambda src, out, mask, flow, peak, emb: local_structure_similarity(
        src, out, mask, emb
    ),
}
