import numpy as np
import pytest

from flowsteer import EditMask, RngStream
from flowsteer.config import KNOWN_METRICS
from flowsteer.errors import FlowSteerError, MetricUndefinedError, ShapeMismatchError
from flowsteer.metrics import (
    METRICS,
    FlowField,
    ToyFrameEmbedder,
    frame_consistency,
    local_structure_similarity,
    masked_psnr,
    warp_error,
    warp_error_detail,
)


def box_mask(shape, sel):
    bits = np.zeros(shape, dtype=np.uint8)
    bits[sel] = 1
    return EditMask(bits)


class TestMaskedPsnr:
    SHAPE = (2, 4, 4)

    def test_identical_is_capped(self):
        video = RngStream(1).normals(32).reshape(self.SHAPE)
        mask = box_mask(self.SHAPE, (0, slice(0, 2), slice(0, 2)))
        assert masked_psnr(video, video.copy(), mask) == 99.0

    def test_uniform_error_twenty_db(self):
        a = np.zeros(self.SHAPE)
        b = np.full(self.SHAPE, 0.1)
        mask = box_mask(self.SHAPE, (0, 0, 0))
        assert abs(masked_psnr(a, b, mask, peak=1.0) - 20.0) < 1e-3

    def test_error_only_inside_mask_is_capped(self):
        a = RngStream(2).normals(32).reshape(self.SHAPE)
        b = a.copy()
        mask = box_mask(self.SHAPE, (slice(None), slice(1, 3), slice(1, 3)))
        b[:, 1:3, 1:3] += 5.0
        assert masked_psnr(a, b, mask) == 99.0

    def test_symmetric(self):
        rng = RngStream(3)
        a = rng.normals(32).reshape(self.SHAPE)
        b = rng.normals(32).reshape(self.SHAPE)
        mask = box_mask(self.SHAPE, (0, 0, slice(0, 2)))
        assert masked_psnr(a, b, mask) == masked_psnr(b, a, mask)

    def test_invariant_to_changes_inside_mask(self):
        rng = RngStream(12)
        a = rng.normals(32).reshape(self.SHAPE)
        b = rng.normals(32).reshape(self.SHAPE)
        mask = box_mask(self.SHAPE, (slice(None), slice(0, 2), slice(0, 2)))
        perturbed = b.copy()
        perturbed[:, 0:2, 0:2] += 7.0
        assert masked_psnr(a, b, mask) == masked_psnr(a, perturbed, mask)

    def test_full_mask_rejected(self):
        a = np.zeros(self.SHAPE)
        mask = EditMask(np.ones(self.SHAPE, dtype=np.uint8))
        with pytest.raises(MetricUndefinedError) as info:
            masked_psnr(a, a, mask)
        assert str(info.value) == "mask covers everything; no unedited region"

    def test_channel_leading_dims_broadcast(self):
        video = RngStream(4).normals(2 * 3 * 32).reshape(2, 3, 2, 4, 4)
        mask = box_mask(self.SHAPE, (0, 0, 0))
        assert masked_psnr(video, video.copy(), mask) == 99.0


class TestWarpError:
    def test_static_video_zero_flow(self):
        video = np.tile(RngStream(5).normals(36).reshape(1, 6, 6), (3, 1, 1))
        flow = FlowField(np.zeros((2, 2, 6, 6), dtype=np.float32))
        assert warp_error(video, flow) == 0.0

    def test_zero_flow_equals_adjacent_mse(self):
        video = RngStream(6).normals(3 * 36).reshape(3, 6, 6)
        flow = FlowField(np.zeros((2, 2, 6, 6), dtype=np.float32))
        expected = np.mean([np.mean((video[f] - video[f + 1]) ** 2) for f in range(2)])
        assert abs(warp_error(video, flow) - expected) < 1e-6

    def test_exact_translation_is_zero_in_interior(self):
        # content shifts one pixel down-right per frame; 1 px flow undoes it
        frame0 = RngStream(7).normals(36).reshape(6, 6)
        frames = [frame0]
        for _ in range(2):
            frames.append(np.roll(frames[-1], (1, 1), axis=(0, 1)))
        video = np.stack(frames)
        flow = FlowField(np.ones((2, 2, 6, 6), dtype=np.float32))
        result = warp_error_detail(video, flow)
        assert result.value < 1e-12
        assert result.excluded_cells == 2 * 11  # first row and column per pair

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            warp_error(np.zeros((1, 4, 4)), FlowField(np.zeros((0, 2, 4, 4), dtype=np.float32)))

    def test_flow_shape_checked(self):
        with pytest.raises(ShapeMismatchError):
            warp_error(np.zeros((3, 4, 4)), FlowField(np.zeros((1, 2, 4, 4), dtype=np.float32)))


class StubEmbedder:
    """Maps frames to fixed unit vectors keyed by their constant value."""

    def __init__(self, table):
        self.table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}

    def embed(self, frame):
        return self.table[round(float(np.asarray(frame).reshape(-1)[0]), 6)]


class TestFrameConsistency:
    def test_constant_video_is_one(self):
        video = np.full((4, 8, 8), 0.5)
        assert abs(frame_consistency(video, ToyFrameEmbedder()) - 1.0) < 1e-6

    def test_orthogonal_frames_zero(self):
        a = np.zeros((8, 8))
        a[:4] = 1.0
        b = np.zeros((8, 8))
        b[4:] = 1.0
        video = np.stack([a, b])
        assert abs(frame_consistency(video, ToyFrameEmbedder(8))) < 1e-12

    def test_hand_built_cosines_average(self):
        # consecutive cosines 0.8 and 0.6 average to 0.7
        table = {
            0.0: [1.0, 0.0, 0.0],
            1.0: [0.8, 0.6, 0.0],
            2.0: [0.0, 1.0, 0.0],
        }
        video = np.stack([np.full((2, 2), v) for v in (0.0, 1.0, 2.0)])
        assert abs(frame_consistency(video, StubEmbedder(table)) - 0.7) < 1e-12

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError):
            frame_consistency(np.zeros((1, 4, 4)), ToyFrameEmbedder())


class TestLocalStructure:
    def test_identity_is_one(self):
        video = RngStream(8).normals(3 * 25).reshape(3, 5, 5)
        mask = box_mask((3, 5, 5), (slice(None), slice(1, 4), slice(2, 5)))
        sim = local_structure_similarity(video, video.copy(), mask, ToyFrameEmbedder())
        assert abs(sim - 1.0) < 1e-6

    def test_single_cell_mask(self):
        video = RngStream(9).normals(2 * 16).reshape(2, 4, 4)
        mask = box_mask((2, 4, 4), (0, 2, 2))
        sim = local_structure_similarity(video, video.copy(), mask, ToyFrameEmbedder())
        assert abs(sim - 1.0) < 1e-6

    def test_hand_built_quarter_cosine(self):
        table = {
            1.0: [1.0, 0.0],
            2.0: [0.25, float(np.sqrt(1 - 0.0625))],
        }
        src = np.full((1, 3, 3), 1.0)
        edit = np.full((1, 3, 3), 2.0)
        mask = box_mask((1, 3, 3), (0, slice(0, 2), slice(0, 2)))
        sim = local_structure_similarity(src, edit, mask, StubEmbedder(table))
        assert abs(sim - 0.25) < 1e-12

    def test_empty_mask_rejected(self):
        video = np.zeros((1, 3, 3))
        with pytest.raises(ValueError, match="empty"):
            local_structure_similarity(
                video, video, EditMask(np.zeros((1, 3, 3), dtype=np.uint8)), ToyFrameEmbedder()
            )

    def test_frames_without_mask_are_skipped(self):
        video = RngStream(10).normals(2 * 16).reshape(2, 4, 4)
        mask = box_mask((2, 4, 4), (1, slice(0, 2), slice(0, 2)))
        sim = local_structure_similarity(video, video.copy(), mask, ToyFrameEmbedder())
        assert abs(sim - 1.0) < 1e-6


class TestUndefined:
    """Each metric raises its own reason, in the words a report records."""

    FLAT = np.zeros((1, 4, 4))

    @pytest.mark.parametrize(
        "evaluate,reason",
        [
            (
                lambda v: masked_psnr(v, v, EditMask(np.ones(v.shape, dtype=bool))),
                "mask covers everything; no unedited region",
            ),
            (lambda v: frame_consistency(v, ToyFrameEmbedder()), "needs at least two frames"),
            (
                lambda v: warp_error(v, FlowField(np.zeros((0, 2, 4, 4), dtype=np.float32))),
                "needs at least two frames",
            ),
            (
                lambda v: local_structure_similarity(
                    v, v, EditMask(np.zeros(v.shape, dtype=bool)), ToyFrameEmbedder()
                ),
                "mask is empty; no region to compare",
            ),
            (lambda v: warp_error(v, None), "no flow file configured"),
            (
                lambda v: warp_error(
                    np.zeros((2, 4, 4)), FlowField(np.full((1, 2, 4, 4), 100.0, np.float32))
                ),
                "flow pushed every cell out of frame; nothing to compare",
            ),
        ],
        ids=["full-mask", "one-frame", "one-frame-warp", "empty-mask", "no-flow", "all-out"],
    )
    def test_reason_is_the_message(self, evaluate, reason):
        with pytest.raises(MetricUndefinedError) as info:
            evaluate(self.FLAT)
        assert str(info.value) == reason
        assert isinstance(info.value, FlowSteerError) and isinstance(info.value, ValueError)

    def test_the_table_names_the_known_metrics(self):
        assert KNOWN_METRICS == tuple(METRICS)

    def test_table_entries_evaluate_the_named_metric(self):
        gen = np.random.default_rng(3)
        src, out = gen.standard_normal((2, 3, 4, 4))
        mask = box_mask((3, 4, 4), (slice(None), slice(1, 3), slice(1, 3)))
        flow = FlowField(np.zeros((2, 2, 4, 4), dtype=np.float32))
        emb = ToyFrameEmbedder(2)
        values = {name: metric(src, out, mask, flow, 2.0, emb) for name, metric in METRICS.items()}
        assert values == {
            "masked_psnr": masked_psnr(out, src, mask, 2.0),
            "warp_error": {
                "value": warp_error(out, flow),
                "compared_cells": 2 * 16,
                "excluded_cells": 0,
            },
            "frame_consistency": frame_consistency(out, emb),
            "local_structure": local_structure_similarity(src, out, mask, emb),
        }


class TestToyEmbedder:
    def test_unit_norm(self):
        emb = ToyFrameEmbedder(4)
        vec = emb.embed(RngStream(11).normals(49).reshape(7, 7))
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_zero_frame_has_fixed_direction(self):
        emb = ToyFrameEmbedder(4)
        vec = emb.embed(np.zeros((5, 5)))
        assert vec[0] == 1.0 and np.linalg.norm(vec) == 1.0

    def test_small_frames_supported(self):
        emb = ToyFrameEmbedder(8)
        vec = emb.embed(np.ones((2, 3)))
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def loop_embed(frame, grid):
    """The per-block loop the embedder replaced: one ``.mean()`` per block view."""
    img = np.asarray(frame, dtype=np.float64)
    h, w = img.shape
    pooled = np.empty((min(grid, h), min(grid, w)), dtype=np.float64)
    rows = [(i * h) // pooled.shape[0] for i in range(pooled.shape[0] + 1)]
    cols = [(j * w) // pooled.shape[1] for j in range(pooled.shape[1] + 1)]
    for i in range(pooled.shape[0]):
        for j in range(pooled.shape[1]):
            pooled[i, j] = img[rows[i] : rows[i + 1], cols[j] : cols[j + 1]].mean()
    vec = pooled.reshape(-1)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        out = np.zeros_like(vec)
        out[0] = 1.0
        return out
    return vec / norm


class TestEmbedderMatchesBlockLoop:
    """The gathered block sums give the loop's bits, whether or not the grid
    divides the frame, for contiguous frames, crops and float32 input."""

    SHAPES = [
        (8, 8, 8),
        (4, 4, 8),
        (16, 16, 8),
        (24, 32, 8),
        (64, 48, 8),
        (9, 9, 3),
        (16, 16, 4),
        (13, 17, 8),
        (5, 3, 8),
        (7, 100, 8),
        (100, 7, 3),
        (1, 1, 8),
        (33, 65, 8),
        (120, 90, 1),
        (600, 601, 2),  # blocks of more values than numpy's reduction buffer
        (2, 9001, 1),
        (3, 20001, 2),  # a block row longer than the buffer
    ]

    @staticmethod
    def _frames(h, w, seed, special):
        gen = np.random.default_rng(seed)
        big = gen.standard_normal((h + 3, w + 5)) * 10.0 ** gen.uniform(-3, 3, (h + 3, w + 5))
        if special:
            flat = big.reshape(-1)
            flat[gen.choice(flat.size, 6, replace=False)] = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
        return big[:h, :w].copy(), big[1 : 1 + h, 2 : 2 + w], big[:h, :w].astype(np.float32)

    @pytest.mark.parametrize("h,w,grid", SHAPES)
    @pytest.mark.parametrize("special", [False, True])
    def test_bits_equal_the_loop(self, h, w, grid, special):
        emb = ToyFrameEmbedder(grid)
        with np.errstate(invalid="ignore"):
            for frame in self._frames(h, w, h * w + grid, special):
                want, got = loop_embed(frame, grid), emb.embed(frame)
                if special and np.isnan(want).all():
                    assert np.isnan(got).all()
                else:
                    assert got.tobytes() == want.tobytes()

    def test_signed_zero_and_infinite_blocks(self):
        frame = np.zeros((4, 4))
        frame[0, 0] = -0.0
        frame[:2, 2:] = np.inf
        frame[2:, :2] = -np.inf
        with np.errstate(invalid="ignore"):  # the norm is inf
            got, want = ToyFrameEmbedder(2).embed(frame), loop_embed(frame, 2)
        assert got.tobytes() == want.tobytes()
        zeros = np.full((3, 5), -0.0)
        assert ToyFrameEmbedder(8).embed(zeros).tobytes() == loop_embed(zeros, 8).tobytes()
