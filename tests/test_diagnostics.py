import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsteer import EditMask, RngStream, TimeGrid, VideoLatent
from flowsteer.amm import AmmConfig, apply_amm, gamma_f
from flowsteer.backends import BackendRegistry, GaussianCondition
from flowsteer.diagnostics import (
    SWEEP_CSV_HEADER,
    binarize_signal,
    frame_sweep,
    iou,
    magnitude_stats,
    sweep_rows_to_csv,
)
from flowsteer.engine import EditConfig
from flowsteer.errors import ShapeMismatchError
from flowsteer.sar import SarConfig, TargetTokenSet

from conftest import random_latent


class TestIou:
    def test_identical_nonempty(self):
        a = np.array([[1, 0], [1, 1]], dtype=np.uint8)
        assert iou(a, a.copy()) == 1.0

    def test_disjoint(self):
        a = np.array([1, 0, 0, 0], dtype=np.uint8)
        b = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert iou(a, b) == 0.0

    def test_partial_overlap(self):
        a = np.array([1, 1, 0, 0, 0, 0], dtype=np.uint8)
        b = np.array([1, 1, 1, 1, 0, 0], dtype=np.uint8)
        assert iou(a, b) == 0.5

    def test_empty_empty_is_one(self):
        z = np.zeros(5, dtype=np.uint8)
        assert iou(z, z.copy()) == 1.0

    def test_empty_vs_nonempty_is_zero(self):
        assert iou(np.zeros(4, dtype=np.uint8), np.array([1, 0, 0, 0], dtype=np.uint8)) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            iou(np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_symmetric_and_bounded(self, seed):
        rng = RngStream(seed)
        a = (rng.uniforms(24) < 0.4).reshape(2, 3, 4)
        b = (rng.uniforms(24) < 0.4).reshape(2, 3, 4)
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0


class TestBinarize:
    def test_constant_signal_all_zero(self):
        dv = VideoLatent(np.full((1, 2, 2, 3, 3), 4.0, dtype=np.float32))
        assert not binarize_signal(dv.data, 0.5).any()

    def test_threshold_zero_marks_positive_cells(self):
        dv = VideoLatent(
            np.array([0.0, 0.5, 1.0, 0.0], dtype=np.float32).reshape(1, 1, 1, 1, 4)
        )
        out = binarize_signal(dv.data, 0.0)
        assert out.reshape(-1).tolist() == [0, 1, 1, 0]

    def test_mask_indicator_recovers_mask(self):
        bits = np.zeros((2, 3, 3), dtype=np.uint8)
        bits[0, 1, 1] = 1
        bits[1, 0, 2] = 1
        dv = VideoLatent(
            np.broadcast_to(bits.astype(np.float32), (1, 2, 2, 3, 3)).copy()
        )
        out = binarize_signal(dv.data, 0.5)
        assert np.array_equal(out[0], bits)
        assert iou(out[0], bits) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), lo=st.floats(0.0, 0.5), hi=st.floats(0.5, 1.0))
    def test_threshold_monotone(self, seed, lo, hi):
        dv = random_latent(RngStream(seed), (1, 2, 2, 3, 3))
        low = binarize_signal(dv.data, lo)
        high = binarize_signal(dv.data, hi)
        assert (high <= low).all()


class TestMagnitudeStats:
    def test_zero_signal(self):
        dv = VideoLatent(np.zeros((1, 2, 3, 2, 2), dtype=np.float32))
        mean_abs, per_frame = magnitude_stats(dv.data)
        assert mean_abs == 0.0 and per_frame == (0.0, 0.0, 0.0)

    def test_constant_signal(self):
        dv = VideoLatent(np.full((1, 2, 3, 2, 2), -2.5, dtype=np.float32))
        mean_abs, per_frame = magnitude_stats(dv.data)
        assert mean_abs == 2.5 and all(v == 2.5 for v in per_frame)

    def test_hand_case(self):
        dv = VideoLatent(np.array([-1.0, 2.0], dtype=np.float32).reshape(1, 1, 1, 1, 2))
        mean_abs, _ = magnitude_stats(dv.data)
        assert mean_abs == 1.5

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), alpha=st.floats(-8.0, 8.0))
    def test_absolutely_homogeneous(self, seed, alpha):
        dv = random_latent(RngStream(seed), (1, 2, 2, 3, 3))
        scaled = np.float32(alpha) * dv.data
        base, _ = magnitude_stats(dv.data)
        after, _ = magnitude_stats(scaled)
        assert after == pytest.approx(abs(alpha) * base, rel=1e-6, abs=1e-9)

    def test_amplification_never_decreases_mean_abs(self):
        cfg = AmmConfig(gamma=1.5, f0=21)
        for seed in range(5):
            dv = random_latent(RngStream(seed), (1, 2, 6, 3, 3))
            before, _ = magnitude_stats(dv.data)
            after, _ = magnitude_stats(apply_amm(dv.data, cfg, 6))
            assert after >= before


def sweep_family(base_seed=31, spatial=(1, 2, 4, 4)):
    def family(frames):
        rng = RngStream(base_seed)
        lat = random_latent(rng, (spatial[0], spatial[1], frames, spatial[2], spatial[3]))
        mask = EditMask(np.ones((frames, spatial[2], spatial[3]), dtype=np.uint8))
        return lat, mask

    return family


def sweep_cfg(**kw):
    defaults = dict(
        grid=TimeGrid.uniform(6, skip=1),
        sar=SarConfig(beta1=0.0, beta2=0.0),
        amm=AmmConfig(),
        mask=EditMask(np.ones((1, 4, 4), dtype=np.uint8)),
        j_tar=TargetTokenSet.of(0),
        seed=5,
    )
    defaults.update(kw)
    return EditConfig(**defaults)


class TestFrameSweep:
    def registry(self, shift=1.0):
        return BackendRegistry(
            GaussianCondition(np.float32(0.0), 1.0), GaussianCondition(np.float32(shift), 1.0)
        )

    def test_single_frame_has_zero_gain_column(self):
        rows = frame_sweep(sweep_family(), sweep_cfg(), self.registry(), [1])
        assert len(rows) == 5
        assert all(r[4] == 0.0 for r in rows)
        assert all(r[0] == 1 for r in rows)

    def test_null_run_reports_unity_iou_on_empty_mask(self):
        def empty_family(frames):
            lat, _ = sweep_family()(frames)
            return lat, EditMask(np.zeros((frames, 4, 4), dtype=np.uint8))

        rows = frame_sweep(empty_family, sweep_cfg(), self.registry(shift=0.0), [2])
        assert all(r[2] == 0.0 for r in rows)  # zero signal magnitude
        assert all(r[3] == 1.0 for r in rows)  # empty-vs-empty IoU

    def test_deterministic_rows(self):
        rows1 = frame_sweep(sweep_family(), sweep_cfg(), self.registry(), [2, 3])
        rows2 = frame_sweep(sweep_family(), sweep_cfg(), self.registry(), [2, 3])
        assert rows1 == rows2

    def test_gain_column_matches_config(self):
        cfg = sweep_cfg()
        rows = frame_sweep(sweep_family(), cfg, self.registry(), [7])
        assert all(r[4] == gamma_f(cfg.amm, 7) for r in rows)

    def test_csv_rendering(self):
        rows = frame_sweep(sweep_family(), sweep_cfg(), self.registry(), [1])
        text = sweep_rows_to_csv(rows)
        lines = text.split("\n")
        assert lines[0] == ",".join(SWEEP_CSV_HEADER)
        assert len(lines) == len(rows) + 2 and lines[-1] == ""
        assert sweep_rows_to_csv(rows) == text
