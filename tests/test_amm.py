import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsteer import RngStream, VideoLatent
from flowsteer.amm import AmmConfig, amplify, contrast_map, gamma_f
from flowsteer.errors import ConfigError

from conftest import random_latent


class TestGammaF:
    CFG = AmmConfig(gamma=1.0, f0=21)

    def test_single_frame_is_zero(self):
        assert gamma_f(self.CFG, 1) == 0.0

    def test_reference_length_is_gamma(self):
        cfg = AmmConfig(gamma=0.73, f0=21)
        assert gamma_f(cfg, 21) == 0.73

    def test_square_of_reference(self):
        assert abs(gamma_f(self.CFG, 441) - 2.0) < 1e-12

    def test_monotone_in_frames(self):
        vals = [gamma_f(self.CFG, f) for f in range(1, 201)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_zero_frames(self):
        with pytest.raises(ValueError):
            gamma_f(self.CFG, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AmmConfig(gamma=-0.1)
        with pytest.raises(ValueError):
            AmmConfig(f0=1)
        with pytest.raises(ValueError):
            AmmConfig(epsilon=0.0)

    @pytest.mark.parametrize("field", ["gamma", "epsilon"])
    def test_config_rejects_nan_naming_the_key(self, field):
        with pytest.raises(ConfigError) as info:
            AmmConfig(**{field: float("nan")})
        assert info.value.key_path == f"amm.{field}"


class TestContrastMap:
    def test_constant_signal_is_all_zero(self):
        dv = VideoLatent(np.full((2, 3, 2, 2, 2), 1.7, dtype=np.float32))
        cm = contrast_map(dv.data)
        assert np.array_equal(cm, np.zeros_like(cm))

    def test_minimum_voxel_is_exactly_zero(self, make_latent):
        dv = make_latent((1, 1, 2, 3, 3))
        cm = contrast_map(dv.data)
        flat = dv.data.mean(axis=1).reshape(-1)
        assert cm.reshape(-1)[flat.argmin()] == 0.0

    def test_hand_case_linear_ramp(self):
        dv = VideoLatent(np.array([1.0, 3.0, 5.0], dtype=np.float32).reshape(1, 1, 1, 1, 3))
        cm = contrast_map(dv.data, eps=1e-7)
        assert np.allclose(cm.reshape(-1), [0.0, 0.5, 1.0], atol=1e-6)

    def test_range_bound(self, make_latent):
        for _ in range(20):
            cm = contrast_map(make_latent((2, 2, 2, 3, 3), scale=4.0).data)
            assert cm.min() >= 0.0 and cm.max() <= 1.0

    def test_per_sample_independence(self):
        rng = RngStream(21)
        dv = random_latent(rng, (3, 2, 2, 2, 2))
        cm = contrast_map(dv.data)
        perm = [2, 0, 1]
        permuted = contrast_map(dv.data[perm])
        assert np.array_equal(permuted, cm[perm])


class TestApplyAmm:
    CFG = AmmConfig(gamma=1.0, f0=21, epsilon=1e-7)

    def test_single_frame_bitwise_identity(self):
        dv = random_latent(RngStream(1), (2, 3, 1, 4, 4))
        out = amplify(dv.data, contrast_map(dv.data, self.CFG.epsilon), gamma_f(self.CFG, 1))
        assert np.array_equal(out, dv.data)
        assert out.tobytes() == dv.data.tobytes()

    def test_gamma_zero_bitwise_identity(self):
        dv = random_latent(RngStream(2), (1, 2, 5, 3, 3))
        cfg = AmmConfig(gamma=0.0)
        out = amplify(dv.data, contrast_map(dv.data, cfg.epsilon), gamma_f(cfg, 5))
        assert out.tobytes() == dv.data.tobytes()

    def test_max_voxel_scaled_by_about_two(self):
        rng = RngStream(3)
        dv = random_latent(rng, (1, 1, 3, 4, 4), scale=2.0)
        cm = contrast_map(dv.data)
        out = amplify(dv.data, cm, gain=1.0)
        flat_in = dv.data.reshape(-1)
        idx = dv.data.mean(axis=1).reshape(-1).argmax()
        ratio = out.reshape(-1)[idx] / flat_in[idx]
        assert abs(ratio - 2.0) < 1e-6 * 2.0 + 1e-6

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(0, 3), frames=st.integers(1, 40))
    def test_multiplier_bounds_and_sign(self, seed, gamma, frames):
        cfg = AmmConfig(gamma=gamma, f0=21)
        dv = random_latent(RngStream(seed), (2, 2, frames, 2, 2), scale=3.0)
        gain = gamma_f(cfg, frames)
        cm = contrast_map(dv.data, cfg.epsilon)
        out = amplify(dv.data, cm, gain)
        factor = 1.0 + np.float32(gain) * cm
        assert (factor >= 1.0).all() and (factor <= 1.0 + np.float32(gain)).all()
        assert np.array_equal(np.sign(out), np.sign(dv.data) * (np.sign(out) != 0))
        assert (np.abs(out) >= np.abs(dv.data)).all()

    def test_monotone_amplification_in_frames(self):
        # same signal, more frames -> no smaller amplification anywhere
        base = random_latent(RngStream(4), (1, 2, 4, 3, 3))
        cfg = AmmConfig(gamma=1.0, f0=21)
        cm = contrast_map(base.data, cfg.epsilon)
        small = amplify(base.data, cm, gamma_f(cfg, 4))
        large = amplify(base.data, cm, gamma_f(cfg, 16))
        assert (np.abs(large) >= np.abs(small) - 1e-7).all()

    def test_mean_preserving_sign(self):
        dv = random_latent(RngStream(5), (1, 3, 6, 4, 4))
        out = amplify(dv.data, contrast_map(dv.data, self.CFG.epsilon), gamma_f(self.CFG, 6))
        neg = dv.data < 0
        assert (out[neg] <= dv.data[neg]).all()
        assert (out[~neg] >= dv.data[~neg]).all()
