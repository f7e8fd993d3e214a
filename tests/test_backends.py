import numpy as np
import pytest

from flowsteer import RngStream, VideoLatent
from flowsteer.backends import (
    BackendRegistry,
    GaussianCondition,
    ToyAttentionCondition,
    VelocityQuery,
    _softmax_rows,
    _voxel_features,
    _voxel_grid,
    gaussian_velocity,
    make_toy_condition_pair,
    toy_attention_velocity,
)
from flowsteer.errors import ShapeMismatchError
from flowsteer.sar import TargetTokenSet

from conftest import ORACLE_TOKENS, ORACLE_VOXELS, random_latent, special_logits


def mc_conditional_velocity(mu, s, t, z, n=200_000, seed=0):
    """Brute-force estimate of E[noise - data | path state near z].

    Draws paired (data, noise) samples, forms the path state, and runs a
    kernel-weighted local-linear regression of (noise - data) on the state,
    evaluated at z. Local-linear is exact in expectation here because the
    true conditional mean is affine in z.
    """
    gen = np.random.default_rng(seed)
    data = mu + s * gen.standard_normal(n)
    noise = gen.standard_normal(n)
    state = (1.0 - t) * data + t * noise
    target = noise - data
    sigma_z = np.sqrt((1.0 - t) ** 2 * s**2 + t**2)
    h = 0.5 * sigma_z
    w = np.exp(-0.5 * ((state - z) / h) ** 2)
    x = state - z
    sw, swx = w.sum(), (w * x).sum()
    swxx = (w * x * x).sum()
    swy, swxy = (w * target).sum(), (w * x * target).sum()
    det = sw * swxx - swx * swx
    return (swxx * swy - swx * swxy) / det


class TestGaussianVelocity:
    def test_centered_symmetric_case_is_zero(self):
        cond = GaussianCondition(np.float32(0.0), 1.0)
        z = VideoLatent(np.zeros((1, 1, 1, 2, 2), dtype=np.float32))
        v = gaussian_velocity(z.data, 0.5, cond)
        assert np.array_equal(v, np.zeros_like(v))

    def test_equal_variance_case_is_zero_for_any_state(self):
        # mu=0, s=1, t=0.5: the two conditional terms cancel exactly
        cond = GaussianCondition(np.float32(0.0), 1.0)
        z = VideoLatent(np.full((1, 1, 1, 1, 1), 1.0, dtype=np.float32))
        v = gaussian_velocity(z.data, 0.5, cond)
        assert abs(v.item()) < 1e-7

    def test_t_one_limit(self):
        # at t=1 the state is pure noise: E[N|z]=z, E[X|z]=mu
        cond = GaussianCondition(np.float32(0.7), 2.0)
        z = VideoLatent(np.full((1, 1, 1, 1, 1), 1.5, dtype=np.float32))
        v = gaussian_velocity(z.data, 1.0, cond)
        assert np.allclose(v, 1.5 - 0.7, atol=1e-6)

    def test_matches_monte_carlo_oracle(self):
        cases = [(1.4, 0.8, 0.4, 2.0), (-2.0, 1.3, 0.6, -1.0), (3.0, 0.7, 0.3, 2.5)]
        for mu, s, t, z in cases:
            est = mc_conditional_velocity(mu, s, t, z)
            cond = GaussianCondition(np.float32(mu), s)
            lat = VideoLatent(np.full((1, 1, 1, 1, 1), z, dtype=np.float32))
            closed = gaussian_velocity(lat.data, t, cond).item()
            assert abs(closed - est) < 0.02 * max(abs(closed), 1.0)

    def test_affine_in_state(self):
        rng = RngStream(3)
        cond = GaussianCondition(np.array([0.3, -0.2], dtype=np.float32), 1.1)
        z1, z2 = random_latent(rng), random_latent(rng)
        for alpha in (0.25, 0.5, 0.9):
            mixed = np.float32(alpha) * z1.data + np.float32(1 - alpha) * z2.data
            lhs = gaussian_velocity(mixed, 0.37, cond)
            rhs = (
                np.float32(alpha) * gaussian_velocity(z1.data, 0.37, cond)
                + np.float32(1 - alpha) * gaussian_velocity(z2.data, 0.37, cond)
            )
            assert np.allclose(lhs, rhs, rtol=1e-6, atol=1e-6)

    def test_per_channel_mean_broadcast(self):
        cond = GaussianCondition(np.array([1.0, -1.0], dtype=np.float32), 1.0)
        z = VideoLatent(np.zeros((1, 2, 1, 1, 1), dtype=np.float32))
        v = gaussian_velocity(z.data, 0.999999, cond)
        assert v[0, 0, 0, 0, 0] < 0 < v[0, 1, 0, 0, 0]

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            GaussianCondition(np.float32(0.0), 0.0)

    def test_euler_generation_reaches_data_statistics(self):
        # integrate the generative ODE from pure noise on a small batch
        mu, s = 0.6, 0.9
        cond = GaussianCondition(np.float32(mu), s)
        rng = RngStream(17)
        steps = 400
        z = rng.normals(200 * 4).astype(np.float32).reshape(200, 1, 1, 2, 2)
        times = np.linspace(1.0, 0.0, steps + 1)
        for k in range(steps):
            v = gaussian_velocity(z, times[k], cond)
            z = z + np.float32(times[k + 1] - times[k]) * v
        assert abs(z.mean() - mu) < 0.1 * s
        assert abs(z.std() - s) < 0.1 * s


class TestToyAttention:
    def make(self, channels=2, tokens=4, seed=5):
        j_tar = TargetTokenSet.of(min(1, tokens - 1))
        src, tar = make_toy_condition_pair(seed, tokens, 3, channels, j_tar)
        return src, tar, j_tar

    def test_single_token_rows_are_one(self):
        src, _, _ = self.make(tokens=1)
        state = random_latent(RngStream(1), (1, 2, 2, 3, 3))
        _, maps = toy_attention_velocity(state.data, 0.8, src)
        assert np.array_equal(maps[0], np.ones_like(maps[0]))

    def test_high_temperature_is_uniform(self):
        src, _, _ = self.make()
        hot = ToyAttentionCondition(
            src.text_keys, src.text_values, src.query_weights, temperature=1e9
        )
        state = random_latent(RngStream(2), (1, 2, 2, 3, 3))
        _, maps = toy_attention_velocity(state.data, 0.8, hot)
        assert np.allclose(maps[0], 0.25, atol=1e-6)

    def test_deterministic(self):
        src, _, _ = self.make()
        state = random_latent(RngStream(3), (2, 2, 2, 3, 3))
        v1, m1 = toy_attention_velocity(state.data, 0.8, src)
        v2, m2 = toy_attention_velocity(state.data, 0.8, src)
        assert np.array_equal(v1, v2)
        assert all(np.array_equal(a, b) for a, b in zip(m1, m2))

    def test_identity_hook_bitwise_equal(self):
        src, _, _ = self.make()
        state = random_latent(RngStream(4), (1, 2, 2, 3, 3))
        plain, _ = toy_attention_velocity(state.data, 0.8, src)
        hooked, _ = toy_attention_velocity(state.data, 0.8, src, hook=lambda m, layer: m)
        assert np.array_equal(plain, hooked)

    def test_softmax_rows_sum_to_one(self):
        src, _, _ = self.make()
        state = random_latent(RngStream(5), (1, 2, 3, 4, 4))
        _, maps = toy_attention_velocity(state.data, 0.8, src)
        assert np.allclose(maps[0].sum(axis=1), 1.0, atol=1e-6)

    def test_pair_shares_keys_and_projection(self):
        src, tar, j_tar = self.make()
        assert np.array_equal(src.text_keys, tar.text_keys)
        assert np.array_equal(src.query_weights, tar.query_weights)
        diff_rows = np.nonzero((src.text_values != tar.text_values).any(axis=1))[0]
        assert set(diff_rows.tolist()) == j_tar.indices

    def test_channel_mismatch_rejected(self):
        src, _, _ = self.make(channels=2)
        state = random_latent(RngStream(6), (1, 3, 2, 3, 3))
        with pytest.raises(ShapeMismatchError):
            toy_attention_velocity(state.data, 0.8, src)


def reduce_softmax_rows(logits):
    """The ufunc.reduce form of _softmax_rows, kept as the oracle."""
    shift = logits.max(axis=1, keepdims=True) + 0 * logits.min()
    probs = logits - shift
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def meshgrid_voxel_features(state, sample):
    """The per-call meshgrid form of _voxel_features, kept as the oracle."""
    _, channels, frames, height, width = state.shape
    fs = (np.arange(frames, dtype=np.float32) + np.float32(0.5)) / np.float32(frames)
    hs = (np.arange(height, dtype=np.float32) + np.float32(0.5)) / np.float32(height)
    ws = (np.arange(width, dtype=np.float32) + np.float32(0.5)) / np.float32(width)
    grid = np.stack(np.meshgrid(fs, hs, ws, indexing="ij"), axis=-1).reshape(-1, 3)
    values = state[sample].reshape(channels, -1).T
    return np.concatenate([grid, values], axis=1)


class TestToyAttentionKernels:
    # Signed-zero rows are byte-equal too: the sign of a zero shift cannot
    # reach the weights, because exp(+0) and exp(-0) are both exactly 1.
    @pytest.mark.parametrize("voxels", ORACLE_VOXELS)
    @pytest.mark.parametrize("kind", ["finite", "nonfinite", "signed_zero"])
    def test_softmax_rows_matches_reduce_formula(self, kind, voxels):
        for tokens in ORACLE_TOKENS:
            logits = special_logits(voxels, tokens, kind)
            with np.errstate(all="ignore"):
                got = _softmax_rows(logits)
                want = reduce_softmax_rows(logits)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "dims", [(1, 1, 1, 1, 1), (1, 4, 5, 8, 8), (2, 3, 2, 3, 5), (1, 4, 16, 32, 32)]
    )
    def test_voxel_features_match_meshgrid_formula(self, dims):
        state = random_latent(RngStream(8), dims).data
        for _ in range(2):  # the second pass reads the cached grid
            for sample in range(dims[0]):
                got = _voxel_features(state, sample)
                want = meshgrid_voxel_features(state, sample)
                assert got.dtype == want.dtype and got.flags.writeable
                assert got.tobytes() == want.tobytes()

    def test_voxel_grid_is_cached_and_read_only(self):
        grid = _voxel_grid(3, 4, 5)
        assert _voxel_grid(3, 4, 5) is grid
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0
        with pytest.raises(ValueError):
            grid.flags.writeable = True


class TestDispatch:
    def test_gaussian_dispatch_bitwise(self):
        src = GaussianCondition(np.float32(0.2), 1.0)
        tar = GaussianCondition(np.float32(-0.7), 1.3)
        reg = BackendRegistry(src, tar)
        state = random_latent(RngStream(7))
        for role, cond in (("source", src), ("target", tar)):
            q = VelocityQuery(state.data, 0.5, role)
            assert np.array_equal(reg.velocity(q), gaussian_velocity(state.data, 0.5, cond))

    def test_attention_dispatch_bitwise(self):
        src, tar, _ = TestToyAttention().make()
        reg = BackendRegistry(src, tar)
        state = random_latent(RngStream(8), (1, 2, 2, 3, 3))
        for role, cond in (("source", src), ("target", tar)):
            direct, _ = toy_attention_velocity(state.data, 0.5, cond)
            assert np.array_equal(reg.velocity(VelocityQuery(state.data, 0.5, role)), direct)

    def test_unknown_condition(self):
        state = random_latent(RngStream(9))
        with pytest.raises(ValueError, match="'source' or 'target'"):
            VelocityQuery(state.data, 0.5, "nope")

    @pytest.mark.parametrize("role", ["source", "target"])
    def test_registry_rejects_non_condition(self, role):
        cond = GaussianCondition(np.float32(0.0), 1.0)
        pair = {"source": cond, "target": cond, role: "cond"}
        with pytest.raises(TypeError, match=f"{role} must be a condition, got str"):
            BackendRegistry(**pair)
