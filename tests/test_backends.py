import threading
import weakref

import numpy as np
import pytest

from flowsteer import RngStream, VideoLatent
from flowsteer.backends import (
    BackendRegistry,
    GaussianCondition,
    ToyAttentionCondition,
    VelocityQuery,
    _LOCAL,
    _SERIAL_GEMM,
    _matmul,
    _softmax_tokens,
    _token_sum,
    _toy_buffers,
    gaussian_velocity,
    make_toy_condition_pair,
    toy_attention_velocity,
)
from flowsteer.core import EditMask
from flowsteer.errors import ShapeMismatchError
from flowsteer.sar import SarConfig, TargetTokenSet, apply_sar

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
        maps = attention_maps(state.data, 0.8, src)
        assert maps[0].shape == (1, 18)
        assert np.array_equal(maps[0], np.ones_like(maps[0]))

    def test_high_temperature_is_uniform(self):
        src, _, _ = self.make()
        hot = ToyAttentionCondition(
            src.text_keys, src.text_values, src.query_weights, temperature=1e9
        )
        state = random_latent(RngStream(2), (1, 2, 2, 3, 3))
        maps = attention_maps(state.data, 0.8, hot)
        assert np.allclose(maps[0], 0.25, atol=1e-6)

    def test_deterministic(self):
        src, _, _ = self.make()
        state = random_latent(RngStream(3), (2, 2, 2, 3, 3))
        v1 = toy_attention_velocity(state.data, 0.8, src)
        v2 = toy_attention_velocity(state.data, 0.8, src)
        assert np.array_equal(v1, v2)
        m1 = attention_maps(state.data, 0.8, src)
        m2 = attention_maps(state.data, 0.8, src)
        assert len(m1) == len(m2) == 2
        assert all(np.array_equal(a, b) for a, b in zip(m1, m2))

    def test_identity_hook_bitwise_equal(self):
        src, _, _ = self.make()
        state = random_latent(RngStream(4), (1, 2, 2, 3, 3))
        plain = toy_attention_velocity(state.data, 0.8, src)
        hooked = toy_attention_velocity(state.data, 0.8, src, hook=lambda m, layer, out: m)
        assert np.array_equal(plain, hooked)

    def test_softmax_rows_sum_to_one(self):
        src, _, _ = self.make()
        state = random_latent(RngStream(5), (1, 2, 3, 4, 4))
        maps = attention_maps(state.data, 0.8, src)
        assert maps[0].shape == (4, 48)
        assert np.allclose(maps[0].sum(axis=0), 1.0, atol=1e-6)

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


def softmax_buffers(logits):
    """Fresh (out, shift, scratch) arguments of ``_softmax_tokens`` for (L, N) logits."""
    tokens, voxels = logits.shape
    return (
        np.empty((tokens, voxels), logits.dtype),
        np.empty(voxels, logits.dtype),
        np.empty((8, voxels), logits.dtype),
    )


def attention_maps(state, t, cond):
    """Each sample's post-softmax (L, F*H*W) weights, as the toy velocity computes them.

    An identity hook records each sample's logits; the last sample's weights
    must equal the probabilities left in the calling thread's buffer.
    """
    seen = []

    def record(logits, layer, out):
        seen.append(logits.copy())
        return logits

    toy_attention_velocity(state, t, cond, hook=record)
    maps = [_softmax_tokens(lg, *softmax_buffers(lg)) for lg in seen]
    bufs = _toy_buffers((state.shape[1:], cond.text_keys.shape))
    assert maps[-1].tobytes() == bufs.probs.tobytes()
    return maps


def token_major(logits):
    """The (L, N) token-major copy of a row-major (N, L) logit matrix."""
    return np.ascontiguousarray(logits.T)


def reduce_softmax_rows(logits):
    """The row-major ufunc.reduce form of the softmax, kept as the oracle."""
    shift = logits.max(axis=1, keepdims=True) + 0 * logits.min()
    probs = logits - shift
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def meshgrid_voxel_features(state, sample):
    """The per-call meshgrid form of the (F*H*W, 3 + C) voxel features, kept as the oracle."""
    _, channels, frames, height, width = state.shape
    fs = (np.arange(frames, dtype=np.float32) + np.float32(0.5)) / np.float32(frames)
    hs = (np.arange(height, dtype=np.float32) + np.float32(0.5)) / np.float32(height)
    ws = (np.arange(width, dtype=np.float32) + np.float32(0.5)) / np.float32(width)
    grid = np.stack(np.meshgrid(fs, hs, ws, indexing="ij"), axis=-1).reshape(-1, 3)
    values = state[sample].reshape(channels, -1).T
    return np.concatenate([grid, values], axis=1)


def row_major_sar(logits, mask, j_tar, beta1, beta2):
    """Both refinement passes on a row-major (F*H*W, L) logit matrix, kept as the oracle."""
    rows = mask.flat()
    tar_cols = j_tar.token_selector(logits.shape[1])
    sub = logits[rows]
    pulled = np.where(
        tar_cols[None, :], sub.max(axis=1, keepdims=True), sub.min(axis=1, keepdims=True)
    )
    step1 = logits.copy()
    step1[rows] = (1.0 - beta1) * sub + beta1 * pulled
    sub = step1[:, tar_cols]
    pulled = np.where(rows[:, None], sub.max(axis=0, keepdims=True), sub.min(axis=0, keepdims=True))
    step2 = step1.copy()
    step2[:, tar_cols] = (1.0 - beta2) * sub + beta2 * pulled
    return step2


def row_major_velocity(state, cond, hook=None):
    """The toy velocity on (F*H*W, L) logits with the reduce softmax, kept as the oracle."""
    batch, channels, frames, height, width = state.shape
    outs = []
    for b in range(batch):
        feats = meshgrid_voxel_features(state, b)
        queries = feats @ cond.query_weights
        logits = queries @ cond.text_keys.T
        logits /= np.float32(cond.temperature)
        if hook is not None:
            logits = hook(logits)
        probs = reduce_softmax_rows(logits)
        outs.append((probs @ cond.text_values).T.reshape(channels, frames, height, width))
    return np.stack(outs)


class TestToyAttentionKernels:
    # Signed-zero rows are byte-equal too: the sign of a zero shift cannot
    # reach the weights, because exp(+0) and exp(-0) are both exactly 1.
    @pytest.mark.parametrize("voxels", ORACLE_VOXELS)
    @pytest.mark.parametrize("kind", ["finite", "nonfinite", "signed_zero"])
    def test_softmax_rows_matches_reduce_formula(self, kind, voxels):
        for tokens in ORACLE_TOKENS:
            logits = special_logits(voxels, tokens, kind)
            tm = token_major(logits)
            before = tm.copy()
            with np.errstate(all="ignore"):
                got = _softmax_tokens(tm, *softmax_buffers(tm))
                want = token_major(reduce_softmax_rows(logits))
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert tm.tobytes() == before.tobytes()

    # numpy's pairwise order, both sides of its 8-wide unroll and 128-value block.
    # Every bit is equal but a NaN's sign: where one sum meets two NaNs, the
    # compiled numpy loop may add them in either operand order, and x86 passes
    # on the first operand's NaN (np.nan is positive, inf - inf negative).
    @pytest.mark.parametrize("voxels", ORACLE_VOXELS)
    @pytest.mark.parametrize("kind", ["finite", "nonfinite", "signed_zero"])
    def test_token_sum_matches_add_reduce(self, kind, voxels):
        for tokens in ORACLE_TOKENS + (128, 129, 300):
            logits = special_logits(voxels, tokens, kind)
            _, out, scratch = softmax_buffers(token_major(logits))
            with np.errstate(all="ignore"):
                got = _token_sum(token_major(logits), out, scratch)
                want = np.add.reduce(logits, axis=1)
            assert got is out and got.dtype == want.dtype
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert nan.any() == (kind == "nonfinite")
            assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize(
        "dims", [(1, 1, 1, 1, 1), (1, 4, 5, 8, 8), (2, 3, 2, 3, 5), (1, 4, 16, 32, 32)]
    )
    def test_voxel_features_match_meshgrid_formula(self, dims):
        state = random_latent(RngStream(8), dims).data
        for _ in range(2):  # the second pass reuses the buffer and its grid rows
            for sample in range(dims[0]):
                got = _toy_buffers((dims[1:], (2, 3))).features(state, sample)
                want = meshgrid_voxel_features(state, sample).T
                assert got.dtype == want.dtype and got.flags.writeable
                assert got.tobytes() == want.tobytes()


def toy_case(batch, tokens, dims=(2, 3, 5, 7), seed=5):
    """A condition, a state of odd F*H*W, a box mask and a target token set."""
    channels, frames, height, width = dims
    j_tar = TargetTokenSet.of(0, tokens // 2)
    cond, _ = make_toy_condition_pair(seed, tokens, 3, channels, j_tar)
    state = random_latent(RngStream(seed + tokens), (batch,) + dims, scale=2.0).data
    bits = np.zeros((frames, height, width), np.uint8)
    bits[1:, 1:4, 2:6] = 1
    return cond, state, EditMask(bits), j_tar


class TestRowMajorOracle:
    # The token-major velocity repeats the row-major one's IEEE operations, so it
    # is bitwise equal wherever numpy runs its products through gemm (C and the
    # query width both at least 2, as here).
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("tokens", [1, 6, 16, 17])
    @pytest.mark.parametrize("t", [0.3, 0.9])  # refinement gated out, then active
    def test_velocity_matches_row_major_oracle(self, batch, tokens, t):
        cond, state, mask, j_tar = toy_case(batch, tokens)
        cfg = SarConfig(beta1=0.4, beta2=0.6)
        calls = []

        def hook(logits, layer, out):
            refined = apply_sar(logits, mask, j_tar, cfg, t, layer, out=out)
            calls.append(refined is not logits)
            return refined

        def oracle_hook(logits):
            return row_major_sar(logits, mask, j_tar, 0.4, 0.6) if t >= 0.6 else logits

        got = toy_attention_velocity(state, t, cond, hook=hook)
        want = row_major_velocity(state, cond, hook=oracle_hook)
        assert calls == [t >= 0.6] * batch
        assert got.dtype == want.dtype and got.shape == state.shape
        assert got.tobytes() == want.tobytes()
        assert toy_attention_velocity(state, t, cond).tobytes() == row_major_velocity(
            state, cond
        ).tobytes()


class TestToyBuffers:
    def test_two_threads_on_two_shapes_give_the_serial_bits(self):
        cases = [toy_case(1, 6), toy_case(2, 17, dims=(4, 2, 4, 4))]
        serial = [toy_attention_velocity(state, 0.7, cond) for cond, state, _, _ in cases]
        barrier = threading.Barrier(2)
        got = {0: [], 1: []}
        errors = []

        def worker(tid):
            try:
                for k in range(8):
                    barrier.wait(timeout=60)
                    cond, state, _, _ = cases[(k + tid) % 2]
                    got[tid].append(toy_attention_velocity(state, 0.7, cond).tobytes())
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=worker, args=(tid,)) for tid in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(120)
        assert not errors and not any(th.is_alive() for th in threads)
        for tid in (0, 1):
            assert got[tid] == [serial[(k + tid) % 2].tobytes() for k in range(8)]

    def test_result_is_unchanged_by_the_next_call(self):
        cond, state, mask, j_tar = toy_case(2, 6)
        first = toy_attention_velocity(state, 0.7, cond)
        kept = first.copy()
        toy_attention_velocity(-state, 0.7, cond, hook=lambda lg, layer, out: lg * 2)
        assert first.tobytes() == kept.tobytes()
        bufs = _toy_buffers((state.shape[1:], cond.text_keys.shape))
        for buf in vars(bufs).values():
            if isinstance(buf, np.ndarray):
                assert not np.shares_memory(first, buf)

    @pytest.mark.parametrize("identity", [True, False])
    def test_hook_result_is_not_written(self, identity):
        cond, state, _, _ = toy_case(2, 6)
        returned = []

        def hook(logits, layer, buf):
            out = logits if identity else logits - 1
            returned.append((out, out.copy()))
            return out

        # one sample per call: an identity hook returns the thread's logit buffer,
        # which the next sample's logits may overwrite
        for b in range(2):
            toy_attention_velocity(state[b : b + 1], 0.7, cond, hook=hook)
            arr, snapshot = returned[-1]
            assert arr.tobytes() == snapshot.tobytes()
        assert len(returned) == 2

    def test_writes_into_out_with_the_same_bits(self):
        cond, state, _, _ = toy_case(2, 6)
        want = toy_attention_velocity(state, 0.7, cond)
        out = np.full_like(state, np.nan)
        assert toy_attention_velocity(state, 0.7, cond, out=out) is out
        assert out.tobytes() == want.tobytes()
        inout = state.copy()  # the engine's in-place steps pass the state itself
        assert toy_attention_velocity(inout, 0.7, cond, out=inout) is inout
        assert inout.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch", [1, 2])
    def test_hook_writing_into_out_gives_the_bits_of_a_fresh_array(self, batch):
        cond, state, _, _ = toy_case(batch, 6)
        handed = []

        def fresh(logits, layer, out):
            return logits * np.float32(0.5) - 1

        def into_out(logits, layer, out):
            handed.append(out.shape == logits.shape and not np.shares_memory(out, logits))
            np.multiply(logits, np.float32(0.5), out=out)
            return np.subtract(out, 1, out=out)

        want = toy_attention_velocity(state, 0.7, cond, hook=fresh)
        got = toy_attention_velocity(state, 0.7, cond, hook=into_out)
        assert handed == [True] * batch
        assert got.tobytes() == want.tobytes()

    def test_shape_change_leaves_one_buffer_set_per_thread(self):
        small, large = toy_case(1, 6), toy_case(1, 16, dims=(4, 2, 4, 4))

        def run():
            seen = []
            for cond, state, _, _ in (small, large, small):
                toy_attention_velocity(state, 0.7, cond)
                seen.append(weakref.ref(_LOCAL.toy))
                assert [name for name in vars(_LOCAL)] == ["toy"]
            assert seen[0]() is None and seen[1]() is None
            assert _LOCAL.toy.key == (small[1].shape[1:], small[0].text_keys.shape)
            return seen[2]()

        own = run()
        box = []
        th = threading.Thread(target=lambda: box.append(run()))
        th.start()
        th.join(60)
        assert len(box) == 1 and box[0] is not own
        assert _LOCAL.toy is own


class TestBlockedProducts:
    """The toy products run in column blocks small enough for OpenBLAS to keep
    each on the calling thread, with the bits of the whole product."""

    @staticmethod
    def _operands(m, k, n, transposed):
        gen = np.random.default_rng(m * k + n)
        a = gen.standard_normal((k, m) if transposed else (m, k)).astype(np.float32)
        b = gen.standard_normal((k, n)).astype(np.float32)
        return (a.T if transposed else a), b

    @staticmethod
    def _spy(monkeypatch):
        """Record (M, K, width) of every ``np.matmul`` call."""
        calls = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            calls.append((a.shape[0], a.shape[1], b.shape[1]))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        return calls

    @pytest.mark.parametrize("m,k", [(16, 4), (4, 7), (4, 16), (6, 4), (17, 3)])
    @pytest.mark.parametrize("n", [63, 320, 4097, 65536, 100003])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_bits_equal_the_whole_product(self, monkeypatch, m, k, n, transposed):
        a, b = self._operands(m, k, n, transposed)
        want = np.matmul(a, b)
        calls = self._spy(monkeypatch)
        got = _matmul(a, b, np.empty((m, n), dtype=np.float32))
        assert got.tobytes() == want.tobytes()
        assert sum(width for _, _, width in calls) == n
        assert all(mm * kk * width <= _SERIAL_GEMM and width >= 2 for mm, kk, width in calls)

    @pytest.mark.parametrize("m,k", [(1, 16), (1, 3), (16, 1), (4, 1)])
    def test_gemv_shapes_stay_whole(self, monkeypatch, m, k):
        a, b = self._operands(m, k, 100003, False)
        want = np.matmul(a, b)
        calls = self._spy(monkeypatch)
        got = _matmul(a, b, np.empty((m, 100003), dtype=np.float32))
        assert calls == [(m, k, 100003)]
        assert got.tobytes() == want.tobytes()

    def test_toy_velocity_calls_stay_under_the_threshold(self, monkeypatch):
        src, _ = make_toy_condition_pair(7, 16, 4, 4, TargetTokenSet.of(2, 3))
        state = random_latent(RngStream(4), (1, 4, 16, 32, 32)).data
        want = toy_attention_velocity(state, 0.5, src)
        calls = self._spy(monkeypatch)
        got = toy_attention_velocity(state, 0.5, src)
        assert got.tobytes() == want.tobytes()
        assert len(calls) > 3
        assert all(m * k * width <= _SERIAL_GEMM for m, k, width in calls)


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
            direct = toy_attention_velocity(state.data, 0.5, cond)
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
