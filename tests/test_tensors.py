import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsteer import (
    EditMask,
    RngStream,
    TimeGrid,
    VideoLatent,
    interpolate_source,
    load_mask,
    load_tensor,
    read_fatn,
    sample_gaussian,
    save_tensor,
    write_fatn,
)
from flowsteer import core
from flowsteer.backends import GaussianCondition, gaussian_velocity
from flowsteer.core import resample_mask_any, write_pgm
from flowsteer.errors import ShapeMismatchError, TensorFormatError

from conftest import random_latent


class TestVideoLatent:
    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeMismatchError):
            VideoLatent(np.zeros((2, 3, 4)))

    def test_rejects_nonfinite(self):
        data = np.zeros((1, 1, 1, 2, 2), dtype=np.float32)
        data[0, 0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            VideoLatent(data)

    def test_data_is_readonly(self):
        lat = VideoLatent(np.zeros((1, 1, 1, 1, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            lat.data[0, 0, 0, 0, 0] = 1.0

    def test_dims(self):
        lat = VideoLatent(np.zeros((2, 3, 4, 5, 6), dtype=np.float32))
        assert lat.dims == (2, 3, 4, 5, 6)
        assert lat.dims.frames == 4


class TestRng:
    def test_same_seed_same_counter_identical(self):
        a = RngStream(0).normals(257)
        b = RngStream(0).normals(257)
        assert np.array_equal(a, b)

    def test_batching_does_not_change_pairs(self):
        # drawing 4 then 4 equals drawing 8 (counter-based, pair-aligned)
        r1 = RngStream(9)
        joined = np.concatenate([r1.normals(4), r1.normals(4)])
        assert np.array_equal(joined, RngStream(9).normals(8))

    def test_moments_over_many_draws(self):
        draws = RngStream(7).normals(1_000_000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.02

    def test_degenerate_shape(self):
        lat = sample_gaussian(RngStream(0), (1, 1, 1, 1, 1))
        assert lat.shape == (1, 1, 1, 1, 1)
        assert np.isfinite(lat).all()

    def test_sample_gaussian_deterministic(self):
        a = sample_gaussian(RngStream(0), (2, 3, 4, 5, 6))
        b = sample_gaussian(RngStream(0), (2, 3, 4, 5, 6))
        assert np.array_equal(a, b)

    def test_counter_advances_by_even_count(self):
        r = RngStream(0)
        r.normals(5)
        assert r.counter == 6

    def test_substreams_differ(self):
        r = RngStream(42)
        a = r.substream(0).normals(64)
        b = r.substream(1).normals(64)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, RngStream(42).substream(0).normals(64))


def _oracle_mix64(x):
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _oracle_normals(seed, counter, n):
    """One-shot reference: the whole draw in one pass of array arithmetic."""
    pairs = (n + 1) // 2
    idx = np.arange(counter, counter + 2 * pairs, dtype=np.uint64)
    with np.errstate(over="ignore"):
        states = (np.uint64(seed) + (idx + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)).astype(
            np.uint64
        )
    bits = _oracle_mix64(states)
    u1 = (np.asarray(bits[0::2] >> np.uint64(11), dtype=np.float64) + 1.0) * 2.0**-53
    u2 = np.asarray(bits[1::2] >> np.uint64(11), dtype=np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * math.pi) * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


_CHUNK = core._CHUNK_PAIRS


class TestChunkedNormals:
    @pytest.mark.parametrize("seed", [0, 9, 2**63 + 12345])
    @pytest.mark.parametrize("counter", [0, 3])
    @pytest.mark.parametrize(
        "n", [0, 1, 2, 3, 257, 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1, 5 * _CHUNK + 7]
    )
    def test_matches_one_shot_oracle(self, seed, counter, n):
        rng = RngStream(seed, counter)
        got = rng.normals(n)
        assert got.dtype == np.float64 and got.flags.writeable
        assert got.tobytes() == _oracle_normals(seed, counter, n).tobytes()
        assert rng.counter == counter + 2 * math.ceil(n / 2)

    def test_wan_size_substream_draw_matches_oracle(self):
        child = RngStream(11).substream(0)
        n = 1 * 16 * 21 * 60 * 104
        assert child.normals(n).tobytes() == _oracle_normals(child.seed, 0, n).tobytes()
        assert child.counter == n

    @pytest.mark.parametrize("chunk,workers", [(1, 1), (5, 3), (64, 4)])
    def test_independent_of_chunk_size_and_workers(self, monkeypatch, chunk, workers):
        monkeypatch.setattr(core, "_CHUNK_PAIRS", chunk)
        monkeypatch.setattr(core, "_usable_cpus", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (1, 2 * chunk, 2 * chunk + 1, 1001):
                got = RngStream(2**63 + 7, 5).normals(n)
                assert got.tobytes() == _oracle_normals(2**63 + 7, 5, n).tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_chunk_failure_propagates_and_keeps_counter(self, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_PAIRS", 4)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        fill = core._fill_chunk

        def failing_fill(out, seed, counter, lo, hi, ramp, scratch):
            if lo == 8:
                raise RuntimeError("chunk 2 failed")
            fill(out, seed, counter, lo, hi, ramp, scratch)

        monkeypatch.setattr(core, "_fill_chunk", failing_fill)
        rng = RngStream(3, 6)
        with pytest.raises(RuntimeError, match="chunk 2 failed"):
            rng.normals(40)
        assert rng.counter == 6

    def test_single_chunk_draw_runs_inline(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a draw below one fill block must not use the pool or query CPUs")

        monkeypatch.setattr(core, "POOL", SimpleNamespace(submit=forbidden))
        monkeypatch.setattr(core, "_usable_cpus", forbidden)
        n = 2 * core._FILL_PAIRS - 3  # one pair short of a fill block
        rng = RngStream(1)
        assert rng.normals(n).tobytes() == _oracle_normals(1, 0, n).tobytes()
        rng.start_normals(n, np.float32)
        want = _oracle_normals(1, n + 1, n).astype(np.float32)
        assert rng.normals(n, np.float32).tobytes() == want.tobytes()
        assert rng.uniforms(3 * _CHUNK).shape == (3 * _CHUNK,)


class TestFloat32Normals:
    """A float32 draw rounds each float64 Box-Muller value once, exactly as a cast does."""

    @staticmethod
    def _check(seed, counter, n):
        rng = RngStream(seed, counter)
        got = rng.normals(n, np.float32)
        assert got.dtype == np.float32 and got.shape == (n,)
        want = RngStream(seed, counter).normals(n).astype(np.float32)
        assert got.tobytes() == want.tobytes()
        assert rng.counter == counter + 2 * math.ceil(n / 2)

    @pytest.mark.parametrize("n", [1, 7, 257, 2 * _CHUNK + 1])
    def test_odd_length(self, n):
        self._check(2**63 + 5, 3, n)

    def test_one_chunk(self):
        self._check(4, 0, 2 * _CHUNK)

    @pytest.mark.parametrize("chunk", [None, 5])
    def test_several_chunks(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(core, "_CHUNK_PAIRS", chunk)
        n = 7 * (chunk or _CHUNK) + 2
        assert (n + 1) // 2 > core._CHUNK_PAIRS
        self._check(9, 1, n)

    def test_draw_on_a_pool_thread_runs_inline(self, monkeypatch):
        """A draw issued, or started ahead, on the pool's only thread queues
        helpers that cannot start; its join fills every chunk on that thread
        and cancels them, so the draw never waits on a queued task."""
        monkeypatch.setattr(core, "_CHUNK_PAIRS", 4)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 4)
        threads = set()
        fill = core._fill_chunk

        def recording_fill(*args):
            threads.add(threading.get_ident())
            fill(*args)

        monkeypatch.setattr(core, "_fill_chunk", recording_fill)
        pool = ThreadPoolExecutor(1, "flowsteer")
        helpers = []

        class SpyPool:
            def submit(self, fn, *args):
                helpers.append(pool.submit(fn, *args))
                return helpers[-1]

        monkeypatch.setattr(core, "POOL", SpyPool())

        def draws():
            issued = RngStream(6, 2).normals(101, np.float32)
            rng = RngStream(6, 2)
            rng.start_normals(101, np.float32)
            return threading.get_ident(), issued, rng.normals(101, np.float32)

        try:
            ident, issued, started = pool.submit(draws).result(timeout=60)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        want = _oracle_normals(6, 2, 101).astype(np.float32).tobytes()
        assert issued.tobytes() == want and started.tobytes() == want
        assert threads == {ident}
        assert len(helpers) == 6 and all(future.cancelled() for future in helpers)

    def test_sample_gaussian_is_the_float32_draw(self):
        dims = (1, 2, 3, 5, 7)
        got = sample_gaussian(RngStream(3).substream(4), dims)
        want = RngStream(3).substream(4).normals(210).astype(np.float32).reshape(dims)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


class TestStartedDraws:
    """A draw started ahead of its ``normals`` call equals the one-shot oracle
    however far its helpers got before the call joins it."""

    PAIRS = 4
    N = 16 * 2 * PAIRS + 3  # seventeen chunks, the last one short

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_PAIRS", self.PAIRS)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)

    @staticmethod
    def _record_fills(monkeypatch, before=None):
        """Patch the chunk filler to log (thread, lo) and run ``before(lo)`` first."""
        fills = []
        fill = core._fill_chunk

        def recording_fill(out, seed, counter, lo, hi, ramp, scratch):
            if before is not None:
                before(lo)
            fill(out, seed, counter, lo, hi, ramp, scratch)
            fills.append((threading.get_ident(), lo))

        monkeypatch.setattr(core, "_fill_chunk", recording_fill)
        return fills

    def _join_and_check(self, rng, seed=5, counter=2):
        got = rng.normals(self.N)
        assert got.tobytes() == _oracle_normals(seed, counter, self.N).tobytes()
        assert rng.counter == counter + self.N + 1

    def test_joined_before_any_helper_starts(self, monkeypatch):
        fills = self._record_fills(monkeypatch)
        gate = threading.Event()
        pool = ThreadPoolExecutor(1)
        try:
            pool.submit(gate.wait, 60)  # keeps the only helper thread busy
            monkeypatch.setattr(core, "POOL", pool)
            rng = RngStream(5, 2)
            rng.start_normals(self.N)
            self._join_and_check(rng)
        finally:
            gate.set()
            pool.shutdown(wait=True)
        assert {ident for ident, _ in fills} == {threading.get_ident()}
        assert len(fills) == 17

    def test_joined_halfway(self, monkeypatch):
        main = threading.get_ident()
        halfway, joined = threading.Event(), threading.Event()

        def pause_helper_halfway(lo):
            if threading.get_ident() == main:
                joined.set()
            elif lo >= 8 * self.PAIRS:
                halfway.set()
                assert joined.wait(60)

        fills = self._record_fills(monkeypatch, pause_helper_halfway)
        rng = RngStream(5, 2)
        rng.start_normals(self.N)
        assert halfway.wait(60)
        self._join_and_check(rng)
        by_helper = [lo for ident, lo in fills if ident != main]
        assert len(by_helper) >= 8 and len(fills) == 17
        assert any(ident == main for ident, _ in fills)

    def test_joined_after_every_chunk_is_done(self, monkeypatch):
        done = threading.Event()
        fills = self._record_fills(monkeypatch)
        fill = core._fill_chunk

        def signalling_fill(*args):
            fill(*args)
            if len(fills) == 17:
                done.set()

        monkeypatch.setattr(core, "_fill_chunk", signalling_fill)
        rng = RngStream(5, 2)
        rng.start_normals(self.N)
        assert done.wait(60)
        self._join_and_check(rng)
        assert threading.get_ident() not in {ident for ident, _ in fills}

    def test_helper_error_raises_from_the_join(self, monkeypatch):
        main = threading.get_ident()
        returned = threading.Event()
        late = []

        def failing_helper(lo):
            if threading.get_ident() == main:
                time.sleep(0.01)  # lets the helper reach its failing chunk first
                return
            late.append(returned.is_set())
            if lo >= 2 * self.PAIRS:
                raise RuntimeError("helper chunk failed")
            time.sleep(0.02)

        fill = core._fill_chunk
        self._record_fills(monkeypatch, failing_helper)
        rng = RngStream(5, 2)
        rng.start_normals(self.N)
        rng.start_normals(self.N)
        with pytest.raises(RuntimeError, match="helper chunk failed"):
            rng.normals(self.N)
        returned.set()
        time.sleep(0.1)
        assert late and not any(late)
        assert rng.counter == 2
        # the draw started after the failed one is cancelled; the stream draws afresh
        monkeypatch.setattr(core, "_fill_chunk", fill)
        self._join_and_check(rng)

    def test_draw_started_on_a_pool_thread_submits_no_helper(self, monkeypatch):
        """A draw below one fill block, started on a ``POOL`` thread and joined
        on another, submits no helper and makes no CPU query: the draw alone
        decides its helpers, wherever it starts."""
        monkeypatch.setattr(core, "_CHUNK_PAIRS", 128)
        monkeypatch.setattr(core, "_FILL_PAIRS", 128)
        assert (self.N + 1) // 2 < 128

        def forbidden():
            raise AssertionError("a draw below one fill block must not query CPUs")

        monkeypatch.setattr(core, "_usable_cpus", forbidden)
        pool = core.POOL
        helpers = []

        class SpyPool:
            def submit(self, fn, *args):
                helpers.append(fn)
                return pool.submit(fn, *args)

        monkeypatch.setattr(core, "POOL", SpyPool())
        rng = RngStream(5, 2)
        pool.submit(rng.start_normals, self.N).result(timeout=60)
        self._join_and_check(rng)
        assert helpers == []

    def test_failed_join_keeps_the_counter(self, monkeypatch):
        def failing(lo):
            if lo == 3 * self.PAIRS:
                raise RuntimeError("chunk 3 failed")

        self._record_fills(monkeypatch, failing)
        rng = RngStream(5, 2)
        rng.start_normals(self.N)
        with pytest.raises(RuntimeError, match="chunk 3 failed"):
            rng.normals(self.N)
        assert rng.counter == 2

    def test_started_draws_join_in_order_into_out(self):
        rng = RngStream(5, 2)
        out = np.empty(self.N, dtype=np.float32)
        rng.start_normals(self.N, np.float32, out=out)
        rng.start_normals(self.N)
        first = rng.normals(self.N, np.float32)
        assert first is out
        want = _oracle_normals(5, 2, 2 * self.N + 1)
        assert first.tobytes() == want[: self.N].astype(np.float32).tobytes()
        assert rng.normals(self.N).tobytes() == want[self.N + 1 :].tobytes()

    def test_mismatched_call_cancels_the_started_draw(self):
        rng = RngStream(5, 2)
        rng.start_normals(self.N)
        got = rng.normals(7)
        assert got.tobytes() == _oracle_normals(5, 2, 7).tobytes()
        self._join_and_check(rng, counter=10)

    def test_out_must_fit_the_draw(self):
        with pytest.raises(ValueError, match="out must be"):
            RngStream(5).start_normals(self.N, np.float32, out=np.empty(self.N - 1, np.float32))


class TestInterpolate:
    def test_endpoint_zero_is_source(self, make_latent):
        x, n = make_latent(), make_latent()
        out = interpolate_source(x.data, n.data, 0.0)
        assert np.array_equal(out, x.data)

    def test_endpoint_one_is_noise(self, make_latent):
        x, n = make_latent(), make_latent()
        out = interpolate_source(x.data, n.data, 1.0)
        assert np.array_equal(out, n.data)

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    def test_written_into_out_bitwise(self, make_latent, t):
        x, n = make_latent(), make_latent()
        want = interpolate_source(x.data, n.data, t)
        noise, out = n.data.copy(), np.empty_like(want)
        assert interpolate_source(x.data, noise, t, out=out) is out
        assert out.tobytes() == want.tobytes()

    def test_hand_value_quarter(self):
        x = VideoLatent(np.full((1, 1, 1, 2, 2), 2.0, dtype=np.float32))
        n = VideoLatent(np.zeros((1, 1, 1, 2, 2), dtype=np.float32))
        out = interpolate_source(x.data, n.data, 0.25)
        assert np.allclose(out, 1.5)

    def test_shape_mismatch(self, make_latent):
        with pytest.raises(ShapeMismatchError):
            interpolate_source(
                make_latent((1, 1, 1, 2, 2)).data, make_latent((1, 1, 1, 3, 3)).data, 0.5
            )

    def test_rejects_tiny_violation(self, make_latent):
        # nothing is snapped: a time a hair outside [0, 1] is as wrong as any other
        x, n = make_latent(), make_latent()
        for t in (-1e-13, 1.0 + 1e-13, -1e-6):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                interpolate_source(x.data, n.data, t)

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(min_value=-4.0, max_value=4.0), t=st.floats(min_value=0.0, max_value=1.0))
    def test_affine_in_inputs(self, alpha, t):
        rng = RngStream(5)
        x, n = random_latent(rng), random_latent(rng)
        scaled = interpolate_source(np.float32(alpha) * x.data, np.float32(alpha) * n.data, t)
        base = interpolate_source(x.data, n.data, t)
        assert np.allclose(scaled, np.float32(alpha) * base, rtol=1e-5, atol=1e-6)


class TestTimeContract:
    """Both functions that compute with t take exactly the times in [0, 1]."""

    X = np.linspace(-2.0, 2.0, 24, dtype=np.float32).reshape(1, 2, 1, 3, 4)
    N = np.linspace(1.5, -0.5, 24, dtype=np.float32).reshape(1, 2, 1, 3, 4)
    COND = GaussianCondition(np.array([0.25, -0.5], dtype=np.float32), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        t=st.floats().filter(lambda t: not 0.0 <= t <= 1.0)
        | st.sampled_from([-1e-13, 1.0 + 1e-13, -5e-324, math.nextafter(1.0, 2.0)])
    )
    def test_time_outside_unit_interval_raises(self, t):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            interpolate_source(self.X, self.N.copy(), t)
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            gaussian_velocity(self.X, t, self.COND)

    @pytest.mark.parametrize("t", [0, 0.0, 1, 1.0, np.float64(1.0)])
    def test_endpoints_keep_their_bits(self, t):
        x, n = self.X, self.N
        assert interpolate_source(x, n, t).tobytes() == (n if t else x).tobytes()
        mu = self.COND.mean.reshape(1, 2, 1, 1, 1)
        # s = 1: the velocity is z - mu at t = 1 and -(z - mu) - mu at t = 0
        want = x - mu if t else -(x - mu) - mu
        assert gaussian_velocity(x, t, self.COND).tobytes() == want.tobytes()


class TestFatnIO:
    def test_round_trip_bit_exact(self, tmp_path, make_latent):
        lat = make_latent((2, 3, 4, 5, 6), scale=3.7)
        path = tmp_path / "t.fatn"
        save_tensor(lat, path)
        back = load_tensor(path)
        assert back.data.tobytes() == lat.data.tobytes()
        assert back.data.shape == lat.data.shape

    def test_header_dim_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.fatn"
        path.write_bytes(b"FATN 5 1 2 3 4\n" + b"\x00" * 96)
        with pytest.raises(TensorFormatError, match="declares 5 dims"):
            read_fatn(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.fatn"
        path.write_bytes(b"")
        with pytest.raises(TensorFormatError, match="truncated header"):
            read_fatn(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.fatn"
        path.write_bytes(b"FATN 2 2 2\n" + b"\x00" * 10)
        with pytest.raises(TensorFormatError, match="truncated payload"):
            read_fatn(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.fatn"
        path.write_bytes(b"FATN 1 2\n" + b"\x00" * 9)
        with pytest.raises(TensorFormatError, match="trailing"):
            read_fatn(path)

    def test_header_of_max_length_accepted(self, tmp_path):
        path = tmp_path / "wide.fatn"
        header = b"FATN 1 1".ljust(core._MAX_HEADER_BYTES)
        path.write_bytes(header + b"\n" + np.float32(2.5).tobytes())
        assert read_fatn(path).tolist() == [2.5]

    def test_header_over_max_length_rejected(self, tmp_path):
        path = tmp_path / "wide.fatn"
        header = b"FATN 1 1".ljust(core._MAX_HEADER_BYTES + 1)
        path.write_bytes(header + b"\n" + np.float32(2.5).tobytes())
        with pytest.raises(TensorFormatError, match="header exceeds 4096 bytes"):
            read_fatn(path)

    def test_eof_before_header_newline(self, tmp_path):
        path = tmp_path / "cut.fatn"
        path.write_bytes(b"FATN 1 1")
        with pytest.raises(TensorFormatError, match="truncated header"):
            read_fatn(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "magic.fatn"
        path.write_bytes(b"NTAF 1 1\n\x00\x00\x00\x00")
        with pytest.raises(TensorFormatError, match="magic"):
            read_fatn(path)

    def test_dim_overflow(self, tmp_path):
        path = tmp_path / "huge.fatn"
        path.write_bytes(b"FATN 2 1000000 1000000\n")
        with pytest.raises(TensorFormatError, match="overflow"):
            read_fatn(path)

    def test_non_latent_rank_rejected_by_load_tensor(self, tmp_path):
        path = tmp_path / "flow.fatn"
        write_fatn(path, np.zeros((2, 2, 3, 3), dtype=np.float32))
        assert read_fatn(path).shape == (2, 2, 3, 3)
        with pytest.raises(TensorFormatError):
            load_tensor(path)


class TestMask:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            EditMask(np.full((1, 2, 2), 3, dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float32, np.float64])
    def test_zero_one_inputs_give_equal_bool_data(self, dtype):
        bits = np.array([[[1, 0], [0, 1]], [[0, 0], [1, 1]]])
        mask = EditMask(bits.astype(dtype))
        assert mask.data.dtype == bool and mask.data.flags.c_contiguous
        assert not mask.data.flags.writeable
        assert mask.data.tobytes() == (bits == 1).tobytes()

    @pytest.mark.parametrize("bad", [2.0, np.nan])
    def test_rejects_two_and_nan(self, bad):
        bits = np.zeros((1, 2, 2))
        bits[0, 1, 1] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            EditMask(bits)

    def test_flat_is_a_view(self):
        mask = EditMask(np.ones((2, 3, 4), dtype=np.uint8))
        flat = mask.flat()
        assert flat.shape == (24,) and flat.dtype == bool
        assert np.shares_memory(flat, mask.data)

    def test_pgm_holding_two_images_rejected(self, tmp_path):
        path = tmp_path / "two.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4) + b"P5\n2 2\n255\n" + bytes([255] * 4))
        with pytest.raises(TensorFormatError, match="two.pgm: trailing bytes after payload"):
            load_mask(path, (1, 2, 2))

    def test_pgm_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "tail.pgm"
        path.write_bytes(b"P5 2 1 255 " + bytes([0xFF, 0x00]) + b"garbage")
        with pytest.raises(TensorFormatError, match="trailing bytes after payload"):
            load_mask([path], (1, 1, 2))

    def test_written_pgm_loads(self, tmp_path):
        img = np.array([[0, 255, 128], [127, 200, 1]], dtype=np.uint8)
        path = tmp_path / "w.pgm"
        write_pgm(path, img)
        assert load_mask(path, (1, 2, 3)).data.tolist() == [(img > 127).tolist()]

    def test_all_zero_source(self, tmp_path):
        path = tmp_path / "m.fatn"
        write_fatn(path, np.zeros((2, 4, 4), dtype=np.float32))
        mask = load_mask(path, (2, 2, 2))
        assert not mask.data.any()

    def test_all_one_source(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm(path, np.full((4, 4), 255, dtype=np.uint8))
        mask = load_mask([path, path], (2, 2, 2))
        assert mask.data.all()

    def test_single_white_pixel_downsample(self, tmp_path):
        img = np.zeros((2, 2), dtype=np.uint8)
        img[0, 1] = 255
        path = tmp_path / "m.pgm"
        write_pgm(path, img)
        mask = load_mask([path], (1, 1, 1))
        assert mask.data[0, 0, 0] == 1

    def test_binarization_threshold(self, tmp_path):
        img = np.array([[127, 128]], dtype=np.uint8)
        path = tmp_path / "m.pgm"
        write_pgm(path, img)
        mask = load_mask([path], (1, 1, 2))
        assert mask.data[0, 0, 0] == 0 and mask.data[0, 0, 1] == 1

    def test_low_maxval_mask_matches_its_8_bit_copy(self, tmp_path):
        box = np.zeros((8, 8), dtype=np.uint8)
        box[2:6, 2:6] = 1
        low = tmp_path / "low.pgm"
        low.write_bytes(b"P5\n8 8\n1\n" + box.tobytes())
        full = tmp_path / "full.pgm"
        write_pgm(full, box * 255)
        want = load_mask([full], (1, 8, 8))
        assert int(want.data.sum()) == 16
        assert load_mask(low, (1, 8, 8)).data.tobytes() == want.data.tobytes()
        assert load_mask([low], (1, 8, 8)).data.tobytes() == want.data.tobytes()

    def test_binarizes_above_half_of_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 1\n3\n" + bytes([0, 1, 2, 3]))
        assert load_mask([path], (1, 1, 4)).data.tolist() == [[[0, 0, 1, 1]]]

    def test_pixel_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n1\n" + bytes([1, 2]))
        with pytest.raises(TensorFormatError, match="m.pgm.*above maxval 1"):
            load_mask([path], (1, 1, 2))

    def test_idempotent_at_matched_resolution(self):
        grid = (np.arange(24).reshape(2, 3, 4) % 2).astype(np.uint8)
        assert np.array_equal(resample_mask_any(grid, (2, 3, 4)), grid)

    def test_upsample_replicates(self):
        grid = np.array([[[1, 0]]], dtype=np.uint8)
        out = resample_mask_any(grid, (1, 1, 4))
        assert out.tolist() == [[[1, 1, 0, 0]]]

    def test_dilating_downsample_keeps_thin_line(self):
        # a 1-px scribble survives 3x downsampling instead of averaging away
        grid = np.zeros((1, 6, 6), dtype=np.uint8)
        grid[0, 3, :] = 1
        out = resample_mask_any(grid, (1, 2, 2))
        assert out[0].tolist() == [[0, 0], [1, 1]]

    def test_fractional_downsample_dilates(self):
        # 3 -> 2: middle source cell straddles the boundary, lights up both
        grid = np.array([[[0, 1, 0]]], dtype=np.uint8)
        out = resample_mask_any(grid, (1, 1, 2))
        assert out[0].tolist() == [[1, 1]]

    def test_zero_size_image(self, tmp_path):
        path = tmp_path / "z.pgm"
        path.write_bytes(b"P5\n0 0\n255\n")
        with pytest.raises(TensorFormatError, match="zero-size"):
            load_mask([path], (1, 1, 1))

    def test_unsupported_format(self, tmp_path):
        path = tmp_path / "p.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(TensorFormatError, match="unsupported"):
            load_mask([path], (1, 1, 1))


class TestTimeGrid:
    def test_uniform_grid(self):
        g = TimeGrid(4)
        assert list(g.intervals()) == [(4, 1.0, 0.75), (3, 0.75, 0.5), (2, 0.5, 0.25), (1, 0.25, 0.0)]
        assert g.steps == 4 and g.skip == 0 and g.active_steps == 4

    def test_intervals_skip_semantics(self):
        g = TimeGrid(5, skip=2)
        assert list(g.intervals()) == [(3, 0.6, 0.4), (2, 0.4, 0.2), (1, 0.2, 0.0)]
        assert g.active_steps == 3

    def test_times_are_the_uniform_formula(self):
        # t and dt of every step are the floats i / steps, whatever the skip
        for steps in (1, 3, 7, 25, 500):
            g = TimeGrid(steps, skip=steps // 2)
            want = [(i, i / steps, (i - 1) / steps) for i in range(steps - steps // 2, 0, -1)]
            assert list(g.intervals()) == want

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            TimeGrid(0)

    def test_rejects_skip_too_large(self):
        with pytest.raises(ValueError, match="0 <= skip < steps, got 3"):
            TimeGrid(3, skip=3)

    def test_rejects_negative_skip(self):
        with pytest.raises(ValueError, match="0 <= skip < steps, got -1"):
            TimeGrid(3, skip=-1)


_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _oracle_uniforms(seed, counter, n):
    idx = np.arange(counter, counter + n, dtype=np.uint64)
    states = np.uint64(seed) + (idx + np.uint64(1)) * _GAMMA
    return np.asarray(_oracle_mix64(states) >> np.uint64(11), dtype=np.float64) * 2.0**-53


class TestSmallDraws:
    """Up to ``core._SMALL_DRAW`` uniforms, and every substream seed, are
    computed on Python ints; their bits are the one-shot array oracle's."""

    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1, 2**63 + 12345])
    @pytest.mark.parametrize("counter", [0, 3, 2**40 + 1])
    def test_uniforms_match_one_shot_oracle(self, seed, counter):
        for n in range(2 * core._SMALL_DRAW + 2):
            rng = RngStream(seed, counter)
            got = rng.uniforms(n)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tobytes() == _oracle_uniforms(seed, counter, n).tobytes()
            assert rng.counter == counter + n

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_substream_matches_oracle(self, seed):
        base = _oracle_mix64(np.array([seed ^ 0xD6E8FEB86659FD93], dtype=np.uint64))
        for index in (0, 1, 7, 2**40):
            state = base + np.uint64(index + 1) * np.array([_GAMMA])
            assert RngStream(seed).substream(index).seed == int(_oracle_mix64(state)[0])


class TestFillBlocks:
    """Chunks are filled in blocks of ``min(_CHUNK_PAIRS, _FILL_PAIRS)`` pairs,
    with a cached read-only ramp and a scratch no other fill uses meanwhile."""

    N = 2**20 + 3

    @pytest.fixture(scope="class")
    def oracle(self):
        return _oracle_normals(77, 4, self.N)

    def test_ramp_is_cached_and_read_only(self):
        ramp = core._gamma_ramp(64)
        assert core._gamma_ramp(64) is ramp and not ramp.flags.writeable
        with pytest.raises(ValueError):
            ramp[0] = 1
        assert ramp.tobytes() == (np.arange(64, dtype=np.uint64) * _GAMMA).tobytes()

    @staticmethod
    def _record_scratch(monkeypatch):
        """Patch the chunk filler to assert that no scratch is in two fills at
        once; returns the shapes of the scratch each fill got."""
        fill = core._fill_chunk
        lock, in_use, shapes = threading.Lock(), set(), []

        def exclusive_fill(out, seed, counter, lo, hi, ramp, scratch):
            with lock:
                assert id(scratch) not in in_use
                in_use.add(id(scratch))
                shapes.append(scratch.shape)
            try:
                time.sleep(0)  # lets another thread start a fill meanwhile
                fill(out, seed, counter, lo, hi, ramp, scratch)
            finally:
                with lock:
                    in_use.discard(id(scratch))

        monkeypatch.setattr(core, "_fill_chunk", exclusive_fill)
        return shapes

    @pytest.mark.parametrize("chunk", [2**12, 2**14, 2**16])
    def test_chunk_size_changes_no_value(self, monkeypatch, oracle, chunk):
        monkeypatch.setattr(core, "_CHUNK_PAIRS", chunk)
        shapes = self._record_scratch(monkeypatch)
        assert RngStream(77, 4).normals(self.N).tobytes() == oracle.tobytes()
        block = min(chunk, core._FILL_PAIRS)
        assert set(shapes) == {(2, 2 * block)}

    def test_threads_drawing_at_once_never_share_a_scratch(self, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_PAIRS", 1024)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        shapes = self._record_scratch(monkeypatch)
        n = 12 * 1024 + 5  # seven chunks, each of one fill block
        seeds = (1, 2, 3, 4)  # with their helpers, more threads than the two CPUs here
        barrier = threading.Barrier(len(seeds))
        results = {}

        def draw(seed):
            barrier.wait(60)
            results[seed] = RngStream(seed).normals(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(shapes) == 7 * len(seeds)
        for seed, got in results.items():
            assert got.tobytes() == _oracle_normals(seed, 0, n).tobytes()


class TestStartedSingleChunk:
    """A started draw of one chunk and at least one fill block gets one helper
    when a second CPU is usable; the joining thread fills the chunk if the
    helper has not taken it."""

    N = 2 * core._FILL_PAIRS + 1  # one chunk: a fill block and one pair more

    @staticmethod
    def _spy_pool(monkeypatch, pool=None):
        pool = pool or core.POOL
        submitted = []

        class SpyPool:
            def submit(self, fn, *args):
                submitted.append(fn)
                return pool.submit(fn, *args)

        monkeypatch.setattr(core, "POOL", SpyPool())
        return submitted

    @pytest.mark.parametrize("cpus,helpers", [(2, 1), (4, 1), (1, 0)])
    def test_helpers_per_usable_cpu(self, monkeypatch, cpus, helpers):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        submitted = self._spy_pool(monkeypatch)
        rng = RngStream(5, 2)
        rng.start_normals(self.N, np.float32)
        got = rng.normals(self.N, np.float32)
        assert len(submitted) == helpers
        assert got.tobytes() == _oracle_normals(5, 2, self.N).astype(np.float32).tobytes()

    def test_joiner_fills_a_chunk_no_helper_took(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        gate = threading.Event()
        pool = ThreadPoolExecutor(1)
        try:
            pool.submit(gate.wait, 60)  # keeps the only helper thread busy
            submitted = self._spy_pool(monkeypatch, pool)
            rng = RngStream(5, 2)
            rng.start_normals(self.N)
            got = rng.normals(self.N)
        finally:
            gate.set()
            pool.shutdown(wait=True)
        assert len(submitted) == 1
        assert got.tobytes() == _oracle_normals(5, 2, self.N).tobytes()


class TestJoinedAtOnce:
    """A draw that ``normals`` joins without a start fills its first chunk on
    the calling thread straight away, so it gets a helper only for the chunks
    after it: ``min(chunks - 1, usable CPUs - 1)``."""

    ONE_CHUNK = 2 * core._FILL_PAIRS + 1  # a fill block and one pair more
    THREE_CHUNKS = 4 * _CHUNK + 1  # two whole chunks and one pair

    @pytest.fixture
    def submitted(self, monkeypatch):
        return TestStartedSingleChunk._spy_pool(monkeypatch)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_one_chunk_submits_nothing(self, monkeypatch, submitted, cpus):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        got = RngStream(5, 2).normals(self.ONE_CHUNK, np.float32)
        assert submitted == []
        assert got.tobytes() == _oracle_normals(5, 2, self.ONE_CHUNK).astype(np.float32).tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_three_chunks_get_a_helper_per_further_chunk(self, monkeypatch, submitted, cpus):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        assert -(-((self.THREE_CHUNKS + 1) // 2) // _CHUNK) == 3
        rng = RngStream(5, 2)
        got = rng.normals(self.THREE_CHUNKS)
        assert len(submitted) == min(2, cpus - 1)
        assert got.tobytes() == _oracle_normals(5, 2, self.THREE_CHUNKS).tobytes()
        assert rng.counter == 2 + self.THREE_CHUNKS + 1
