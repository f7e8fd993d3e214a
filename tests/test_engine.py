import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flowsteer import EditMask, RngStream, TimeGrid, VideoLatent, sample_gaussian
from flowsteer import core, engine
from flowsteer.amm import AmmConfig, amplify, contrast_map, gamma_f
from flowsteer.backends import (
    BackendRegistry,
    GaussianCondition,
    VelocityQuery,
    make_toy_condition_pair,
)
from flowsteer.core import interpolate_source
from flowsteer.diagnostics import binarize_signal, iou, magnitude_stats
from flowsteer.engine import (
    EditConfig,
    EditReport,
    StepRecord,
    _Workspace,
    blend_baseline,
    couple_target,
    editing_signal,
    run_edit,
)
from flowsteer.errors import NonFiniteStateError, ShapeMismatchError
from flowsteer.sar import SarConfig, TargetTokenSet, apply_sar

from conftest import random_latent

DIMS = (1, 2, 3, 4, 4)


def const_latent(value, dims=DIMS):
    return VideoLatent(np.full(dims, value, dtype=np.float32))


def full_mask(dims=DIMS):
    return EditMask(np.ones(dims[2:], dtype=np.uint8))


def gaussian_registry(src_mean=0.0, tar_mean=0.0, scale=1.0, channels=2):
    return BackendRegistry(
        GaussianCondition(np.full(channels, src_mean, dtype=np.float32), scale),
        GaussianCondition(np.full(channels, tar_mean, dtype=np.float32), scale),
    )


def make_cfg(
    grid=None,
    mask=None,
    sar=None,
    amm=None,
    j_tar=None,
    **kw,
):
    return EditConfig(
        grid=grid or TimeGrid(25, skip=2),
        sar=sar or SarConfig(),
        amm=amm or AmmConfig(),
        mask=mask or full_mask(),
        j_tar=j_tar or TargetTokenSet.of(0),
        **kw,
    )


class TestCoupleTarget:
    def test_at_source_returns_pseudo_source_exactly(self, make_latent):
        x = make_latent()
        z_src = make_latent()
        out = couple_target(x.data, z_src.data, x.data)
        assert np.array_equal(out, z_src.data)

    def test_zero_noise_endpoint_returns_trajectory(self):
        # representable values keep the identity exact in floats too
        z_edit, x = const_latent(3.0), const_latent(2.0)
        out = couple_target(z_edit.data, x.data, x.data)
        assert np.array_equal(out, z_edit.data)

    def test_constant_hand_case(self):
        out = couple_target(const_latent(3.0).data, const_latent(5.0).data, const_latent(2.0).data)
        assert np.array_equal(out, const_latent(6.0).data)

    def test_shape_mismatch(self, make_latent):
        with pytest.raises(ShapeMismatchError):
            couple_target(make_latent().data, make_latent((1, 2, 3, 4, 5)).data, make_latent().data)


class TestBlendBaseline:
    def test_full_mask_keeps_edit(self, make_latent):
        z, ref = make_latent(), make_latent()
        out = blend_baseline(z.data, ref.data, full_mask())
        assert np.array_equal(out, z.data)

    def test_empty_mask_returns_reference(self, make_latent):
        z, ref = make_latent(), make_latent()
        mask = EditMask(np.zeros(DIMS[2:], dtype=np.uint8))
        out = blend_baseline(z.data, ref.data, mask)
        assert np.array_equal(out, ref.data)

    def test_half_mask_hand_case(self):
        bits = np.zeros(DIMS[2:], dtype=np.uint8)
        bits[:, :2, :] = 1
        out = blend_baseline(const_latent(1.0).data, const_latent(9.0).data, EditMask(bits))
        assert (out[:, :, :, :2, :] == 1.0).all()
        assert (out[:, :, :, 2:, :] == 9.0).all()


class TestEditingSignal:
    def test_identical_conditions_zero_signal(self, make_latent):
        reg = gaussian_registry(0.4, 0.4)
        cfg = make_cfg(sar=SarConfig(beta1=0.0, beta2=0.0))
        x = make_latent()
        noise = sample_gaussian(RngStream(1), DIMS)
        dv = editing_signal(x.data, x.data, 0.8, cfg, reg, [noise], _Workspace(DIMS))[0]
        assert np.array_equal(dv, np.zeros(DIMS, dtype=np.float32))

    def test_two_equal_draws_match_single_draw(self, make_latent):
        reg = gaussian_registry(0.0, 1.0)
        x = make_latent()
        noise = sample_gaussian(RngStream(3), DIMS)
        # each draw is used up, so every call gets copies of the one draw
        one = editing_signal(
            x.data, x.data, 0.6, make_cfg(n_avg=1), reg, [noise.copy()], _Workspace(DIMS)
        )[0]
        two = editing_signal(
            x.data, x.data, 0.6, make_cfg(n_avg=2), reg, [noise.copy(), noise.copy()],
            _Workspace(DIMS),
        )[0]
        assert np.array_equal(one, two)

    def test_gaussian_signal_matches_scalar_derivation(self):
        # independent per-entry evaluation of both conditional expectations
        mu_s, delta, s, t = 0.3, 0.9, 1.25, 0.55
        reg = gaussian_registry(mu_s, mu_s + delta, s)
        rng = RngStream(7)
        x = random_latent(rng, DIMS)
        z_edit = random_latent(rng, DIMS)
        noise = RngStream(11).normals(int(np.prod(DIMS)))
        cfg = make_cfg(sar=SarConfig(beta1=0.0, beta2=0.0))
        draw = noise.astype(np.float32).reshape(DIMS)
        dv = editing_signal(z_edit.data, x.data, t, cfg, reg, [draw], _Workspace(DIMS))[0]

        def scalar_v(z, mu):
            denom = (1 - t) ** 2 * s**2 + t**2
            r = (z - (1 - t) * mu) / denom
            return (t - (1 - t) * s**2) * r - mu

        z_src = (1 - t) * x.data.astype(np.float64) + t * noise.reshape(DIMS)
        z_tar = (z_edit.data.astype(np.float64) - x.data) + z_src
        expected = scalar_v(z_tar, mu_s + delta) - scalar_v(z_src, mu_s)
        assert np.allclose(dv, expected, rtol=1e-4, atol=1e-5)


class TestRunEdit:
    def test_null_edit_fixed_point_gaussian(self, make_latent):
        reg = gaussian_registry(0.7, 0.7)
        cfg = make_cfg()  # refinement and amplification at defaults, both on
        x = make_latent()
        result, report = run_edit(x, cfg, reg)
        assert result.data.tobytes() == x.data.tobytes()
        assert len(report.steps) == 23

    def test_null_edit_fixed_point_toy_backend(self, make_latent):
        j_tar = TargetTokenSet.of(1)
        src, _ = make_toy_condition_pair(5, tokens=4, query_dim=3, channels=2, j_tar=j_tar)
        reg = BackendRegistry(src, src)
        # zero strengths: the hook runs through the full path as an identity
        cfg = make_cfg(sar=SarConfig(beta1=0.0, beta2=0.0), j_tar=j_tar)
        x = make_latent()
        result, _ = run_edit(x, cfg, reg)
        assert result.data.tobytes() == x.data.tobytes()

    def test_toy_backend_refinement_breaks_null_edit(self, make_latent):
        # with nonzero strengths the hook shapes only the target velocity,
        # so identical conditions still produce a nonzero signal by design
        j_tar = TargetTokenSet.of(1)
        src, _ = make_toy_condition_pair(5, tokens=4, query_dim=3, channels=2, j_tar=j_tar)
        reg = BackendRegistry(src, src)
        bits = np.zeros(DIMS[2:], dtype=np.uint8)
        bits[:, :2, :] = 1
        cfg = make_cfg(sar=SarConfig(beta1=0.3, beta2=0.3), j_tar=j_tar, mask=EditMask(bits))
        x = make_latent()
        result, _ = run_edit(x, cfg, reg)
        assert not np.array_equal(result.data, x.data)

    def test_coupling_identity_bitwise_during_null_edit(self, make_latent):
        reg = gaussian_registry(0.2, 0.2)
        cfg = make_cfg(record_states=True)
        x = make_latent()
        _, report = run_edit(x, cfg, reg)
        for rec in report.steps:
            lhs = rec.z_tar - rec.z_edit_before
            rhs = rec.z_src - x.data
            assert np.array_equal(lhs, rhs)

    def test_single_step_hand_case(self):
        # one active interval from t=1 to t=0 with a pure mean shift delta:
        # the signal is -delta, the update x - (0 - 1) * (-delta) = x + delta
        delta = 0.5
        reg = gaussian_registry(0.0, delta)
        cfg = make_cfg(
            grid=TimeGrid(1),
            sar=SarConfig(beta1=0.0, beta2=0.0),
            amm=AmmConfig(gamma=0.0),
        )
        x = const_latent(2.0)
        result, report = run_edit(x, cfg, reg)
        assert np.allclose(result.data, 2.0 + delta, atol=1e-6)
        assert report.steps[0].dt == -1.0

    def test_determinism(self, make_latent):
        reg = gaussian_registry(0.0, 1.0)
        cfg = make_cfg(seed=99)
        x = make_latent()
        r1, _ = run_edit(x, cfg, reg)
        r2, _ = run_edit(x, cfg, reg)
        assert r1.data.tobytes() == r2.data.tobytes()

    def test_skip_alignment_of_step_noise(self, make_latent):
        # the same step index consumes the same noise under any skip count
        reg = gaussian_registry(0.0, 1.0)
        x = make_latent()
        from dataclasses import replace

        cfg2 = make_cfg(grid=TimeGrid(10, skip=2), record_states=True)
        cfg3 = replace(cfg2, grid=TimeGrid(10, skip=3))
        _, rep2 = run_edit(x, cfg2, reg)
        _, rep3 = run_edit(x, cfg3, reg)
        common = {r.index: r for r in rep2.steps}
        for rec in rep3.steps:
            assert np.array_equal(rec.z_src, common[rec.index].z_src)

    def test_active_step_count_follows_skip(self, make_latent):
        reg = gaussian_registry(0.0, 0.5)
        x = make_latent()
        for skip in (0, 2, 5):
            cfg = make_cfg(grid=TimeGrid(10, skip=skip))
            _, report = run_edit(x, cfg, reg)
            assert len(report.steps) == 10 - skip
            assert report.steps[0].index == 10 - skip

    def test_blend_preserves_outside_mask_exactly(self, make_latent):
        reg = gaussian_registry(0.0, 2.0)
        bits = np.zeros(DIMS[2:], dtype=np.uint8)
        bits[1, 1:3, 1:3] = 1
        cfg = make_cfg(mask=EditMask(bits), baseline_blend=True)
        x = make_latent()
        result, _ = run_edit(x, cfg, reg)
        outside = ~bits.astype(bool)
        assert np.array_equal(
            result.data[:, :, outside], x.data[:, :, outside]
        )
        inside = bits.astype(bool)
        assert not np.array_equal(result.data[:, :, inside], x.data[:, :, inside])

    def test_mean_shift_property_small(self, make_latent):
        # fine-grid mean shift: displacement is spatially uniform and aligned
        delta = 0.8
        reg = gaussian_registry(0.0, delta)
        cfg = make_cfg(
            grid=TimeGrid(200, skip=2),
            sar=SarConfig(beta1=0.0, beta2=0.0),
            amm=AmmConfig(gamma=0.0),
        )
        x = make_latent()
        result, _ = run_edit(x, cfg, reg)
        move = (result.data - x.data).astype(np.float64).reshape(-1)
        direction = np.full_like(move, delta)
        cosine = move @ direction / (np.linalg.norm(move) * np.linalg.norm(direction))
        assert cosine > 0.999
        assert (move.max() - move.min()) / abs(move.mean()) < 5e-3

    def test_mask_shape_mismatch_rejected(self, make_latent):
        reg = gaussian_registry(0.0, 1.0)
        bad = EditMask(np.ones((1, 2, 2), dtype=np.uint8))
        with pytest.raises(ShapeMismatchError):
            run_edit(make_latent(), make_cfg(mask=bad), reg)

    def test_nonfinite_abort_names_step(self, make_latent):
        reg = gaussian_registry(3.0e38, -3.0e38, channels=2)
        cfg = make_cfg(
            grid=TimeGrid(3),
            sar=SarConfig(beta1=0.0, beta2=0.0),
            amm=AmmConfig(gamma=0.0),
        )
        with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError) as err:
            run_edit(make_latent(), cfg, reg)
        assert err.value.step_index >= 1

    def test_nonfinite_abort_names_exact_step(self, make_latent):
        # same run as above: the first active step already overflows
        reg = gaussian_registry(3.0e38, -3.0e38, channels=2)
        cfg = make_cfg(
            grid=TimeGrid(3),
            sar=SarConfig(beta1=0.0, beta2=0.0),
            amm=AmmConfig(gamma=0.0),
        )
        with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError) as err:
            run_edit(make_latent(), cfg, reg)
        assert err.value.step_index == 3

    def test_nonfinite_checked_before_blend(self, make_latent):
        # with an all-zero mask the blend would replace every entry by the
        # finite reference path, so only a check before it sees the overflow
        reg = gaussian_registry(3.0e38, -3.0e38, channels=2)
        cfg = make_cfg(
            grid=TimeGrid(6, skip=2),
            mask=EditMask(np.zeros(DIMS[2:], dtype=np.uint8)),
            baseline_blend=True,
        )
        with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError) as err:
            run_edit(make_latent(), cfg, reg)
        assert err.value.step_index == 4

    @pytest.mark.parametrize(("tokens", "step"), [(4, 1), (16, 3)])
    def test_attention_logit_overflow_names_step(self, tokens, step):
        # a finite but huge source overflows the attention logits; a -inf
        # logit must not drop out of the softmax as an exact zero weight
        j_tar = TargetTokenSet.of(1)
        src, tar = make_toy_condition_pair(5, tokens=tokens, query_dim=3, channels=2, j_tar=j_tar)
        reg = BackendRegistry(src, tar)
        bits = np.zeros(DIMS[2:], dtype=np.uint8)
        bits[:, :2, :] = 1
        cfg = make_cfg(grid=TimeGrid(6, skip=2), mask=EditMask(bits), j_tar=j_tar, seed=4)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError) as err:
            run_edit(const_latent(3.0e38), cfg, reg)
        assert err.value.step_index == step

    def test_bad_target_token_is_a_plain_value_error(self, make_latent):
        src, tar = make_toy_condition_pair(
            5, tokens=4, query_dim=3, channels=2, j_tar=TargetTokenSet.of(1)
        )
        reg = BackendRegistry(src, tar)
        cfg = make_cfg(j_tar=TargetTokenSet.of(9))
        with pytest.raises(ValueError, match="index 9 out of range") as err:
            run_edit(make_latent(), cfg, reg)
        assert not isinstance(err.value, NonFiniteStateError)

    def test_walks_the_grid_lazily(self, make_latent):
        # each step runs as its interval is yielded, not after the whole grid is listed
        class TwoStepsThenFail(TimeGrid):
            def intervals(self):
                steps = super().intervals()
                yield next(steps)
                yield next(steps)
                raise RuntimeError("grid gave out")

        times = []

        class Recording(BackendRegistry):
            def velocity(self, query):
                times.append(query.time)
                return super().velocity(query)

        reg = gaussian_registry(0.0, 1.0)
        recording = Recording(reg.source, reg.target)
        with pytest.raises(RuntimeError, match="grid gave out"):
            run_edit(make_latent(), make_cfg(grid=TwoStepsThenFail(5)), recording)
        assert times == [1.0, 1.0, 0.8, 0.8]


def _report_bytes(report):
    """Every field of every step record, arrays as bytes, for exact comparison."""
    rows = []
    for rec in report.steps:
        rows.append(
            {
                name: value.tobytes() if isinstance(value, np.ndarray) else value
                for name, value in vars(rec).items()
            }
        )
    return (report.seed, report.frames, report.gain, rows)


class TestDrawAhead:
    """run_edit starts each step's draws one step early. With chunks shrunk so
    that desk-size draws span several, each draw also gets a pool helper; the
    values must not change from those of draws filled inline, on the edit's
    thread."""

    @staticmethod
    def _counting_pool(monkeypatch):
        """Returns the list of (seed, counter) of the draw of every helper
        submitted to the pool."""
        submitted = []
        pool = core.POOL

        class CountingPool:
            def submit(self, fn, *args):
                draw = fn.__self__
                submitted.append((draw.seed, draw.counter))
                return pool.submit(fn, *args)

        monkeypatch.setattr(core, "POOL", CountingPool())
        return submitted

    @classmethod
    def _force_multi_chunk(cls, monkeypatch):
        """Shrink the RNG chunks and fix two workers per draw; returns the list
        of (seed, counter) of the draw of every helper submitted to the pool."""
        monkeypatch.setattr(core, "_CHUNK_PAIRS", 8)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        return cls._counting_pool(monkeypatch)

    def _blend_cfg(self):
        bits = np.zeros(DIMS[2:], dtype=np.uint8)
        bits[:, 1:3, :] = 1
        return make_cfg(
            grid=TimeGrid(8, skip=3),
            mask=EditMask(bits),
            seed=21,
            n_avg=2,
            baseline_blend=True,
            record_states=True,
            record_contrast=True,
        )

    def _case(self, backend):
        cfg = self._blend_cfg()
        if backend == "gaussian":
            return gaussian_registry(0.0, 1.0), cfg
        j_tar = TargetTokenSet.of(1)
        src, tar = make_toy_condition_pair(5, tokens=4, query_dim=3, channels=2, j_tar=j_tar)
        return BackendRegistry(src, tar), replace(cfg, j_tar=j_tar)

    def _check_against_inline(self, x, cfg, reg, monkeypatch):
        assert (x.data.size + 1) // 2 < core._FILL_PAIRS  # below one fill block: no helper
        inline_result, inline_report = run_edit(x, cfg, reg)

        submitted = self._force_multi_chunk(monkeypatch)
        seen = []
        signal = engine.editing_signal

        def counting_signal(*args):
            seen.append(len(submitted))
            return signal(*args)

        monkeypatch.setattr(engine, "editing_signal", counting_signal)
        ahead_result, ahead_report = run_edit(x, cfg, reg)
        # steps 5..1 are active, two draws each of six chunks, one helper per draw;
        # each step computes with the next step's draws started
        assert seen == [4, 6, 8, 10, 10]
        run_rng = RngStream(cfg.seed)
        seeds = [run_rng.substream(index).seed for index in (5, 4, 3, 2, 1)]
        assert submitted == [(seed, counter) for seed in seeds for counter in (0, 96)]
        assert ahead_result.data.tobytes() == inline_result.data.tobytes()
        assert _report_bytes(ahead_report) == _report_bytes(inline_report)
        # the result owns its buffer: a later run reuses none of it
        run_edit(x, cfg, reg)
        assert ahead_result.data.tobytes() == inline_result.data.tobytes()

    @pytest.mark.parametrize("backend", ["gaussian", "toy"])
    def test_matches_inline_path_exactly(self, make_latent, monkeypatch, backend):
        reg, cfg = self._case(backend)
        self._check_against_inline(make_latent(), cfg, reg, monkeypatch)

    @pytest.mark.parametrize("backend", ["gaussian", "toy"])
    def test_every_buffer_reused_matches_inline_path(self, make_latent, monkeypatch, backend):
        """No blend and no recorded states: every noise and state buffer is reused."""
        reg, cfg = self._case(backend)
        cfg = replace(cfg, baseline_blend=False, record_states=False)
        self._check_against_inline(make_latent(), cfg, reg, monkeypatch)

    def test_toy_size_draws_ahead_with_a_second_cpu(self, make_latent, monkeypatch):
        """Single-chunk draws of at least one fill block, sizes as shipped: every
        step's draws, step 0's too, get one helper each when a second CPU is
        usable and none without one; a draw below one fill block gets no helper
        and asks nothing of the CPU count."""
        dims = (1, 2, 4, 64, 64)
        x = random_latent(RngStream(6), dims)
        assert (x.data.size + 1) // 2 == core._FILL_PAIRS < core._CHUNK_PAIRS
        j_tar = TargetTokenSet.of(1)
        src, tar = make_toy_condition_pair(5, tokens=4, query_dim=3, channels=2, j_tar=j_tar)
        reg = BackendRegistry(src, tar)
        bits = np.zeros(dims[2:], dtype=np.uint8)
        bits[:, 8:40, 16:48] = 1
        cfg = make_cfg(
            grid=TimeGrid(8, skip=4),
            mask=EditMask(bits),
            j_tar=j_tar,
            seed=21,
            n_avg=2,
            baseline_blend=True,
            record_states=True,
            record_contrast=True,
        )
        submitted = self._counting_pool(monkeypatch)
        runs, helpers = {}, {}
        for cpus in (1, 2):
            monkeypatch.setattr(core, "_usable_cpus", lambda cpus=cpus: cpus)
            submitted.clear()
            runs[cpus] = run_edit(x, cfg, reg)
            helpers[cpus] = list(submitted)
        assert helpers[1] == []
        # steps 4..1 are active; each draw of each step is started and gets a helper
        run_rng = RngStream(cfg.seed)
        seeds = [run_rng.substream(index).seed for index in (4, 3, 2, 1)]
        assert helpers[2] == [(seed, counter) for seed in seeds for counter in (0, x.data.size)]
        assert runs[2][0].data.tobytes() == runs[1][0].data.tobytes()
        assert _report_bytes(runs[2][1]) == _report_bytes(runs[1][1])

        def forbidden():
            raise AssertionError("a draw below one fill block must not query CPUs")

        monkeypatch.setattr(core, "_usable_cpus", forbidden)
        submitted.clear()
        run_edit(make_latent(), replace(cfg, mask=full_mask()), reg)
        assert submitted == []

    def test_failure_mid_run_leaves_no_draw_running(self, make_latent, monkeypatch):
        submitted = self._force_multi_chunk(monkeypatch)
        fill = core._fill_chunk
        running, in_flight = [], []

        def slow_helper_fill(out, seed, counter, lo, hi, ramp, scratch):
            if not threading.current_thread().name.startswith("flowsteer"):
                return fill(out, seed, counter, lo, hi, ramp, scratch)
            running.append(seed)
            try:
                time.sleep(0.2)  # still writing when the step before its draw fails
                fill(out, seed, counter, lo, hi, ramp, scratch)
            finally:
                running.remove(seed)

        monkeypatch.setattr(core, "_fill_chunk", slow_helper_fill)

        class PoisonedAt(BackendRegistry):
            """Gaussian pair whose velocities turn non-finite below t = 0.45."""

            def velocity(self, query):
                vel = super().velocity(query)
                if query.time > 0.45:
                    return vel
                time.sleep(0.05)  # lets the pool start the helper of the next step's draw
                in_flight.extend(running)
                return np.full_like(vel, np.nan)

        good = gaussian_registry(0.0, 1.0)
        bad = PoisonedAt(good.source, good.target)
        cfg = make_cfg(grid=TimeGrid(10, skip=4), seed=8)
        x = make_latent()
        before, _ = run_edit(x, cfg, good)
        step3 = RngStream(cfg.seed).substream(3).seed
        for _ in range(2):
            submitted.clear()
            in_flight.clear()
            with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError) as err:
                run_edit(x, cfg, bad)
            # steps 6 and 5 pass; step 4 (t = 0.4) fails while step 3's draw is being written
            assert err.value.step_index == 4
            assert len(submitted) == 4 and submitted[-1] == (step3, 0)
            assert step3 in in_flight
            assert not running
        after, _ = run_edit(x, cfg, good)
        assert after.data.tobytes() == before.data.tobytes()


def reference_run(x_src, cfg, backend):
    """The allocating step the in-place path replaced, kept as its oracle: every
    layer returns a new array, the draws accumulate onto a zero-filled array and
    the mean divides by ``n_avg``; the statistics are taken after the update."""
    frames = x_src.dims.frames
    gain = gamma_f(cfg.amm, frames)
    report = EditReport(seed=cfg.seed, frames=frames, gain=gain)
    run_rng = RngStream(cfg.seed)
    x = z_edit = x_src.data
    for index, t, t_next in cfg.grid.intervals():
        rng = run_rng.substream(index)
        noises = [sample_gaussian(rng, x.shape) for _ in range(cfg.n_avg)]

        def hook(logits, layer, t=t):
            return apply_sar(logits, cfg.mask, cfg.j_tar, cfg.sar, t, layer)

        acc = np.zeros(x.shape, dtype=np.float32)
        for draw in range(cfg.n_avg):
            noise = noises.pop(0)
            z_src = interpolate_source(x, noise, t)
            z_tar = couple_target(z_edit, z_src, x)
            v_tar = backend.velocity(VelocityQuery(z_tar, t, "target", hook))
            v_src = backend.velocity(VelocityQuery(z_src, t, "source"))
            v_tar -= v_src
            acc += v_tar
            if draw == 0:
                first = (noise, z_src, z_tar) if cfg.record_states else (noise, None, None)
        dv = acc / np.float32(cfg.n_avg)
        noise, z_src, z_tar = first
        contrast = contrast_map(dv, cfg.amm.epsilon)
        dv_amm = amplify(dv, contrast, gain)
        z_next = np.multiply(dv_amm, t_next - t)
        z_next += z_edit
        if not np.isfinite(z_next).all():
            raise NonFiniteStateError(index, "latent entries must be finite")
        if cfg.baseline_blend:
            z_next = blend_baseline(z_next, interpolate_source(x, noise, t_next), cfg.mask)
        stats = []
        for signal, per_frame in ((dv, True), (dv_amm, False)):
            mean_abs, frame_means = magnitude_stats(signal, per_frame)
            binary = binarize_signal(signal, eps=cfg.amm.epsilon)
            score = float(np.mean([iou(b, cfg.mask.data) for b in binary]))
            stats.append((mean_abs, frame_means, score))
        report.steps.append(
            StepRecord(
                index=index,
                t=t,
                dt=t_next - t,
                mean_abs=stats[0][0],
                mean_abs_amm=stats[1][0],
                per_frame_mean_abs=stats[0][1],
                iou=stats[0][2],
                iou_amm=stats[1][2],
                contrast=contrast if cfg.record_contrast else None,
                z_src=z_src,
                z_tar=z_tar,
                z_edit_before=z_edit if cfg.record_states else None,
            )
        )
        z_edit = z_next
    return VideoLatent(z_edit), report


class TestOnePath:
    """Every run takes the in-place step; it must give the bits of the
    allocating step it replaced, in every configuration and draw schedule."""

    @pytest.mark.parametrize("draws", ["in_line", "ahead", "multi_chunk"])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("record_contrast", [False, True])
    @pytest.mark.parametrize("record_states", [False, True])
    @pytest.mark.parametrize("blend", [False, True])
    @pytest.mark.parametrize("n_avg", [1, 2])
    @pytest.mark.parametrize("backend", ["gaussian", "toy"])
    def test_matches_allocating_step(
        self, monkeypatch, backend, n_avg, blend, record_states, record_contrast, batch, draws
    ):
        dims = (batch,) + DIMS[1:]
        x = random_latent(RngStream(40 + batch), dims)
        bits = np.zeros(dims[2:], dtype=np.uint8)
        bits[:, 1:3, :] = 1
        j_tar = TargetTokenSet.of(1)
        cfg = make_cfg(
            grid=TimeGrid(8, skip=2),
            mask=EditMask(bits),
            j_tar=j_tar,
            seed=21,
            n_avg=n_avg,
            baseline_blend=blend,
            record_states=record_states,
            record_contrast=record_contrast,
        )
        if backend == "gaussian":
            reg = gaussian_registry(0.0, 1.0)
        else:
            reg = BackendRegistry(
                *make_toy_condition_pair(5, tokens=4, query_dim=3, channels=2, j_tar=j_tar)
            )
        want_result, want_report = reference_run(x, cfg, reg)

        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        if draws == "ahead":  # single-chunk draws with a helper, as at toy size
            monkeypatch.setattr(core, "_FILL_PAIRS", 8)
        elif draws == "multi_chunk":
            monkeypatch.setattr(core, "_CHUNK_PAIRS", 8)
        pairs = (x.data.size + 1) // 2
        blocks = pairs // min(core._CHUNK_PAIRS, core._FILL_PAIRS)  # whole fill blocks
        chunks = -(-pairs // core._CHUNK_PAIRS)
        assert (blocks >= 1) == (draws != "in_line")
        assert (chunks > 1) == (draws == "multi_chunk")
        for _ in range(2):  # a second run must not see the first one's buffers
            result, report = run_edit(x, cfg, reg)
            assert result.data.tobytes() == want_result.data.tobytes()
            assert _report_bytes(report) == _report_bytes(want_report)

    def test_negative_zero_difference_gives_positive_zero(self):
        """At n_avg = 1 a -0 velocity difference becomes +0 in dv, as it did
        on the zero-filled accumulator (0 + -0 = +0). Over a -0 state this
        decides the sign of the result: +0 * dt + -0 is -0 (dt < 0), where a
        -0 signal would give +0 * ... = +0."""

        class SignedZeros(BackendRegistry):
            def velocity(self, query):
                value = -0.0 if query.condition == "target" else 0.0
                out = np.empty_like(query.state) if query.out is None else query.out
                out.fill(value)
                return out

        good = gaussian_registry()
        reg = SignedZeros(good.source, good.target)
        cfg = make_cfg(grid=TimeGrid(4, skip=1))
        x = const_latent(-0.0)
        noise = sample_gaussian(RngStream(2), DIMS)
        dv = editing_signal(x.data, x.data, 0.5, cfg, reg, [noise], _Workspace(DIMS))[0]
        assert not np.signbit(dv).any() and not dv.any()
        result, _ = run_edit(x, cfg, reg)
        want, _ = reference_run(x, cfg, reg)
        assert result.data.tobytes() == want.data.tobytes()
        assert np.signbit(result.data).all()


class TestWorkingSet:
    def test_multi_chunk_run_peaks_under_seven_latents(self, monkeypatch):
        """The in-place step's working set, counted by tracemalloc (no timing):
        at most 7 latent sizes above the start of a run, helpers' scratch included."""
        monkeypatch.setattr(core, "_CHUNK_PAIRS", 1024)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        dims = (1, 16, 8, 32, 32)
        x = random_latent(RngStream(3), dims)
        assert (x.data.size + 1) // 2 > core._CHUNK_PAIRS
        reg = gaussian_registry(0.0, 1.0, channels=16)
        cfg = make_cfg(grid=TimeGrid(10, skip=6), mask=full_mask(dims), seed=5)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_edit(x, cfg, reg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / x.data.nbytes <= 7.0

    # (extra config, most latent sizes): four buffers and small temporaries for the
    # plain step; the others no more than the allocating step took (8.4, 8.4, 15.4)
    BOUNDS = {
        "plain": ({}, 4.5),
        "blend": ({"baseline_blend": True}, 8.4),
        "n_avg_2": ({"n_avg": 2}, 8.4),
        "record_states": ({"record_states": True}, 15.4),
    }

    @pytest.mark.parametrize("case", sorted(BOUNDS))
    def test_step_buffers(self, monkeypatch, case):
        monkeypatch.setattr(core, "_CHUNK_PAIRS", 1024)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
        dims = (1, 16, 8, 32, 32)
        x = random_latent(RngStream(3), dims)
        reg = gaussian_registry(0.0, 1.0, channels=16)
        bits = np.zeros(dims[2:], dtype=np.uint8)
        bits[:, 8:24, :] = 1
        extra, bound = self.BOUNDS[case]
        cfg = make_cfg(grid=TimeGrid(10, skip=6), mask=EditMask(bits), seed=5, **extra)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_edit(x, cfg, reg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / x.data.nbytes <= bound


class TestTraceSeam:
    """The benchmark's tracer wraps engine globals and registry methods from
    outside; these runs pin the seams it relies on."""

    GAUSS_SPANS = {
        "amm.amplify": 4,
        "amm.contrast_map": 4,
        "backends.velocity_source": 8,
        "backends.velocity_target": 8,
        "core.interpolate_source": 12,
        "core.sample_gaussian": 8,
        "diagnostics.binarize_signal": 8,
        "diagnostics.iou": 8,
        "diagnostics.magnitude_stats": 8,
        "engine.couple_target": 8,
        "engine.run_edit": 1,
    }
    TOY_SPANS = {
        "amm.amplify": 8,
        "amm.contrast_map": 8,
        "backends.velocity_source": 8,
        "backends.velocity_target": 8,
        "core.interpolate_source": 8,
        "core.sample_gaussian": 8,
        "diagnostics.binarize_signal": 16,
        "diagnostics.iou": 32,
        "diagnostics.magnitude_stats": 16,
        "engine.couple_target": 8,
        "engine.run_edit": 1,
        "sar.apply_sar": 16,
    }
    # Gaussian, n_avg = 2 and no blend, with draws forced to span several chunks
    IN_PLACE_SPANS = {
        "amm.amplify": 4,
        "amm.contrast_map": 4,
        "backends.velocity_source": 8,
        "backends.velocity_target": 8,
        "core.interpolate_source": 8,
        "core.sample_gaussian": 8,
        "diagnostics.binarize_signal": 8,
        "diagnostics.iou": 8,
        "diagnostics.magnitude_stats": 8,
        "engine.couple_target": 8,
        "engine.run_edit": 1,
    }

    def test_spans_counts_and_restore(self, monkeypatch):
        import flowsteer
        import flowsteer.backends
        import flowsteer.config
        import flowsteer.engine
        import flowsteer.runner

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from spans import Tracer

        bits = np.zeros(DIMS[2:], dtype=np.uint8)
        bits[:, :2, :] = 1
        mask = EditMask(bits)
        gauss = gaussian_registry(0.0, 1.0)
        gauss_cfg = make_cfg(
            grid=TimeGrid(6, skip=2), mask=mask, seed=3, n_avg=2, baseline_blend=True
        )
        j_tar = TargetTokenSet.of(1)
        src, tar = make_toy_condition_pair(5, tokens=4, query_dim=3, channels=2, j_tar=j_tar)
        toy = BackendRegistry(src, tar)
        toy_cfg = make_cfg(grid=TimeGrid(10, skip=2), mask=mask, j_tar=j_tar, seed=4)

        owners = (
            flowsteer.engine,
            flowsteer.runner,
            flowsteer.config,
            flowsteer.backends.BackendRegistry,
        )
        before = [dict(vars(owner)) for owner in owners]
        tracer = Tracer()
        tracer.install(flowsteer)
        try:
            flowsteer.engine.run_edit(random_latent(RngStream(1)), gauss_cfg, gauss)
            split = len(tracer.spans)
            flowsteer.engine.run_edit(random_latent(RngStream(2), (2,) + DIMS[1:]), toy_cfg, toy)
            split_in_place = len(tracer.spans)
            with monkeypatch.context() as patch:
                patch.setattr(core, "_CHUNK_PAIRS", 8)
                in_place_cfg = replace(gauss_cfg, baseline_blend=False)
                flowsteer.engine.run_edit(random_latent(RngStream(1)), in_place_cfg, gauss)
        finally:
            tracer.remove()

        assert Counter(span[0] for span in tracer.spans[:split]) == self.GAUSS_SPANS
        assert Counter(span[0] for span in tracer.spans[split:split_in_place]) == self.TOY_SPANS
        in_place = tracer.spans[split_in_place:]
        assert Counter(span[0] for span in in_place) == self.IN_PLACE_SPANS
        # every draw, started ahead or not, is joined by the edit's own thread
        root = split_in_place
        assert tracer.spans[root][0] == "engine.run_edit"
        draws = [span for span in in_place if span[0] == "core.sample_gaussian"]
        assert all(span[3] == root and span[4] == tracer.spans[root][4] for span in draws)
        # t = 0.8, 0.7, 0.6 pass the 0.6 gate, once per sample of the batch of 2
        notes = [span[5] for span in tracer.spans if span[0] == "sar.apply_sar"]
        assert notes == [True] * 6 + [False] * 10
        steps = [span[5] for span in tracer.spans if span[0] == "engine.run_edit"]
        assert steps == [4, 8, 4]
        for owner, saved in zip(owners, before):
            after = vars(owner)
            assert after.keys() == saved.keys()
            assert all(after[name] is value for name, value in saved.items())
