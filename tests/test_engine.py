from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from flowsteer import EditMask, RngStream, TimeGrid, VideoLatent
from flowsteer.amm import AmmConfig
from flowsteer.backends import BackendRegistry, GaussianCondition, make_toy_condition_pair
from flowsteer.engine import (
    EditConfig,
    blend_baseline,
    couple_target,
    editing_signal,
    run_edit,
)
from flowsteer.errors import NonFiniteStateError, ShapeMismatchError
from flowsteer.sar import SarConfig, TargetTokenSet

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
        grid=grid or TimeGrid.uniform(25, skip=2),
        sar=sar or SarConfig(),
        amm=amm or AmmConfig(),
        mask=mask or full_mask(),
        j_tar=j_tar or TargetTokenSet.of(0),
        **kw,
    )


class FixedRng:
    """Stand-in stream that replays one fixed normal sequence every call."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.counter = 0

    def normals(self, n):
        assert n == self.values.size
        self.counter += n
        return self.values.copy()


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
        dv = editing_signal(x.data, x.data, 0.8, cfg, reg, RngStream(1))[0]
        assert np.array_equal(dv, np.zeros(DIMS, dtype=np.float32))

    def test_two_equal_draws_match_single_draw(self, make_latent):
        reg = gaussian_registry(0.0, 1.0)
        x = make_latent()
        noise = RngStream(3).normals(int(np.prod(DIMS)))
        one = editing_signal(x.data, x.data, 0.6, make_cfg(n_avg=1), reg, FixedRng(noise))[0]
        two = editing_signal(x.data, x.data, 0.6, make_cfg(n_avg=2), reg, FixedRng(noise))[0]
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
        dv = editing_signal(z_edit.data, x.data, t, cfg, reg, FixedRng(noise))[0]

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
            grid=TimeGrid.uniform(1),
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

        cfg2 = make_cfg(grid=TimeGrid.uniform(10, skip=2), record_states=True)
        cfg3 = replace(cfg2, grid=TimeGrid.uniform(10, skip=3))
        _, rep2 = run_edit(x, cfg2, reg)
        _, rep3 = run_edit(x, cfg3, reg)
        common = {r.index: r for r in rep2.steps}
        for rec in rep3.steps:
            assert np.array_equal(rec.z_src, common[rec.index].z_src)

    def test_active_step_count_follows_skip(self, make_latent):
        reg = gaussian_registry(0.0, 0.5)
        x = make_latent()
        for skip in (0, 2, 5):
            cfg = make_cfg(grid=TimeGrid.uniform(10, skip=skip))
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
            grid=TimeGrid.uniform(200, skip=2),
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
            grid=TimeGrid.uniform(3),
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
            grid=TimeGrid.uniform(3),
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
            grid=TimeGrid.uniform(6, skip=2),
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
        cfg = make_cfg(grid=TimeGrid.uniform(6, skip=2), mask=EditMask(bits), j_tar=j_tar, seed=4)
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
            grid=TimeGrid.uniform(6, skip=2), mask=mask, seed=3, n_avg=2, baseline_blend=True
        )
        j_tar = TargetTokenSet.of(1)
        src, tar = make_toy_condition_pair(5, tokens=4, query_dim=3, channels=2, j_tar=j_tar)
        toy = BackendRegistry(src, tar)
        toy_cfg = make_cfg(grid=TimeGrid.uniform(10, skip=2), mask=mask, j_tar=j_tar, seed=4)

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
        finally:
            tracer.remove()

        assert Counter(span[0] for span in tracer.spans[:split]) == self.GAUSS_SPANS
        assert Counter(span[0] for span in tracer.spans[split:]) == self.TOY_SPANS
        # t = 0.8, 0.7, 0.6 pass the 0.6 gate, once per sample of the batch of 2
        notes = [span[5] for span in tracer.spans if span[0] == "sar.apply_sar"]
        assert notes == [True] * 6 + [False] * 10
        steps = [span[5] for span in tracer.spans if span[0] == "engine.run_edit"]
        assert steps == [4, 8]
        for owner, saved in zip(owners, before):
            after = vars(owner)
            assert after.keys() == saved.keys()
            assert all(after[name] is value for name, value in saved.items())
