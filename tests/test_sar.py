import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsteer import EditMask, RngStream
from flowsteer import sar
from flowsteer.errors import ShapeMismatchError
from flowsteer.sar import (
    SarConfig,
    TargetTokenSet,
    apply_sar,
    spatiotemporal_modulation,
    text_token_modulation,
)

from conftest import ORACLE_TOKENS, ORACLE_VOXELS, special_logits


def logits_from(rows):
    return np.asarray(rows, dtype=np.float64)


def mask_from(bits, dims=None):
    arr = np.asarray(bits, dtype=np.uint8)
    if dims is None:
        dims = (arr.size, 1, 1)
    return EditMask(arr.reshape(dims))


def random_case(rng: RngStream, voxels: int, tokens: int):
    """(L, N) logits, an N-voxel mask and a target token set."""
    logits = rng.normals(voxels * tokens).reshape(tokens, voxels)
    mask_bits = (rng.uniforms(voxels) < 0.5).astype(np.uint8)
    n_tar = 1 + int(rng.uniforms(1)[0] * (tokens - 1) * 0.5)
    order = np.argsort(rng.uniforms(tokens))
    j_tar = TargetTokenSet(frozenset(int(i) for i in order[:n_tar]))
    return logits_from(logits), mask_from(mask_bits), j_tar


def random_pass_case(rng: RngStream, voxels: int, tokens: int):
    """A random case as the passes see it: logits, mask columns, target rows."""
    logits, mask, j_tar = random_case(rng, voxels, tokens)
    return logits, mask.flat(), j_tar.token_selector(tokens)


class TestTextTokenModulation:
    def test_beta_zero_is_identity(self):
        logits, cols, tar = random_pass_case(RngStream(1), 8, 4)
        out = text_token_modulation(logits, cols, tar, 0.0)
        assert out is logits

    def test_beta_one_assigns_extrema(self):
        logits, cols, tar = random_pass_case(RngStream(2), 8, 4)
        out = text_token_modulation(logits, cols, tar, 1.0)
        expect = np.where(
            tar[:, None],
            logits[:, cols].max(axis=0, keepdims=True),
            logits[:, cols].min(axis=0, keepdims=True),
        )
        assert np.array_equal(out[:, cols], expect)
        assert np.array_equal(out[:, ~cols], logits[:, ~cols])

    def test_hand_case(self):
        # masked voxel column [0.2, 0.5, 0.3], first token is the target, beta1 = 0.3:
        # target 0.2 + 0.3*(0.5 - 0.2) = 0.29, others pulled toward min 0.2
        logits = logits_from([[0.2], [0.5], [0.3]])
        out = text_token_modulation(logits, np.array([True]), np.array([True, False, False]), 0.3)
        assert np.allclose(out, [[0.29], [0.41], [0.27]], atol=1e-12)

    def test_unmasked_rows_untouched(self):
        logits = logits_from([[0.2], [0.5], [0.3]])
        out = text_token_modulation(logits, np.array([False]), np.array([True, False, False]), 0.9)
        assert out is logits

    def test_empty_target_set_rejected(self):
        with pytest.raises(ValueError):
            TargetTokenSet(frozenset())


def reduce_text_token_modulation(logits, rows, tar_cols, beta1):
    """The row-major (N, L) ufunc.reduce form of text_token_modulation, kept as the oracle."""
    sub = logits[rows]
    row_max = sub.max(axis=1, keepdims=True)
    row_min = sub.min(axis=1, keepdims=True)
    pulled = np.where(tar_cols[None, :], row_max, row_min)
    out = logits.copy()
    out[rows] = (1.0 - beta1) * sub + beta1 * pulled
    return out


def assert_same_bits(new, old, zero_sign_free=False):
    """Byte equality; with ``zero_sign_free`` a zero may differ in sign only."""
    if not zero_sign_free:
        assert new.tobytes() == old.tobytes()
        return
    assert np.array_equal(new == 0, old == 0)
    nonzero = old != 0  # NaN included
    assert new[nonzero].tobytes() == old[nonzero].tobytes()


def token_major(logits):
    """The (L, N) token-major copy of a row-major (N, L) logit matrix."""
    return np.ascontiguousarray(logits.T)


def pulled_extrema(logits, tar_rows):
    """The (L, N) array of token extrema that ``text_token_modulation`` pulls
    every column of token-major ``logits`` toward: each target row holds the
    column max, each other row the column min."""
    seen = []
    step = sar._convex_step

    def spy(sub, pulled, beta):
        seen.append(pulled.copy())
        return step(sub, pulled, beta)

    cols = np.ones(logits.shape[1], dtype=bool)
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(sar, "_convex_step", spy)
        text_token_modulation(logits, cols, tar_rows, 0.5)
    (pulled,) = seen
    return pulled


class TestRowExtreme:
    # numpy's reduction over the token axis of the token-major array equals its
    # reduction of the row-major matrix bit for bit, except the sign of a zero
    # extremum from a +0/-0 tie: numpy's SIMD reduction resolves that tie
    # differently when the row length is 1 plus a multiple of its vector width
    # (L = 17 on AVX-512), so signed-zero rows are compared up to zero signs.
    @pytest.mark.parametrize("voxels", ORACLE_VOXELS)
    @pytest.mark.parametrize("kind", ["finite", "nonfinite", "signed_zero"])
    def test_matches_reduce(self, kind, voxels):
        for tokens in ORACLE_TOKENS:
            logits = special_logits(voxels, tokens, kind)
            for ufunc, target in ((np.maximum, True), (np.minimum, False)):
                tar_rows = np.full(tokens, target)
                got = pulled_extrema(token_major(logits), tar_rows)
                want = ufunc.reduce(logits, axis=1)
                assert got.shape == (tokens, voxels) and got.dtype == logits.dtype
                for row in got:
                    assert_same_bits(row, want, zero_sign_free=kind == "signed_zero")

    def test_leaves_input_unchanged(self):
        logits = token_major(special_logits(320, 9, "finite"))
        before = logits.copy()
        rows = np.arange(320) % 3 != 0
        tar = TargetTokenSet.of(0, 4).token_selector(9)
        out = text_token_modulation(logits, rows, tar, 0.3)
        assert out is not logits
        assert logits.tobytes() == before.tobytes()

    @pytest.mark.parametrize("voxels", ORACLE_VOXELS)
    @pytest.mark.parametrize("kind", ["finite", "nonfinite", "signed_zero"])
    def test_text_token_modulation_matches_reduce_formula(self, kind, voxels):
        rows = np.arange(voxels) % 4 != 1
        for tokens in ORACLE_TOKENS:
            logits = special_logits(voxels, tokens, kind, seed=1)
            tar = TargetTokenSet.of(0, tokens // 2).token_selector(tokens)
            with np.errstate(all="ignore"):
                got = text_token_modulation(token_major(logits), rows, tar, 0.3)
                want = token_major(reduce_text_token_modulation(logits, rows, tar, 0.3))
            assert got.dtype == want.dtype
            assert_same_bits(got, want, zero_sign_free=kind == "signed_zero")


class TestSpatiotemporalModulation:
    def test_beta_zero_is_identity(self):
        logits, cols, tar = random_pass_case(RngStream(3), 8, 4)
        out = spatiotemporal_modulation(logits, cols, tar, 0.0)
        assert out is logits

    def test_hand_case(self):
        # target token row [1, 4], voxel 0 masked, voxel 1 not, beta2 = 0.5
        logits = logits_from([[1.0, 4.0]])
        out = spatiotemporal_modulation(logits, np.array([True, False]), np.array([True]), 0.5)
        assert np.allclose(out, [[2.5, 2.5]], atol=1e-12)

    def test_beta_one_assigns_extrema(self):
        logits, cols, tar = random_pass_case(RngStream(4), 10, 3)
        out = spatiotemporal_modulation(logits, cols, tar, 1.0)
        for j in np.flatnonzero(tar):
            row = logits[j]
            assert np.array_equal(out[j, cols], np.full(cols.sum(), row.max()))
            assert np.array_equal(out[j, ~cols], np.full((~cols).sum(), row.min()))

    def test_non_target_columns_untouched(self):
        logits, cols, _ = random_pass_case(RngStream(5), 10, 4)
        out = spatiotemporal_modulation(logits, cols, TargetTokenSet.of(1).token_selector(4), 0.7)
        keep = [0, 2, 3]
        assert np.array_equal(out[keep], logits[keep])

    def test_in_place_writes_its_input_with_the_same_bits(self):
        logits, cols, tar = random_pass_case(RngStream(5), 10, 4)
        want = spatiotemporal_modulation(logits, cols, tar, 0.7)
        inout = logits.copy()
        assert spatiotemporal_modulation(inout, cols, tar, 0.7, in_place=True) is inout
        assert inout.tobytes() == want.tobytes()


def scalar_reference_sar(logits, mask_bits, targets, beta1, beta2):
    """Independent entry-by-entry evaluation of both modulation formulas on
    (L, N) logits, returned as (L, N)."""
    a = np.array(logits, dtype=np.float64).T
    n, tokens = a.shape
    a1 = a.copy()
    for i in range(n):
        if mask_bits[i] != 1:
            continue
        row_max, row_min = max(a[i]), min(a[i])
        for j in range(tokens):
            if j in targets:
                a1[i, j] = a[i, j] + beta1 * (row_max - a[i, j])
            else:
                a1[i, j] = a[i, j] - beta1 * (a[i, j] - row_min)
    a2 = a1.copy()
    for j in targets:
        col_max, col_min = max(a1[:, j]), min(a1[:, j])
        for i in range(n):
            if mask_bits[i] == 1:
                a2[i, j] = a1[i, j] + beta2 * (col_max - a1[i, j])
            else:
                a2[i, j] = a1[i, j] - beta2 * (a1[i, j] - col_min)
    return a2.T


class TestApplySar:
    def test_gated_out_below_tau(self):
        logits, mask, j_tar = random_case(RngStream(6), 6, 3)
        cfg = SarConfig(beta1=0.5, beta2=0.5, tau_fraction=0.6)
        out = apply_sar(logits, mask, j_tar, cfg, t=0.5)
        assert out is logits

    def test_refines_at_exactly_tau(self):
        # every grid starts at t = 1, so the window opens at t == tau_fraction itself
        logits, mask, j_tar = random_case(RngStream(6), 6, 3)
        cfg = SarConfig(beta1=0.5, beta2=0.5, tau_fraction=0.6)
        out = apply_sar(logits, mask, j_tar, cfg, t=0.6)
        ref = scalar_reference_sar(logits, mask.flat().astype(int), j_tar.indices, 0.5, 0.5)
        assert out is not logits and np.allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_gated_out_just_below_tau(self):
        logits, mask, j_tar = random_case(RngStream(6), 6, 3)
        cfg = SarConfig(beta1=0.5, beta2=0.5, tau_fraction=0.6)
        assert apply_sar(logits, mask, j_tar, cfg, t=np.nextafter(0.6, 0)) is logits

    def test_zero_strengths_identity_inside_window(self):
        logits, mask, j_tar = random_case(RngStream(7), 6, 3)
        cfg = SarConfig(beta1=0.0, beta2=0.0)
        out = apply_sar(logits, mask, j_tar, cfg, t=0.9)
        assert out is logits

    def test_layer_gating(self):
        logits, mask, j_tar = random_case(RngStream(8), 6, 3)
        cfg = SarConfig(layers=frozenset({2}))
        out = apply_sar(logits, mask, j_tar, cfg, t=0.9, layer=0)
        assert out is logits
        out2 = apply_sar(logits, mask, j_tar, cfg, t=0.9, layer=2)
        assert not np.array_equal(out2, logits)

    def test_matches_scalar_reference(self):
        logits = logits_from([[0.2, 0.4], [-0.1, 0.9]])
        mask = mask_from([1, 0])
        j_tar = TargetTokenSet.of(0)
        cfg = SarConfig(beta1=0.3, beta2=0.3, tau_fraction=0.6)
        out = apply_sar(logits, mask, j_tar, cfg, t=1.0)
        ref = scalar_reference_sar(logits, [1, 0], {0}, 0.3, 0.3)
        assert np.allclose(out, ref, atol=1e-15)

    # about one example in 128 draws an all-zero mask; the warning itself is
    # checked by test_empty_mask_warns_but_applies
    @pytest.mark.filterwarnings("ignore:attention refinement with an all-zero mask")
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), b1=st.floats(0, 1), b2=st.floats(0, 1))
    def test_random_cases_match_scalar_reference(self, seed, b1, b2):
        logits, mask, j_tar = random_case(RngStream(seed), 7, 4)
        cfg = SarConfig(beta1=b1, beta2=b2)
        out = apply_sar(logits, mask, j_tar, cfg, t=1.0)
        ref = scalar_reference_sar(logits, mask.flat().astype(int), j_tar.indices, b1, b2)
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_empty_mask_warns_but_applies(self):
        logits, _, j_tar = random_case(RngStream(9), 6, 3)
        empty = mask_from([0] * 6)
        cfg = SarConfig(beta1=0.3, beta2=0.3)
        with pytest.warns(UserWarning, match="all-zero mask"):
            out = apply_sar(logits, empty, j_tar, cfg, t=1.0)
        # step 2 still pulls target columns toward their minima
        j = sorted(j_tar.indices)[0]
        assert not np.array_equal(out[j], logits[j])

    def test_mask_voxel_count_must_match_logit_rows(self):
        logits, _, j_tar = random_case(RngStream(10), 6, 3)
        mask = mask_from([1, 0] * 4, dims=(2, 2, 2))
        with pytest.raises(ShapeMismatchError, match="mask has 8 voxels but .* has 6 columns"):
            apply_sar(logits, mask, j_tar, SarConfig(), t=1.0)


class TestInvariants:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), b1=st.floats(0, 1))
    def test_step1_range_preservation(self, seed, b1):
        logits, cols, tar = random_pass_case(RngStream(seed), 9, 5)
        out = text_token_modulation(logits, cols, tar, b1)
        lo = logits.min(axis=0, keepdims=True)
        hi = logits.max(axis=0, keepdims=True)
        eps = 4 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        assert (out >= lo - eps).all() and (out <= hi + eps).all()

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), b2=st.floats(0, 1))
    def test_step2_range_preservation(self, seed, b2):
        logits, cols, tar = random_pass_case(RngStream(seed), 9, 5)
        out = spatiotemporal_modulation(logits, cols, tar, b2)
        for j in np.flatnonzero(tar):
            row = logits[j]
            eps = 4 * np.spacing(max(abs(row.min()), abs(row.max())))
            assert (out[j] >= row.min() - eps).all()
            assert (out[j] <= row.max() + eps).all()

    def test_step1_contrast_monotonicity(self):
        rng = RngStream(11)
        for _ in range(50):
            logits, cols, tar_rows = random_pass_case(rng, 8, 5)
            out = text_token_modulation(logits, cols, tar_rows, 0.4)
            tar = np.flatnonzero(tar_rows)[0]
            non = np.flatnonzero(~tar_rows)[0]
            for i in np.nonzero(cols)[0]:
                before = logits[tar, i] - logits[non, i]
                after = out[tar, i] - out[non, i]
                assert after >= before - 1e-12

    def test_locality(self):
        logits, mask, j_tar = random_case(RngStream(12), 10, 5)
        cfg = SarConfig(beta1=0.8, beta2=0.8)
        out = apply_sar(logits, mask, j_tar, cfg, t=1.0)
        cols = mask.flat()
        non_target = ~j_tar.token_selector(5)
        untouched = out[np.ix_(non_target, ~cols)]
        assert np.array_equal(untouched, logits[np.ix_(non_target, ~cols)])

    def test_step1_monotone_in_entry(self):
        # raising an interior entry (extrema fixed) never lowers its output
        base = logits_from([[0.0], [0.4], [1.0]])
        bumped = logits_from([[0.0], [0.5], [1.0]])
        cols, tar = np.array([True]), np.array([False, True, False])
        lo = text_token_modulation(base, cols, tar, 0.7)[1, 0]
        hi = text_token_modulation(bumped, cols, tar, 0.7)[1, 0]
        assert hi >= lo

    def test_softmax_of_modulated_logits_is_probability(self):
        from flowsteer.backends import _softmax_tokens

        logits, mask, j_tar = random_case(RngStream(13), 12, 6)
        out = apply_sar(logits, mask, j_tar, SarConfig(beta1=0.9, beta2=0.9), t=1.0)
        probs = _softmax_tokens(out, np.empty_like(out), np.empty(12), np.empty((8, 12)))
        assert (probs >= 0).all()
        assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-6)
