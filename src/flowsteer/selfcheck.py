"""Property and oracle gate: every shipped guarantee, runnable on demand.

Each criterion is a self-contained check with its own frozen seeds. Where a
formula is being verified, the expected value comes from an independent
route: a Monte-Carlo conditional-expectation estimate for the closed-form
velocity, a scalar Euler integration written directly from the formulas
for the coupled editing dynamics, and direct set arithmetic for the metric
identities. "Bitwise" checks compare float values exactly.

The null-edit criterion runs both backends through the full loop with
refinement and amplification engaged. On the attention backend the
refinement strengths are zero for this check: the hook shapes only the
target velocity, so any nonzero strength intentionally breaks the
source/target symmetry the fixed point relies on, while zero strengths
still exercise the entire gated code path.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .amm import AmmConfig, amplify, contrast_map, gamma_f
from .backends import BackendRegistry, GaussianCondition, gaussian_velocity, make_toy_condition_pair
from .config import parse_config_text, with_out_dir
from .core import EditMask, RngStream, TimeGrid, VideoLatent
from .diagnostics import iou
from .engine import EditConfig, run_edit
from .metrics import FlowField, ToyFrameEmbedder, frame_consistency, masked_psnr, warp_error
from .runner import run_batch
from .sar import SarConfig, TargetTokenSet, spatiotemporal_modulation, text_token_modulation


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    seconds: float


def _random_sar_case(rng: RngStream, max_voxels=16, max_tokens=6):
    """(L, N) logits, mask column selector and target row selector."""
    voxels = 4 + int(rng.uniforms(1)[0] * (max_voxels - 4))
    tokens = 2 + int(rng.uniforms(1)[0] * (max_tokens - 2))
    logits = rng.normals(voxels * tokens).astype(np.float32).reshape(voxels, tokens).T
    cols = rng.uniforms(voxels) < 0.5
    n_tar = 1 + int(rng.uniforms(1)[0] * (tokens - 1) * 0.49)
    order = np.argsort(rng.uniforms(tokens))
    tar_rows = np.zeros(tokens, dtype=bool)
    tar_rows[order[:n_tar]] = True
    return logits, cols, tar_rows


def check_sar_range_preservation() -> tuple[bool, str]:
    """10,000 random cases: step 1 stays in token extrema, step 2 in voxel
    extrema, up to 4 ulp."""
    rng = RngStream(101)
    worst = 0.0
    for _ in range(10_000):
        logits, cols, tar_rows = _random_sar_case(rng)
        b1, b2 = (float(v) for v in rng.uniforms(2))
        step1 = text_token_modulation(logits, cols, tar_rows, b1)
        lo = logits.min(axis=0, keepdims=True)
        hi = logits.max(axis=0, keepdims=True)
        slack = 4 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        if ((step1 < lo - slack) | (step1 > hi + slack)).any():
            return False, "step 1 left the token extrema"
        worst = max(
            worst,
            float((lo - step1).max()),
            float((step1 - hi).max()),
        )
        step2 = spatiotemporal_modulation(step1, cols, tar_rows, b2)
        for j in np.flatnonzero(tar_rows):
            row = step1[j]
            rs = 4 * np.spacing(np.maximum(np.abs(row.min()), np.abs(row.max())))
            if (step2[j] < row.min() - rs).any() or (step2[j] > row.max() + rs).any():
                return False, "step 2 left the voxel extrema"
    return True, f"10000 cases, worst excess {worst:.2e}"


def check_sar_endpoints() -> tuple[bool, str]:
    """1,000 random maps: beta 0 is a bitwise identity, beta 1 assigns extrema."""
    rng = RngStream(202)
    for _ in range(1_000):
        logits, cols, tar_rows = _random_sar_case(rng)
        ident = text_token_modulation(logits, cols, tar_rows, 0.0)
        if ident.tobytes() != logits.tobytes():
            return False, "beta1=0 changed the logits"
        ident2 = spatiotemporal_modulation(logits, cols, tar_rows, 0.0)
        if ident2.tobytes() != logits.tobytes():
            return False, "beta2=0 changed the logits"
        pinned = text_token_modulation(logits, cols, tar_rows, 1.0)
        expect = np.where(
            tar_rows[:, None],
            logits.max(axis=0, keepdims=True),
            logits.min(axis=0, keepdims=True),
        )
        if cols.any() and not np.array_equal(pinned[:, cols], expect[:, cols]):
            return False, "beta1=1 missed the token extrema"
        pinned2 = spatiotemporal_modulation(logits, cols, tar_rows, 1.0)
        for j in np.flatnonzero(tar_rows):
            row = logits[j]
            want = np.where(cols, row.max(), row.min())
            if not np.array_equal(pinned2[j], want):
                return False, "beta2=1 missed the voxel extrema"
    return True, "1000 maps, both endpoints exact"


def check_amm_bounds() -> tuple[bool, str]:
    """10,000 random signals: multiplier in [1, 1+gain], sign kept,
    magnitude never shrinks, contrast in [0, 1]."""
    rng = RngStream(303)
    for _ in range(10_000):
        b = 1 + int(rng.uniforms(1)[0] * 2)
        frames = 1 + int(rng.uniforms(1)[0] * 6)
        dims = (b, 2, frames, 2, 2)
        dv = (rng.normals(int(np.prod(dims))) * 3.0).astype(np.float32).reshape(dims)
        gamma = float(rng.uniforms(1)[0] * 2.5)
        cfg = AmmConfig(gamma=gamma, f0=21)
        gain = gamma_f(cfg, frames)
        cm = contrast_map(dv, cfg.epsilon)
        if cm.min() < 0.0 or cm.max() > 1.0:
            return False, "contrast left [0, 1]"
        factor = 1.0 + np.float32(gain) * cm
        if (factor < 1.0).any() or (factor > 1.0 + np.float32(gain)).any():
            return False, "multiplier left [1, 1+gain]"
        out = amplify(dv, cm, gain)
        if (np.sign(out) * np.sign(dv) < 0).any():
            return False, "sign flipped"
        if (np.abs(out) < np.abs(dv)).any():
            return False, "magnitude shrank"
    return True, "10000 signals within bounds"


def check_gain_anchors() -> tuple[bool, str]:
    """gamma_f(1) = 0 and gamma_f(F0) = gamma exactly; monotone to F=200."""
    for gamma, f0 in ((1.0, 21), (0.37, 8), (2.5, 100)):
        cfg = AmmConfig(gamma=gamma, f0=f0)
        if gamma_f(cfg, 1) != 0.0:
            return False, f"gamma_f(1) != 0 for f0={f0}"
        if gamma_f(cfg, f0) != gamma:
            return False, f"gamma_f(F0) != gamma for f0={f0}"
        values = [gamma_f(cfg, f) for f in range(1, 201)]
        if not all(b > a for a, b in zip(values, values[1:])):
            return False, "gain not strictly increasing"
    return True, "anchors exact, monotone over 1..200"


def _null_edit_cases():
    """(label, registry, sar_config, j_tar) pairs for the fixed-point check."""
    gauss = GaussianCondition(np.array([0.3, -0.8], dtype=np.float32), 1.1)
    sar_on = SarConfig(beta1=0.3, beta2=0.3)
    yield "gaussian", BackendRegistry(gauss, gauss), sar_on, TargetTokenSet.of(0)
    j_tar = TargetTokenSet.of(1)
    src, _ = make_toy_condition_pair(99, tokens=4, query_dim=3, channels=2, j_tar=j_tar)
    yield "toy_attention", BackendRegistry(src, src), SarConfig(beta1=0.0, beta2=0.0), j_tar


def _null_edit_runs(record_states: bool):
    rng = RngStream(404)
    dims = (1, 2, 3, 4, 4)
    mask_bits = np.zeros(dims[2:], dtype=np.uint8)
    mask_bits[:, 1:3, 1:3] = 1
    for label, registry, sar_cfg, j_tar in _null_edit_cases():
        cfg = EditConfig(
            grid=TimeGrid(25, skip=2),
            sar=sar_cfg,
            amm=AmmConfig(gamma=1.0),
            mask=EditMask(mask_bits),
            j_tar=j_tar,
            seed=7,
            record_states=record_states,
        )
        for k in range(50):
            x = VideoLatent(
                rng.normals(int(np.prod(dims))).astype(np.float32).reshape(dims)
            )
            result, report = run_edit(x, replace(cfg, seed=7 + k), registry)
            yield label, x, result, report


def check_null_edit_fixed_point() -> tuple[bool, str]:
    """100 random inputs, both backends, refinement and amplification on:
    the output is bitwise the source."""
    count = 0
    for label, x, result, _ in _null_edit_runs(record_states=False):
        if result.data.tobytes() != x.data.tobytes():
            return False, f"{label}: output deviated from the source"
        count += 1
    return True, f"{count} runs bitwise fixed"


def check_coupling_identity() -> tuple[bool, str]:
    """z_tar - z_edit == z_src - x_src, bitwise, at every step of the
    null-edit runs."""
    steps = 0
    for label, x, _, report in _null_edit_runs(record_states=True):
        for rec in report.steps:
            lhs = rec.z_tar - rec.z_edit_before
            rhs = rec.z_src - x.data
            if not np.array_equal(lhs, rhs):
                return False, f"{label}: coupling identity broke at step {rec.index}"
            steps += 1
    return True, f"{steps} steps exact"


def _mc_velocity_estimate(gen, mu, s, t, z, samples=100_000):
    """Kernel-weighted local-linear regression of (noise - data) on the
    path state around z; independent of the closed form."""
    data = mu + s * gen.standard_normal(samples)
    noise = gen.standard_normal(samples)
    state = (1.0 - t) * data + t * noise
    target = noise - data
    sigma_z = np.sqrt((1.0 - t) ** 2 * s * s + t * t)
    h = 0.5 * sigma_z
    w = np.exp(-0.5 * ((state - z) / h) ** 2)
    x = state - z
    sw, swx, swxx = w.sum(), (w * x).sum(), (w * x * x).sum()
    swy, swxy = (w * target).sum(), (w * x * target).sum()
    det = sw * swxx - swx * swx
    return (swxx * swy - swx * swxy) / det


def check_gaussian_velocity_oracle() -> tuple[bool, str]:
    """200 random points agree with the Monte-Carlo estimate within 2%."""
    gen = np.random.default_rng(515)
    checked = 0
    worst = 0.0
    while checked < 200:
        mu = float(gen.uniform(2.5, 5.0) * gen.choice([-1.0, 1.0]))
        s = float(gen.uniform(0.6, 1.6))
        t = float(gen.uniform(0.25, 0.75))
        u = float(gen.uniform(-1.0, 1.0))
        sigma_z = np.sqrt((1.0 - t) ** 2 * s * s + t * t)
        z = (1.0 - t) * mu + u * sigma_z
        # closed form via the shipped implementation
        state = np.full((1, 1, 1, 1, 1), z, dtype=np.float32)
        closed = gaussian_velocity(state, t, GaussianCondition(np.float32(mu), s)).item()
        if abs(closed) < 2.0:
            continue  # relative comparison is ill-conditioned near zero
        estimate = _mc_velocity_estimate(gen, mu, s, t, z)
        rel = abs(estimate - closed) / abs(closed)
        worst = max(worst, rel)
        if rel > 0.02:
            return False, f"point (mu={mu:.3f}, s={s:.3f}, t={t:.3f}, z={z:.3f}): {rel:.4f}"
        checked += 1
    return True, f"200 points, worst relative error {worst:.4f}"


def check_generation_sanity() -> tuple[bool, str]:
    """1,000 Euler trajectories from pure noise land on the data statistics."""
    mu = np.array([0.6, -1.1], dtype=np.float32)
    s = 0.8
    cond = GaussianCondition(mu, s)
    z = RngStream(606).normals(1000 * 2 * 4).astype(np.float32).reshape(1000, 2, 1, 2, 2)
    times = np.linspace(1.0, 0.0, 1001)
    for k in range(1000):
        v = gaussian_velocity(z, float(times[k]), cond)
        z = z + np.float32(times[k + 1] - times[k]) * v
    errs = [abs(float(z[:, c].mean()) - float(mu[c])) for c in range(2)]
    if max(errs) >= 0.1 * s:
        return False, f"channel means off by {errs}"
    return True, f"channel mean errors {errs[0]:.4f}, {errs[1]:.4f} < {0.1 * s}"


def check_mean_shift_edit() -> tuple[bool, str]:
    """Fine-grid mean-shift edit: uniform displacement along the shift,
    matching an independent scalar integration of the coupled dynamics."""
    delta = np.array([0.8, -0.5], dtype=np.float32)
    registry = BackendRegistry(
        GaussianCondition(np.zeros(2, dtype=np.float32), 1.0), GaussianCondition(delta, 1.0)
    )
    dims = (1, 2, 3, 4, 4)
    grid = TimeGrid(500, skip=2)
    cfg = EditConfig(
        grid=grid,
        sar=SarConfig(beta1=0.0, beta2=0.0),
        amm=AmmConfig(gamma=0.0),
        mask=EditMask(np.ones(dims[2:], dtype=np.uint8)),
        j_tar=TargetTokenSet.of(0),
        seed=3,
    )
    x = VideoLatent(RngStream(42).normals(int(np.prod(dims))).astype(np.float32).reshape(dims))
    result, _ = run_edit(x, cfg, registry)
    move = (result.data - x.data).astype(np.float64)
    ratio = move / delta.reshape(1, 2, 1, 1, 1).astype(np.float64)
    spread = float((ratio.max() - ratio.min()) / abs(ratio.mean()))
    if spread >= 1e-3:
        return False, f"relative spread {spread:.2e}"
    flat_move = move.reshape(-1)
    flat_delta = np.broadcast_to(delta.reshape(1, 2, 1, 1, 1), dims).reshape(-1).astype(np.float64)
    cosine = float(
        flat_move @ flat_delta / (np.linalg.norm(flat_move) * np.linalg.norm(flat_delta))
    )
    if cosine <= 0.999:
        return False, f"cosine {cosine:.6f}"

    # scalar oracle: per-unit-shift coupled dynamics, straight from the
    # conditional-expectation formulas (s = 1, equal scales)
    def scalar_velocity(z, t, mu):
        denom = (1.0 - t) ** 2 + t * t
        return (2.0 * t - 1.0) * (z - (1.0 - t) * mu) / denom - mu

    c = 0.0
    values = grid.values
    for k in range(grid.skip, grid.steps):
        t, t_next = values[k], values[k + 1]
        dv = scalar_velocity(c, t, 1.0) - scalar_velocity(0.0, t, 0.0)
        c += (t_next - t) * dv
    diff = abs(float(ratio.mean()) - c)
    if diff >= 1e-3:
        return False, f"engine {ratio.mean():.6f} vs oracle {c:.6f}"
    return True, f"spread {spread:.1e}, cosine {cosine:.6f}, oracle diff {diff:.1e}"


def check_blend_locality() -> tuple[bool, str]:
    """100 random masked runs: outside the mask the result is the source."""
    registry = BackendRegistry(
        GaussianCondition(np.float32(0.0), 1.0), GaussianCondition(np.float32(1.5), 1.0)
    )
    rng = RngStream(707)
    dims = (1, 2, 3, 4, 4)
    for k in range(100):
        bits = np.zeros(dims[2:], dtype=bool)
        f0 = int(rng.uniforms(1)[0] * 2)
        h0 = int(rng.uniforms(1)[0] * 3)
        w0 = int(rng.uniforms(1)[0] * 3)
        bits[f0 : f0 + 1, h0 : h0 + 2, w0 : w0 + 2] = True
        cfg = EditConfig(
            grid=TimeGrid(8, skip=1),
            sar=SarConfig(),
            amm=AmmConfig(),
            mask=EditMask(bits),
            j_tar=TargetTokenSet.of(0),
            seed=k,
            baseline_blend=True,
        )
        x = VideoLatent(rng.normals(int(np.prod(dims))).astype(np.float32).reshape(dims))
        result, _ = run_edit(x, cfg, registry)
        outside = ~bits
        if not np.array_equal(result.data[:, :, outside], x.data[:, :, outside]):
            return False, f"case {k}: background changed"
    return True, "100 cases background-exact"


def check_metric_oracles() -> tuple[bool, str]:
    """Hand-verifiable metric identities at their stated tolerances."""
    shape = (3, 4, 4)
    mask = EditMask(
        np.pad(np.ones((1, 2, 2), dtype=np.uint8), ((0, 2), (1, 1), (1, 1)))
    )
    a = np.zeros(shape)
    b = np.full(shape, 0.1)
    psnr = masked_psnr(a, b, mask, peak=1.0)
    if abs(psnr - 20.0) > 1e-3:
        return False, f"uniform-error psnr {psnr}"
    if masked_psnr(a, a.copy(), mask) != 99.0:
        return False, "identical-input psnr not capped"

    video = RngStream(808).normals(3 * 16).reshape(3, 4, 4)
    zero_flow = FlowField(np.zeros((2, 2, 4, 4), dtype=np.float32))
    adjacent = float(np.mean([(video[f] - video[f + 1]) ** 2 for f in range(2)]))
    werr = warp_error(video, zero_flow)
    if abs(werr - adjacent) > 1e-6:
        return False, f"zero-flow warp {werr} vs mse {adjacent}"

    const = np.full((4, 8, 8), 0.25)
    fc = frame_consistency(const, ToyFrameEmbedder())
    if abs(fc - 1.0) > 1e-6:
        return False, f"constant-video consistency {fc}"

    m1 = np.array([1, 1, 0, 0, 0, 0], dtype=np.uint8)
    m2 = np.array([1, 1, 1, 1, 0, 0], dtype=np.uint8)
    zero = np.zeros(6, dtype=np.uint8)
    checks = (
        iou(m1, m1.copy()) == 1.0,
        iou(m1, 1 - m1) == 0.0,
        iou(m1, m2) == 0.5,
        iou(m2, m1) == 0.5,
        iou(zero, zero.copy()) == 1.0,
        iou(zero, m1) == 0.0,
    )
    if not all(checks):
        return False, "iou identity suite failed"
    return True, "psnr/warp/consistency/iou all at tolerance"


_DETERMINISM_CONFIG = """
[backend]
type = gaussian
source_mean = 0.0
target_mean = 0.9

[grid]
steps = 10
skip = 2

[io]
scenario = determinism
source = gaussian:1,2,3,4,4
mask = box:0:3,1:3,1:3
seed = 21
save_contrast_maps = true
"""


def check_artifact_determinism() -> tuple[bool, str]:
    """Two consecutive invocations emit byte-identical artifacts."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = with_out_dir(parse_config_text(_DETERMINISM_CONFIG), tmp)
        status, (first,) = run_batch([spec])
        if status != 0:
            return False, f"first run failed: {first.error}"
        names = sorted(p.name for p in first.out_dir.iterdir())
        snapshot = {name: (first.out_dir / name).read_bytes() for name in names}
        status, (second,) = run_batch([spec])
        if status != 0:
            return False, f"second run failed: {second.error}"
        listing = sorted(p.name for p in second.out_dir.iterdir())
        if listing != names:
            return False, f"run directory listing changed: {names} -> {listing}"
        for name in names:
            if (second.out_dir / name).read_bytes() != snapshot[name]:
                return False, f"{name} changed between invocations"
    return True, f"{len(names)} artifacts byte-stable: {', '.join(names)}"


CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "sar-range-preservation", check_sar_range_preservation),
    (2, "sar-endpoint-identities", check_sar_endpoints),
    (3, "amm-bounds", check_amm_bounds),
    (4, "gain-anchors", check_gain_anchors),
    (5, "null-edit-fixed-point", check_null_edit_fixed_point),
    (6, "coupling-identity", check_coupling_identity),
    (7, "gaussian-velocity-oracle", check_gaussian_velocity_oracle),
    (8, "generation-sanity", check_generation_sanity),
    (9, "mean-shift-edit", check_mean_shift_edit),
    (10, "blend-locality", check_blend_locality),
    (11, "metric-oracles", check_metric_oracles),
    (12, "artifact-determinism", check_artifact_determinism),
]


def run_criteria(numbers: Optional[list[int]] = None) -> list[CriterionResult]:
    results = []
    for number, name, func in CRITERIA:
        if numbers is not None and number not in numbers:
            continue
        start = time.perf_counter()
        try:
            ok, detail = func()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CriterionResult(number, name, ok, detail, time.perf_counter() - start))
    return results
