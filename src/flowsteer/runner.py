"""Batch execution and artifact emission.

Each run gets its own directory ``out_dir/<scenario>/`` holding:

* ``source.fatn``   - the latent actually edited (echoed for comparisons)
* ``result.fatn``   - the edited latent
* ``report.json``   - schema-versioned report: config echo, grid, per-step
  stats, result summary, metric values; fixed key order and shortest
  round-trip float rendering, so identical runs emit identical bytes
* ``diagnostics.csv`` - per-step rows ``F,step,mean_abs,iou,gamma_f``
* ``contrast_step_NNN.pgm`` - optional contrast maps (frames stacked
  vertically, sample 0), linearly quantized from [0, 1] to 8 bits

Runs are independent and may execute on a thread pool; all writes stay
inside per-run directories. The ``FLOWSTEER_WORKERS`` environment
variable, when set, overrides the requested worker count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import (
    RunSpec,
    build_backend,
    build_edit_config,
    config_echo,
    resolve_mask,
    resolve_source,
)
from .core import EditMask, VideoLatent, read_fatn, save_tensor, write_pgm
from .diagnostics import DEFAULT_BINARIZE_THRESHOLD, sweep_rows_to_csv
from .engine import EditReport, run_edit
from .errors import ConfigError, FlowSteerError
from .metrics import (
    FlowField,
    ToyFrameEmbedder,
    frame_consistency,
    local_structure_similarity,
    masked_psnr,
    warp_error_detail,
)

REPORT_SCHEMA_VERSION = 1

WORKERS_ENV_VAR = "FLOWSTEER_WORKERS"


@dataclass
class RunOutcome:
    scenario: str
    out_dir: Path
    ok: bool
    error: Optional[str] = None


def resolve_workers(requested: int) -> int:
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            requested = int(env)
        except ValueError:
            raise ConfigError(WORKERS_ENV_VAR, f"expected an integer, got {env!r}") from None
    return max(1, requested)


def channel_mean_video(latent: VideoLatent) -> np.ndarray:
    """(F, H, W) view of a latent for pixel-space metrics; sample 0."""
    return latent.data[0].mean(axis=0, dtype=np.float64)


def evaluate_metrics(
    spec: RunSpec,
    source: VideoLatent,
    result: VideoLatent,
    mask: EditMask,
) -> dict:
    """Selected metrics on the channel-mean videos of result vs. source."""
    values: dict = {}
    src_video = channel_mean_video(source)
    out_video = channel_mean_video(result)
    embedder = ToyFrameEmbedder(spec.metrics.embed_grid)
    for name in spec.metrics.enable:
        if name == "masked_psnr":
            if mask.data.all():
                values[name] = {"error": "mask covers everything; no unedited region"}
            else:
                values[name] = masked_psnr(out_video, src_video, mask, spec.metrics.peak)
        elif name == "frame_consistency":
            if out_video.shape[0] < 2:
                values[name] = {"error": "needs at least two frames"}
            else:
                values[name] = frame_consistency(out_video, embedder)
        elif name == "local_structure":
            if mask.is_empty():
                values[name] = {"error": "mask is empty; no region to compare"}
            else:
                values[name] = local_structure_similarity(src_video, out_video, mask, embedder)
        elif name == "warp_error":
            if not spec.metrics.flow:
                values[name] = {"error": "no flow file configured"}
            else:
                flow = FlowField(read_fatn(spec.metrics.flow))
                detail = warp_error_detail(out_video, flow)
                values[name] = {
                    "value": detail.value,
                    "compared_cells": detail.compared_cells,
                    "excluded_cells": detail.excluded_cells,
                }
    return values


def report_to_json(
    spec: RunSpec,
    report: Optional[EditReport],
    result: Optional[VideoLatent],
    metric_values: Optional[dict],
    error: Optional[str] = None,
) -> str:
    doc: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": spec.io.scenario,
        "status": "ok" if error is None else "error",
        "error": error,
        "config": config_echo(spec),
    }
    if report is not None:
        doc["frames"] = report.frames
        doc["gain"] = report.gain
        doc["binarize_threshold"] = DEFAULT_BINARIZE_THRESHOLD
        doc["steps"] = [
            {
                "index": rec.index,
                "t": rec.t,
                "dt": rec.dt,
                "mean_abs": rec.mean_abs,
                "mean_abs_amm": rec.mean_abs_amm,
                "per_frame_mean_abs": list(rec.per_frame_mean_abs),
                "iou": rec.iou,
                "iou_amm": rec.iou_amm,
            }
            for rec in report.steps
        ]
    else:
        doc["steps"] = []
    if result is not None:
        doc["result"] = {
            "dims": list(result.data.shape),
            "mean": float(result.data.mean(dtype=np.float64)),
            "std": float(result.data.std(dtype=np.float64)),
            "min": float(result.data.min()),
            "max": float(result.data.max()),
        }
    if metric_values is not None:
        doc["metrics"] = metric_values
    return json.dumps(doc, indent=2) + "\n"


def quantize_contrast(plane: np.ndarray) -> np.ndarray:
    """Linear [0, 1] -> uint8 quantization used for contrast-map PGMs."""
    return np.clip(np.rint(plane * 255.0), 0, 255).astype(np.uint8)


def emit_report(
    spec: RunSpec,
    run_dir: Path,
    report: Optional[EditReport],
    result: Optional[VideoLatent],
    metric_values: Optional[dict],
    error: Optional[str] = None,
) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "report.json").write_text(
        report_to_json(spec, report, result, metric_values, error), encoding="utf-8"
    )
    rows = []
    if report is not None:
        rows = [
            (report.frames, rec.index, rec.mean_abs, rec.iou, report.gain)
            for rec in report.steps
        ]
    (run_dir / "diagnostics.csv").write_text(sweep_rows_to_csv(rows), encoding="utf-8")
    if report is not None and spec.io.save_contrast_maps:
        for rec in report.steps:
            if rec.contrast is None:
                continue
            stacked = rec.contrast[0, 0].reshape(-1, rec.contrast.shape[-1])
            write_pgm(run_dir / f"contrast_step_{rec.index:03d}.pgm", quantize_contrast(stacked))


def execute_run(spec: RunSpec) -> RunOutcome:
    run_dir = Path(spec.io.out_dir) / spec.io.scenario
    try:
        source = resolve_source(spec)
        mask = resolve_mask(spec, source)
        backend = build_backend(spec, source)
        cfg = build_edit_config(spec, mask)
        run_dir.mkdir(parents=True, exist_ok=True)
        save_tensor(source, run_dir / "source.fatn")
        result, report = run_edit(source, cfg, backend)
        metric_values = evaluate_metrics(spec, source, result, mask)
        save_tensor(result, run_dir / "result.fatn")
        emit_report(spec, run_dir, report, result, metric_values)
        return RunOutcome(spec.io.scenario, run_dir, ok=True)
    except (FlowSteerError, OSError, ValueError) as exc:
        message = f"{type(exc).__name__}: {exc}"
        try:
            emit_report(spec, run_dir, None, None, None, error=message)
        except OSError:
            pass
        return RunOutcome(spec.io.scenario, run_dir, ok=False, error=message)


def run_batch(specs: Sequence[RunSpec], workers: int = 1) -> tuple[int, list[RunOutcome]]:
    """Execute runs (concurrently if workers > 1); exit status 0 iff all finished.

    Raises ConfigError("io.scenario", ...) before any run starts when two specs
    resolve to the same run directory.
    """
    seen: dict[Path, str] = {}
    for spec in specs:
        run_dir = (Path(spec.io.out_dir) / spec.io.scenario).resolve()
        if run_dir in seen:
            raise ConfigError(
                "io.scenario",
                f"runs {seen[run_dir]!r} and {spec.io.scenario!r} both write to {run_dir}",
            )
        seen[run_dir] = spec.io.scenario
    workers = resolve_workers(workers)
    if workers == 1 or len(specs) <= 1:
        outcomes = [execute_run(spec) for spec in specs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(execute_run, specs))
    status = 0 if all(o.ok for o in outcomes) else 1
    return status, outcomes
