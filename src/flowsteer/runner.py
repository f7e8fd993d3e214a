"""Batch execution, artifact emission and frame-count sweeps.

Each run gets its own directory ``out_dir/<scenario>/`` holding:

* ``source.fatn``   - the latent actually edited (echoed for comparisons)
* ``result.fatn``   - the edited latent
* ``report.json``   - schema-versioned report: config echo, grid, per-step
  stats, result summary, metric values; fixed key order and shortest
  round-trip float rendering, so identical runs emit identical bytes
* ``diagnostics.csv`` - per-step rows ``F,step,mean_abs,iou,gamma_f``
* ``contrast.pgm``    - optional (``io.save_contrast_maps``): every step's
  contrast map in one 8-bit image, linearly quantized from [0, 1]. A step's
  plane is sample 0's frames stacked vertically, (F*H, W); the planes are
  stacked in step order, so band k (rows k*F*H up to (k+1)*F*H) belongs to
  the k-th row of ``diagnostics.csv``
* ``MANIFEST.sha256`` - the SHA-256 of every other file, in ``sha256sum`` format

A run, failed or not, is built in a staging directory ``out_dir/.<scenario>.stage``
that then replaces ``out_dir/<scenario>`` whole (see ``staged``), so the directory
never mixes the files of two runs.

Runs are independent, and a batch runs them in order on the calling thread;
all writes stay inside per-run directories.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import (
    RunSpec,
    build_backend,
    build_edit_config,
    config_echo,
    resolve_flow,
    resolve_mask,
    resolve_source,
    run_dir,
    with_frames,
)
from .core import EditMask, VideoLatent, save_tensor, write_pgm
from .diagnostics import DEFAULT_BINARIZE_THRESHOLD, report_rows, sweep_rows_to_csv
from .engine import EditReport, run_edit
from .errors import ConfigError, FlowSteerError, MetricUndefinedError, ShapeMismatchError
from .metrics import METRICS, FlowField, ToyFrameEmbedder

REPORT_SCHEMA_VERSION = 1


@dataclass
class RunOutcome:
    scenario: str
    out_dir: Path
    ok: bool
    error: Optional[str] = None


def channel_mean_video(latent: VideoLatent) -> np.ndarray:
    """(F, H, W) view of a latent for pixel-space metrics; sample 0."""
    return latent.data[0].mean(axis=0, dtype=np.float64)


def evaluate_metrics(
    spec: RunSpec,
    source: VideoLatent,
    result: VideoLatent,
    mask: EditMask,
    flow: Optional[FlowField],
) -> dict:
    """Selected metrics on the channel-mean videos of result vs. source;
    ``flow`` is ``resolve_flow``'s field for ``warp_error``. A metric that is
    undefined on these inputs is recorded as ``{"error": reason}``."""
    videos = channel_mean_video(source), channel_mean_video(result)
    embedder = ToyFrameEmbedder(spec.metrics.embed_grid)
    values: dict = {}
    for name in spec.metrics.enable:
        try:
            values[name] = METRICS[name](*videos, mask, flow, spec.metrics.peak, embedder)
        except MetricUndefinedError as exc:
            values[name] = {"error": str(exc)}
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
    """Write report.json, diagnostics.csv and, when asked for and recorded,
    contrast.pgm into the existing ``run_dir``."""
    (run_dir / "report.json").write_text(
        report_to_json(spec, report, result, metric_values, error), encoding="utf-8"
    )
    rows = report_rows(report) if report is not None else []
    (run_dir / "diagnostics.csv").write_text(sweep_rows_to_csv(rows), encoding="utf-8")
    if report is not None and spec.io.save_contrast_maps:
        planes = [rec.contrast[0, 0] for rec in report.steps if rec.contrast is not None]
        if planes:
            stacked = np.concatenate(planes).reshape(-1, planes[0].shape[-1])
            write_pgm(run_dir / "contrast.pgm", quantize_contrast(stacked))


@contextmanager
def staged(out: Path) -> Iterator[Path]:
    """A fresh staging directory that replaces the directory ``out`` on a clean exit.

    Leftovers of an interrupted replacement of ``out``, ``.<name>.stage`` and
    ``.<name>.old`` next to it, are removed first. On a clean exit
    ``MANIFEST.sha256`` is written last, ``out`` is renamed aside, the staging
    directory renamed in, and the old one deleted; a crash in between leaves
    the old or the new directory complete, or none. On an exception the staging
    directory is deleted and ``out`` is left as it was.
    """
    stage, aside = out.with_name(f".{out.name}.stage"), out.with_name(f".{out.name}.old")
    for leftover in (stage, aside):
        shutil.rmtree(leftover, ignore_errors=True)
    stage.mkdir(parents=True)
    try:
        yield stage
        lines = [
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
            for path in sorted(stage.iterdir())
        ]
        (stage / "MANIFEST.sha256").write_text("".join(lines), encoding="utf-8")
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    if out.exists():
        out.rename(aside)
    stage.rename(out)
    shutil.rmtree(aside, ignore_errors=True)


def execute_run(spec: RunSpec) -> RunOutcome:
    out = run_dir(spec)
    error = None
    try:
        with staged(out) as stage:
            try:
                source = resolve_source(spec)
                mask = resolve_mask(spec, source)
                flow = resolve_flow(spec, source)
                backend = build_backend(spec, source)
                cfg = build_edit_config(spec, mask)
                save_tensor(source, stage / "source.fatn")
                result, report = run_edit(source, cfg, backend)
                metric_values = evaluate_metrics(spec, source, result, mask, flow)
                save_tensor(result, stage / "result.fatn")
                emit_report(spec, stage, report, result, metric_values)
            except (FlowSteerError, OSError, ValueError, MemoryError) as exc:
                error = f"{type(exc).__name__}: {exc}"
                emit_report(spec, stage, None, None, None, error=error)
    except OSError as exc:  # the directory itself cannot be staged or swapped in
        error = error or f"{type(exc).__name__}: {exc}"
    return RunOutcome(spec.io.scenario, out, ok=error is None, error=error)


def run_batch(specs: Sequence[RunSpec], workers: int = 1) -> tuple[int, list[RunOutcome]]:
    """Execute runs in order on the calling thread; exit status 0 iff all finished.

    Raises ConfigError("io.scenario", ...) before any run starts when two
    specs resolve to the same run directory.

    ``workers`` has no effect. It stays only because ``bench/run.py`` still
    passes ``workers=2``; the change to the bench that drops that argument
    (ROADMAP item 3) removes this parameter as well.
    """
    seen: dict[Path, str] = {}
    for spec in specs:
        out = run_dir(spec).resolve()
        if out in seen:
            raise ConfigError(
                "io.scenario",
                f"runs {seen[out]!r} and {spec.io.scenario!r} both write to {out}",
            )
        seen[out] = spec.io.scenario
    outcomes = [execute_run(spec) for spec in specs]
    status = 0 if all(o.ok for o in outcomes) else 1
    return status, outcomes


def frame_sweep(
    spec: RunSpec, frame_counts: Sequence[int]
) -> list[tuple[int, int, float, float, float]]:
    """Edit ``with_frames(spec, F)`` for each F, resolved as ``execute_run``
    resolves a spec, and return the per-step rows (F, step, mean_abs, iou,
    gamma_f); writes nothing. Raises ShapeMismatchError when the source does
    not have F frames. No claim is made that the toy backends reproduce any
    particular attenuation trend over frame counts; the sweep is bookkeeping
    around real runs."""
    rows: list[tuple[int, int, float, float, float]] = []
    for frames in frame_counts:
        point = with_frames(spec, frames)
        source = resolve_source(point)
        if source.dims.frames != frames:
            raise ShapeMismatchError(f"source has {source.dims.frames} frames, requested {frames}")
        mask = resolve_mask(point, source)
        _, report = run_edit(source, build_edit_config(point, mask), build_backend(point, source))
        rows.extend(report_rows(report))
    return rows
