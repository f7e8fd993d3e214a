"""Run configuration: a flat, sectioned key-value text format.

Grammar: blank lines and ``#`` comment lines are ignored; ``[section]``
lines open one of the six known sections (backend, grid, sar, amm, io,
metrics); every other line is ``key = value``. Unknown sections or keys,
type mismatches, non-finite numbers and out-of-range values are rejected
with the offending ``section.key`` path. An empty file parses to the full
default configuration; ``SCHEMA`` below declares every key.

``io.source`` is either a FATN latent path or a synthesis recipe
``gaussian:B,C,F,H,W`` drawn from substream 0 of the run seed.
``io.mask`` is ``ones``, ``zeros``, ``box:f0:f1,h0:h1,w0:w1`` (half-open
latent-grid ranges), or a mask file path (.fatn, or .pgm frames separated
by commas). For sweeps the frame-count slot of either recipe may be the
letter ``F``, which ``with_frames`` substitutes per sweep point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import groupby
from pathlib import Path
from typing import Optional

import numpy as np

from .amm import AmmConfig
from .backends import BackendRegistry, GaussianCondition, make_toy_condition_pair
from .core import (
    MAX_ELEMENTS, EditMask, RngStream, TimeGrid, VideoLatent, load_mask, load_tensor, read_fatn,
    sample_gaussian,
)
from .engine import EditConfig
from .errors import ConfigError
from .metrics import FlowField
from .sar import SarConfig, TargetTokenSet

SECTIONS = ("backend", "grid", "sar", "amm", "io", "metrics")

KNOWN_METRICS = ("masked_psnr", "warp_error", "frame_consistency", "local_structure")

# The float32 values that the editing loop's working set, (n_avg + 3) source-size
# latents, and each of the toy field's largest buffers may hold: 2**31 values, 8 GiB.
WORKING_SET_BUDGET = 2**31


@dataclass(frozen=True)
class BackendSpec:
    type: str = "gaussian"
    source_mean: tuple[float, ...] = (0.0,)
    target_mean: tuple[float, ...] = (0.5,)
    scale: float = 1.0
    tokens: int = 6
    query_dim: int = 4
    temperature: float = 2.0
    model_seed: int = 7
    target_tokens: tuple[int, ...] = (0,)


@dataclass(frozen=True)
class IoSpec:
    scenario: str = "run"
    source: str = "gaussian:1,4,5,8,8"
    mask: str = "ones"
    out_dir: str = "out"
    seed: int = 0
    baseline_blend: bool = False
    save_contrast_maps: bool = False


@dataclass(frozen=True)
class MetricsSpec:
    enable: tuple[str, ...] = ("masked_psnr", "frame_consistency", "local_structure")
    flow: str = ""
    peak: float = 1.0
    embed_grid: int = 8
    edited: str = ""


@dataclass(frozen=True)
class RunSpec:
    backend: BackendSpec = field(default_factory=BackendSpec)
    steps: int = 25
    skip: int = 2
    n_avg: int = 1
    sar: SarConfig = field(default_factory=SarConfig)
    amm: AmmConfig = field(default_factory=AmmConfig)
    io: IoSpec = field(default_factory=IoSpec)
    metrics: MetricsSpec = field(default_factory=MetricsSpec)


def _parse_lines(text: str, origin: str) -> dict[str, dict[str, str]]:
    table: dict[str, dict[str, str]] = {name: {} for name in SECTIONS}
    section: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in table:
                raise ConfigError(name, f"unknown section at {origin}:{lineno}")
            section = name
            continue
        if "=" not in line:
            raise ConfigError(section or "?", f"expected 'key = value' at {origin}:{lineno}")
        if section is None:
            raise ConfigError("?", f"key before any [section] at {origin}:{lineno}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in table[section]:
            raise ConfigError(f"{section}.{key}", "duplicate key")
        table[section][key] = value.strip()
    return table


def _as_text(path: str, raw: str) -> str:
    return raw


def _as_float(path: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(path, f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {raw!r}")
    return value


def _as_int(path: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(path, f"expected an integer, got {raw!r}") from None


def _as_bool(path: str, raw: str) -> bool:
    if raw.lower() not in ("true", "1", "yes", "on", "false", "0", "no", "off"):
        raise ConfigError(path, f"expected true/false, got {raw!r}")
    return raw.lower() in ("true", "1", "yes", "on")


def _list_of(convert):
    return lambda path, raw: tuple(convert(path, t.strip()) for t in raw.split(",") if t.strip())


_as_int_list = _list_of(_as_int)


def _as_layers(path: str, raw: str) -> Optional[frozenset[int]]:
    return None if raw.lower() == "all" else frozenset(_as_int_list(path, raw))


def _at_least(bound: int):
    return lambda value, _: None if value >= bound else f"must be >= {bound}, got {value}"


def _positive(value, _) -> Optional[str]:
    return None if value > 0 else f"must be > 0, got {value}"


def _one_of(choices: tuple[str, ...], what: str):
    def check(value, _) -> Optional[str]:
        unknown = [v for v in ((value,) if isinstance(value, str) else value) if v not in choices]
        return f"unknown {what} {unknown[0]!r}" if unknown else None

    return check


def _steps(value, _) -> Optional[str]:
    # up to 2**52 steps, neighbouring times i / steps lie at least 2**-52 apart, twice
    # the widest gap between floats below 1, so every time is a distinct float
    return None if 1 <= value <= 2**52 else f"must lie in [1, 2**52], got {value}"


def _skip(value, grid) -> Optional[str]:
    return None if 0 <= value < grid["steps"] else f"must satisfy 0 <= skip < steps, got {value}"


def _target_tokens(value, backend) -> Optional[str]:
    if not value:
        return "must name at least one token"
    inside = all(0 <= i < backend["tokens"] for i in value)
    return None if inside else f"indices must lie in [0, {backend['tokens']}), got {value}"


def _layers(value, _) -> Optional[str]:
    return f"indices must be >= 0, got {min(value)}" if value and min(value) < 0 else None


# One row per key: (section, key, attribute, converter, check). A check gets the value
# and the section's values so far (defaults included) and returns an error message or
# None. Defaults live on the dataclasses; SarConfig and AmmConfig hold the sar/amm bounds.
SCHEMA = (
    ("backend", "type", "type", _as_text, _one_of(("gaussian", "toy_attention"), "backend")),
    ("backend", "source_mean", "source_mean", _list_of(_as_float), None),
    ("backend", "target_mean", "target_mean", _list_of(_as_float), None),
    ("backend", "scale", "scale", _as_float, _positive),
    ("backend", "tokens", "tokens", _as_int, _at_least(1)),
    ("backend", "query_dim", "query_dim", _as_int, _at_least(1)),
    ("backend", "temperature", "temperature", _as_float, _positive),
    ("backend", "model_seed", "model_seed", _as_int, None),
    ("backend", "target_tokens", "target_tokens", _as_int_list, _target_tokens),
    ("grid", "steps", "steps", _as_int, _steps),
    ("grid", "skip", "skip", _as_int, _skip),
    ("grid", "n_avg", "n_avg", _as_int, _at_least(1)),
    ("sar", "beta1", "beta1", _as_float, None),
    ("sar", "beta2", "beta2", _as_float, None),
    ("sar", "tau_fraction", "tau_fraction", _as_float, None),
    ("sar", "layers", "layer_set", _as_layers, _layers),
    ("amm", "gamma", "gamma", _as_float, None),
    ("amm", "f0", "f0", _as_int, None),
    ("amm", "epsilon", "epsilon", _as_float, None),
    ("io", "scenario", "scenario", _as_text, None),
    ("io", "source", "source", _as_text, None),
    ("io", "mask", "mask", _as_text, None),
    ("io", "out_dir", "out_dir", _as_text, None),
    ("io", "seed", "seed", _as_int, None),
    ("io", "baseline_blend", "baseline_blend", _as_bool, None),
    ("io", "save_contrast_maps", "save_contrast_maps", _as_bool, None),
    ("metrics", "enable", "enable", _list_of(_as_text), _one_of(KNOWN_METRICS, "metric")),
    ("metrics", "flow", "flow", _as_text, None),
    ("metrics", "peak", "peak", _as_float, _positive),
    ("metrics", "embed_grid", "embed_grid", _as_int, _at_least(1)),
    ("metrics", "edited", "edited", _as_text, None),
)
_DEFAULTS = RunSpec()


def parse_config_text(text: str, origin: str = "<config>") -> RunSpec:
    table = _parse_lines(text, origin)
    fields: dict[str, object] = {}
    for section, rows in groupby(SCHEMA, key=lambda row: row[0]):
        entries = table[section]
        part = _DEFAULTS if section == "grid" else getattr(_DEFAULTS, section)
        values: dict[str, object] = {}
        for _, key, attr, convert, check in rows:
            raw = entries.pop(key, None)
            keep = raw is None or (convert is _as_text and not raw)  # empty text: the default
            value = getattr(part, attr) if keep else convert(f"{section}.{key}", raw)
            if check is not None and (problem := check(value, values)) is not None:
                raise ConfigError(f"{section}.{key}", problem)
            values[attr] = value
        fields.update(values if section == "grid" else {section: type(part)(**values)})
        for key in entries:
            raise ConfigError(f"{section}.{key}", "unknown key")
    return RunSpec(**fields)


def parse_config(path: str | Path) -> RunSpec:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_config_text(text, origin=str(path))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, frozenset)):
        return ",".join(_fmt(v) for v in (sorted(value) if isinstance(value, frozenset) else value))
    return "all" if value is None else str(value)


def config_echo(spec: RunSpec) -> dict[str, str]:
    """Flat section.key -> value mapping for report embedding."""
    echo: dict[str, str] = {}
    for section, key, attr, _, _ in SCHEMA:
        part = spec if section == "grid" else getattr(spec, section)
        value = getattr(part, attr)
        if value != "" or getattr(type(part), attr) != "":  # unset optional paths are left out
            echo[f"{section}.{key}"] = _fmt(value)
    return echo


def emit_config(spec: RunSpec) -> str:
    """Canonical text form; parse(emit(parse(x))) == parse(x)."""
    blocks: dict[str, str] = {}
    for path, value in config_echo(spec).items():
        section, _, key = path.partition(".")
        blocks[section] = blocks.get(section, f"[{section}]\n") + f"{key} = {value}\n"
    return "\n".join(blocks.values())


# ---------------------------------------------------------------------------
# Materializing a spec into run inputs
# ---------------------------------------------------------------------------


def _read_problem(exc: Exception) -> str:
    """What went wrong reading an input file: an OS error's reason and path,
    or a format error's message, which names the path."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"cannot read {exc.filename}: {exc.strerror}"
    return str(exc)


def resolve_source(spec: RunSpec) -> VideoLatent:
    """Load or synthesize the source latent; substream 0 feeds synthesis.

    Raises ConfigError("grid.n_avg") when the edit's working set of
    (n_avg + 3) latents of the source's size exceeds ``WORKING_SET_BUDGET``.
    """
    recipe = spec.io.source
    if recipe.startswith("gaussian:"):
        dims = _as_int_list("io.source", recipe.removeprefix("gaussian:"))
        if len(dims) != 5 or any(d < 1 for d in dims):
            raise ConfigError("io.source", f"recipe needs 5 positive dims, got {recipe!r}")
        if math.prod(dims) > MAX_ELEMENTS:
            raise ConfigError("io.source", f"{recipe!r} has more than {MAX_ELEMENTS} elements")
        source = VideoLatent(sample_gaussian(RngStream(spec.io.seed).substream(0), dims))
    else:
        try:
            source = load_tensor(recipe)
        except (OSError, ValueError) as exc:
            raise ConfigError("io.source", _read_problem(exc)) from None
    if (spec.n_avg + 3) * source.data.size > WORKING_SET_BUDGET:
        raise ConfigError(
            "grid.n_avg",
            f"{spec.n_avg} draws of {source.data.size} values need a working set of "
            f"more than {WORKING_SET_BUDGET} values",
        )
    return source


def resolve_mask(spec: RunSpec, latent: VideoLatent) -> EditMask:
    recipe = spec.io.mask
    grid_shape = (latent.dims.frames, latent.dims.height, latent.dims.width)
    if recipe == "ones":
        return EditMask(np.ones(grid_shape, dtype=bool))
    if recipe == "zeros":
        return EditMask(np.zeros(grid_shape, dtype=bool))
    if recipe.startswith("box:"):
        spans = recipe.removeprefix("box:").split(",")
        if len(spans) != 3:
            raise ConfigError("io.mask", f"box needs three ranges, got {recipe!r}")
        bits = np.zeros(grid_shape, dtype=bool)
        slices = []
        for axis, span in enumerate(spans):
            lo_raw, _, hi_raw = span.partition(":")
            lo = _as_int("io.mask", lo_raw)
            hi = _as_int("io.mask", hi_raw)
            if not 0 <= lo < hi <= grid_shape[axis]:
                raise ConfigError(
                    "io.mask", f"range {span!r} out of bounds for axis size {grid_shape[axis]}"
                )
            slices.append(slice(lo, hi))
        bits[tuple(slices)] = True
        return EditMask(bits)
    paths = [tok.strip() for tok in recipe.split(",") if tok.strip()]
    try:
        return load_mask(paths[0] if len(paths) == 1 else paths, grid_shape)
    except (OSError, ValueError) as exc:
        raise ConfigError("io.mask", _read_problem(exc)) from None


def resolve_flow(spec: RunSpec, latent: VideoLatent) -> Optional[FlowField]:
    """The flow field ``warp_error`` scores against, of shape (F-1, 2, H, W) of
    ``latent``; None when ``warp_error`` is off or ``metrics.flow`` is unset."""
    if not spec.metrics.flow or "warp_error" not in spec.metrics.enable:
        return None
    try:
        flow = FlowField(read_fatn(spec.metrics.flow))
    except (OSError, ValueError) as exc:
        raise ConfigError("metrics.flow", _read_problem(exc)) from None
    _, _, frames, height, width = latent.dims
    expected = (frames - 1, 2, height, width)
    if flow.data.shape != expected:
        raise ConfigError(
            "metrics.flow",
            f"shape {flow.data.shape} does not match (F-1, 2, H, W) = {expected} of the source",
        )
    return flow


def build_backend(spec: RunSpec, latent: VideoLatent) -> BackendRegistry:
    """The source/target condition pair the spec describes.

    A Gaussian mean needs 1 entry or one per channel of ``latent``. The toy
    field's largest buffers must each fit ``WORKING_SET_BUDGET``: a thread's
    (L, F*H*W) logits, sized by ``tokens``, its (d, F*H*W) queries, sized by
    ``query_dim``, and the (L, d) keys, charged to the larger of the two.
    """
    b = spec.backend
    channels = latent.dims.channels
    if b.type == "gaussian":
        pair = []
        for key, mean in (("source_mean", b.source_mean), ("target_mean", b.target_mean)):
            if len(mean) not in (1, channels):
                raise ConfigError(
                    f"backend.{key}",
                    f"needs 1 or {channels} entries (the source latent's channels), "
                    f"got {len(mean)}",
                )
            pair.append(GaussianCondition(np.asarray(mean, dtype=np.float32), b.scale))
        return BackendRegistry(*pair)
    voxels = math.prod(latent.dims[2:])
    larger = "tokens" if b.tokens >= b.query_dim else "query_dim"
    for key, size in (("tokens", b.tokens), ("query_dim", b.query_dim)):
        keys = b.tokens * b.query_dim if key == larger else 0
        if max(size * voxels, keys) > WORKING_SET_BUDGET:
            raise ConfigError(
                f"backend.{key}",
                f"{size} makes a toy-field buffer of more than {WORKING_SET_BUDGET} values",
            )
    src, tar = make_toy_condition_pair(
        b.model_seed,
        b.tokens,
        b.query_dim,
        channels,
        TargetTokenSet(frozenset(b.target_tokens)),
        b.temperature,
    )
    return BackendRegistry(src, tar)


def build_edit_config(spec: RunSpec, mask: EditMask) -> EditConfig:
    return EditConfig(
        grid=TimeGrid(spec.steps, spec.skip),
        sar=spec.sar,
        amm=spec.amm,
        mask=mask,
        j_tar=TargetTokenSet(frozenset(spec.backend.target_tokens)),
        seed=spec.io.seed,
        n_avg=spec.n_avg,
        baseline_blend=spec.io.baseline_blend,
        record_contrast=spec.io.save_contrast_maps,
    )


def with_seed(spec: RunSpec, seed: int) -> RunSpec:
    return replace(spec, io=replace(spec.io, seed=seed))


def with_out_dir(spec: RunSpec, out_dir: str) -> RunSpec:
    return replace(spec, io=replace(spec.io, out_dir=out_dir))


def with_frames(spec: RunSpec, frames: int) -> RunSpec:
    """``spec`` with every ``F`` of a ``gaussian:`` or ``box:`` recipe replaced by
    ``frames``; paths, ``ones`` and ``zeros`` are left alone."""

    def substitute(recipe: str) -> str:
        synthesized = recipe.startswith(("gaussian:", "box:"))
        return recipe.replace("F", str(frames)) if synthesized else recipe

    io = spec.io
    return replace(spec, io=replace(io, source=substitute(io.source), mask=substitute(io.mask)))


def run_dir(spec: RunSpec) -> Path:
    """The directory a run writes its artifacts into: ``out_dir/<scenario>``.

    The scenario must be one plain path component, so that no run writes
    outside ``out_dir`` or inside another run's directory.
    """
    scenario = spec.io.scenario
    if Path(scenario).name != scenario or scenario in ("", ".", ".."):
        raise ConfigError("io.scenario", f"must be a plain name, not a path, got {scenario!r}")
    return Path(spec.io.out_dir) / scenario
