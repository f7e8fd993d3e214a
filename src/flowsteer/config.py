"""Run configuration: a flat, sectioned key-value text format.

Grammar: blank lines and ``#`` comment lines are ignored; ``[section]``
lines open one of the six known sections (backend, grid, sar, amm, io,
metrics); every other line is ``key = value``. Unknown sections or keys,
type mismatches, non-finite numbers and out-of-range values are rejected
with the offending ``section.key`` path. An empty file parses to the full
default configuration.

Each section is a dataclass field of ``RunSpec`` whose fields are its keys,
each holding the key's default and converted by its annotation. Its
``__post_init__`` checks the keys' ranges, so a spec built by ``replace`` is
checked too. Field order fixes the key order of emitted text and report.json.

``io.source`` is either a FATN latent path or a synthesis recipe
``gaussian:B,C,F,H,W`` drawn from substream 0 of the run seed.
``io.mask`` is ``ones``, ``zeros``, ``box:f0:f1,h0:h1,w0:w1`` (half-open
latent-grid ranges), or a mask file path (.fatn, or .pgm frames separated
by commas). For sweeps the frame-count slot of either recipe may be the
letter ``F``, which ``with_frames`` substitutes per sweep point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
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
from .metrics import METRICS, FlowField
from .sar import SarConfig, TargetTokenSet

KNOWN_METRICS = tuple(METRICS)

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

    def __post_init__(self):
        if self.type not in ("gaussian", "toy_attention"):
            raise ConfigError("backend.type", f"unknown backend {self.type!r}")
        if not self.scale > 0:
            raise ConfigError("backend.scale", f"must be > 0, got {self.scale}")
        if not self.tokens >= 1:
            raise ConfigError("backend.tokens", f"must be >= 1, got {self.tokens}")
        if not self.query_dim >= 1:
            raise ConfigError("backend.query_dim", f"must be >= 1, got {self.query_dim}")
        if not self.temperature > 0:
            raise ConfigError("backend.temperature", f"must be > 0, got {self.temperature}")
        if not self.target_tokens:
            raise ConfigError("backend.target_tokens", "must name at least one token")
        if not all(0 <= i < self.tokens for i in self.target_tokens):
            problem = f"indices must lie in [0, {self.tokens}), got {self.target_tokens}"
            raise ConfigError("backend.target_tokens", problem)


@dataclass(frozen=True)
class GridSpec:
    steps: int = 25
    skip: int = 2
    n_avg: int = 1

    def __post_init__(self):
        # up to 2**52 steps, neighbouring times i / steps lie at least 2**-52 apart, twice
        # the widest gap between floats below 1, so every time is a distinct float
        if not 1 <= self.steps <= 2**52:
            raise ConfigError("grid.steps", f"must lie in [1, 2**52], got {self.steps}")
        if not 0 <= self.skip < self.steps:
            raise ConfigError("grid.skip", f"must satisfy 0 <= skip < steps, got {self.skip}")
        if not self.n_avg >= 1:
            raise ConfigError("grid.n_avg", f"must be >= 1, got {self.n_avg}")


@dataclass(frozen=True)
class IoSpec:
    """The scenario is one plain path component, so that no run writes outside
    ``out_dir`` or into another run's directory, and starts with no dot, which
    marks the staging directories of runs. No path holds a NUL byte."""

    scenario: str = "run"
    source: str = "gaussian:1,4,5,8,8"
    mask: str = "ones"
    out_dir: str = "out"
    seed: int = 0
    baseline_blend: bool = False
    save_contrast_maps: bool = False

    def __post_init__(self):
        scenario = self.scenario
        if Path(scenario).name != scenario or scenario[:1] in ("", ".") or "\0" in scenario:
            problem = f"must be a plain name, not a path or a dot name, got {scenario!r}"
            raise ConfigError("io.scenario", problem)
        if "\0" in self.out_dir:
            raise ConfigError("io.out_dir", f"must not hold a NUL byte, got {self.out_dir!r}")


@dataclass(frozen=True)
class MetricsSpec:
    enable: tuple[str, ...] = ("masked_psnr", "frame_consistency", "local_structure")
    flow: str = ""
    peak: float = 1.0
    embed_grid: int = 8
    edited: str = ""

    def __post_init__(self):
        unknown = [name for name in self.enable if name not in KNOWN_METRICS]
        if unknown:
            raise ConfigError("metrics.enable", f"unknown metric {unknown[0]!r}")
        if not self.peak > 0:
            raise ConfigError("metrics.peak", f"must be > 0, got {self.peak}")
        if not self.embed_grid >= 1:
            raise ConfigError("metrics.embed_grid", f"must be >= 1, got {self.embed_grid}")


@dataclass(frozen=True)
class RunSpec:
    backend: BackendSpec = field(default_factory=BackendSpec)
    grid: GridSpec = field(default_factory=GridSpec)
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


# The converter of each field annotation in use; a field annotated otherwise fails at import.
_CONVERTERS = {
    "str": _as_text,
    "int": _as_int,
    "float": _as_float,
    "bool": _as_bool,
    "tuple[int, ...]": _as_int_list,
    "tuple[float, ...]": _list_of(_as_float),
    "tuple[str, ...]": _list_of(_as_text),
    "Optional[FrozenSet[int]]": _as_layers,
}
# Each RunSpec field is a section and each field of its dataclass a key, converted by the
# converter of the field's annotation; the dataclass checks the section's values.
_KINDS = {part.name: part.default_factory for part in fields(RunSpec)}
_ROWS = {
    section: [(f.name, _CONVERTERS[f.type]) for f in fields(kind)]
    for section, kind in _KINDS.items()
}
SECTIONS = tuple(_KINDS)
SCHEMA = tuple((section, key, convert) for section, rows in _ROWS.items() for key, convert in rows)


def parse_config_text(text: str, origin: str = "<config>") -> RunSpec:
    table = _parse_lines(text, origin)
    parts: dict[str, object] = {}
    for section, rows in _ROWS.items():
        entries = table[section]
        values: dict[str, object] = {}
        for key, convert in rows:
            raw = entries.pop(key, None)
            if raw is not None and (raw or convert is not _as_text):  # empty text: the default
                values[key] = convert(f"{section}.{key}", raw)
        parts[section] = _KINDS[section](**values)
        for key in entries:
            raise ConfigError(f"{section}.{key}", "unknown key")
    return RunSpec(**parts)


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
    for section, key, _ in SCHEMA:
        part = getattr(spec, section)
        value = getattr(part, key)
        if value != "" or getattr(type(part), key) != "":  # unset optional paths are left out
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
    if (spec.grid.n_avg + 3) * source.data.size > WORKING_SET_BUDGET:
        raise ConfigError(
            "grid.n_avg",
            f"{spec.grid.n_avg} draws of {source.data.size} values need a working set of "
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
        grid=TimeGrid(spec.grid.steps, spec.grid.skip),
        sar=spec.sar,
        amm=spec.amm,
        mask=mask,
        j_tar=TargetTokenSet(frozenset(spec.backend.target_tokens)),
        seed=spec.io.seed,
        n_avg=spec.grid.n_avg,
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
    """The directory a run writes its artifacts into: ``out_dir/<scenario>``,
    where ``IoSpec`` makes the scenario one plain name."""
    return Path(spec.io.out_dir) / spec.io.scenario
