import string
from dataclasses import replace
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsteer import config
from flowsteer.backends import GaussianCondition, ToyAttentionCondition
from flowsteer.config import (
    KNOWN_METRICS,
    SCHEMA,
    RunSpec,
    build_backend,
    build_edit_config,
    config_echo,
    emit_config,
    parse_config,
    parse_config_text,
    resolve_flow,
    resolve_mask,
    resolve_source,
    run_dir,
    with_frames,
    with_out_dir,
)
from flowsteer.core import write_fatn, write_pgm
from flowsteer.errors import ConfigError
from flowsteer.runner import execute_run

SCHEMA_KEYS = [f"{section}.{key}" for section, key, *_ in SCHEMA]


def one_key(key: str, raw: str) -> str:
    section, _, name = key.partition(".")
    return f"[{section}]\n{name} = {raw}\n"


class TestDefaults:
    def test_empty_config_gives_documented_defaults(self):
        spec = parse_config_text("")
        assert spec.grid.steps == 25 and spec.grid.skip == 2 and spec.grid.n_avg == 1
        assert spec.sar.beta1 == 0.3 and spec.sar.beta2 == 0.3
        assert spec.sar.tau_fraction == 0.6
        assert spec.amm.gamma == 1.0 and spec.amm.f0 == 21 and spec.amm.epsilon == 1e-7

    def test_gamma_omitted_defaults_to_one(self):
        spec = parse_config_text("[amm]\nf0 = 13\n")
        assert spec.amm.gamma == 1.0 and spec.amm.f0 == 13

    def test_comments_and_blanks_ignored(self):
        text = "# top comment\n\n[grid]\n# inner\nsteps = 10\n"
        assert parse_config_text(text).grid.steps == 10


class TestValidation:
    def test_beta_out_of_range_names_key(self):
        with pytest.raises(ConfigError, match="sar.beta1"):
            parse_config_text("[sar]\nbeta1 = 1.5\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="grid.stepz"):
            parse_config_text("[grid]\nstepz = 25\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[wat]\nx = 1\n")

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="grid.steps"):
            parse_config_text("[grid]\nsteps = soon\n")

    def test_skip_range(self):
        with pytest.raises(ConfigError, match="grid.skip"):
            parse_config_text("[grid]\nsteps = 4\nskip = 4\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("[grid]\nsteps = 4\nsteps = 5\n")

    def test_key_before_section(self):
        with pytest.raises(ConfigError, match="before any"):
            parse_config_text("steps = 4\n")

    def test_unknown_metric(self):
        with pytest.raises(ConfigError, match="metrics.enable"):
            parse_config_text("[metrics]\nenable = vibes\n")

    def test_target_tokens_range(self):
        with pytest.raises(ConfigError) as info:
            parse_config_text("[backend]\ntokens = 3\ntarget_tokens = 5\n")
        assert str(info.value) == "backend.target_tokens: indices must lie in [0, 3), got (5,)"

    def test_unknown_backend_type(self):
        with pytest.raises(ConfigError, match="backend.type"):
            parse_config_text("[backend]\ntype = oracle\n")


class TestRoundTrip:
    CUSTOM = """
[backend]
type = toy_attention
tokens = 5
target_tokens = 1,2
temperature = 3.5

[grid]
steps = 12
skip = 1
n_avg = 2

[sar]
beta1 = 0.25
layers = 0,2

[amm]
gamma = 0.5

[io]
scenario = demo
seed = 11
baseline_blend = true

[metrics]
enable = frame_consistency
peak = 2.0
"""

    def test_parse_emit_parse_fixed_point(self):
        spec = parse_config_text(self.CUSTOM)
        assert parse_config_text(emit_config(spec)) == spec

    def test_emit_is_stable(self):
        spec = parse_config_text(self.CUSTOM)
        assert emit_config(spec) == emit_config(parse_config_text(emit_config(spec)))

    def test_parse_config_reads_files(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.CUSTOM, encoding="utf-8")
        assert parse_config(path) == parse_config_text(self.CUSTOM)


class TestResolvers:
    def test_synthesized_source_is_deterministic(self):
        spec = parse_config_text("[io]\nsource = gaussian:1,2,3,4,4\nseed = 3\n")
        a = resolve_source(spec)
        b = resolve_source(spec)
        assert a.data.shape == (1, 2, 3, 4, 4)
        assert np.array_equal(a.data, b.data)

    def test_source_file_loading(self, tmp_path):
        from flowsteer import RngStream, VideoLatent, sample_gaussian, save_tensor

        lat = VideoLatent(sample_gaussian(RngStream(1), (1, 1, 2, 3, 3)))
        path = tmp_path / "src.fatn"
        save_tensor(lat, path)
        spec = parse_config_text(f"[io]\nsource = {path}\n")
        assert np.array_equal(resolve_source(spec).data, lat.data)

    def test_missing_source_file(self):
        spec = parse_config_text("[io]\nsource = /nope/missing.fatn\n")
        with pytest.raises(ConfigError, match="io.source"):
            resolve_source(spec)

    @pytest.mark.parametrize("kind", ["directory", "empty", "not-a-latent"])
    def test_unreadable_source_file_names_its_key(self, tmp_path, kind):
        # a directory raised IsADirectoryError and an empty file a bare
        # "truncated header", neither naming io.source
        path = tmp_path if kind == "directory" else tmp_path / f"{kind}.fatn"
        if kind == "empty":
            path.write_bytes(b"")
        elif kind == "not-a-latent":
            write_fatn(path, np.zeros((2, 4, 4), np.float32))
        spec = parse_config_text(f"[io]\nsource = {path}\n")
        with pytest.raises(ConfigError) as info:
            resolve_source(spec)
        assert info.value.key_path == "io.source" and str(path) in str(info.value)

    @pytest.mark.parametrize("kind", ["directory", "empty", "unequal-frames"])
    def test_unreadable_mask_file_names_its_key(self, tmp_path, kind):
        small, large = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(small, np.zeros((4, 4), np.uint8))
        write_pgm(large, np.zeros((8, 8), np.uint8))
        (tmp_path / "empty.fatn").write_bytes(b"")
        recipe = {
            "directory": str(tmp_path),
            "empty": str(tmp_path / "empty.fatn"),
            "unequal-frames": f"{small},{large}",
        }[kind]
        spec = parse_config_text(f"[io]\nsource = gaussian:1,1,2,4,4\nmask = {recipe}\n")
        with pytest.raises(ConfigError) as info:
            resolve_mask(spec, resolve_source(spec))
        assert info.value.key_path == "io.mask"

    def test_mask_recipes(self):
        spec = parse_config_text("[io]\nsource = gaussian:1,1,2,4,4\n")
        latent = resolve_source(spec)
        ones = resolve_mask(spec, latent)
        assert ones.data.all()
        spec_zeros = parse_config_text("[io]\nsource = gaussian:1,1,2,4,4\nmask = zeros\n")
        assert not resolve_mask(spec_zeros, latent).data.any()
        spec_box = parse_config_text(
            "[io]\nsource = gaussian:1,1,2,4,4\nmask = box:0:1,1:3,0:2\n"
        )
        box = resolve_mask(spec_box, latent)
        assert box.data.sum() == 1 * 2 * 2
        assert box.data[0, 1, 0] == 1 and box.data[1, 1, 0] == 0

    def test_box_out_of_bounds(self):
        spec = parse_config_text("[io]\nsource = gaussian:1,1,2,4,4\nmask = box:0:3,0:2,0:2\n")
        latent = resolve_source(spec)
        with pytest.raises(ConfigError, match="io.mask"):
            resolve_mask(spec, latent)

    def test_frame_placeholder_substitution(self):
        spec = with_frames(parse_config_text("[io]\nsource = gaussian:1,2,F,4,4\n"), 7)
        latent = resolve_source(spec)
        assert latent.dims.frames == 7

    def test_with_frames_replaces_every_f_of_a_box(self):
        spec = parse_config_text("[io]\nmask = box:0:F,F:F,1:F\n")
        expected = replace(spec, io=replace(spec.io, mask="box:0:5,5:5,1:5"))
        assert with_frames(spec, 5) == expected

    @pytest.mark.parametrize("mask", ["ones", "zeros", "masks/F.fatn"])
    def test_with_frames_leaves_paths_ones_and_zeros_alone(self, mask):
        spec = parse_config_text(f"[io]\nsource = clips/F.fatn\nmask = {mask}\n")
        assert with_frames(spec, 5) == spec

    def test_build_backend_gaussian(self):
        spec = RunSpec()
        latent = resolve_source(spec)
        reg = build_backend(spec, latent)
        assert isinstance(reg.source, GaussianCondition)
        assert isinstance(reg.target, GaussianCondition)

    @pytest.mark.parametrize("key", ["source_mean", "target_mean"])
    @pytest.mark.parametrize("raw", ["0,0,0", ""])
    def test_build_backend_rejects_mean_not_matching_channels(self, key, raw):
        # the default source has 4 channels; a mean needs 1 entry or 4
        spec = parse_config_text(one_key(f"backend.{key}", raw))
        latent = resolve_source(spec)
        assert latent.dims.channels == 4
        with pytest.raises(ConfigError) as info:
            build_backend(spec, latent)
        assert info.value.key_path == f"backend.{key}"

    @pytest.mark.parametrize("raw", ["0.5", "0,1,2,3"])
    def test_build_backend_accepts_one_or_channel_count_means(self, raw):
        spec = parse_config_text(one_key("backend.source_mean", raw))
        reg = build_backend(spec, resolve_source(spec))
        assert isinstance(reg.source, GaussianCondition)

    def test_build_backend_toy(self):
        spec = parse_config_text("[backend]\ntype = toy_attention\n")
        latent = resolve_source(spec)
        reg = build_backend(spec, latent)
        assert isinstance(reg.source, ToyAttentionCondition)

    def test_build_edit_config(self):
        spec = parse_config_text("[io]\nbaseline_blend = true\nseed = 9\n")
        latent = resolve_source(spec)
        mask = resolve_mask(spec, latent)
        cfg = build_edit_config(spec, mask)
        assert cfg.baseline_blend is True and cfg.seed == 9
        assert cfg.grid.steps == 25 and cfg.grid.skip == 2

    def test_oversized_recipe_rejected_before_allocating(self):
        # 10^15 float32 values: 3.55 PiB, which numpy refuses at once
        spec = parse_config_text("[io]\nsource = gaussian:1000,1000,1000,1000,1000\n")
        with pytest.raises(ConfigError) as info:
            resolve_source(spec)
        assert info.value.key_path == "io.source"

    def test_recipe_at_the_element_bound_is_accepted(self, monkeypatch):
        monkeypatch.setattr(config, "MAX_ELEMENTS", 60)
        at = parse_config_text("[io]\nsource = gaussian:1,1,3,4,5\n")
        assert resolve_source(at).data.size == 60
        above = parse_config_text("[io]\nsource = gaussian:1,1,3,4,6\n")
        with pytest.raises(ConfigError, match="more than 60 elements") as info:
            resolve_source(above)
        assert info.value.key_path == "io.source"


class TestRunSizeBounds:
    """A spec that asks for more than a run can hold fails by its key before
    anything is allocated."""

    def test_steps_bounded_where_grid_times_stay_distinct(self):
        assert parse_config_text(one_key("grid.steps", str(2**52))).grid.steps == 2**52
        for raw in (str(2**52 + 1), "99999999999999999999"):
            with pytest.raises(ConfigError, match=r"must lie in \[1, 2\*\*52\]") as info:
                parse_config_text(one_key("grid.steps", raw))
            assert info.value.key_path == "grid.steps"

    SMALL = "[io]\nsource = gaussian:1,1,1,3,5\n"  # 15 values

    def test_n_avg_bounded_by_the_working_set(self, monkeypatch):
        monkeypatch.setattr(config, "WORKING_SET_BUDGET", 60)
        # (n_avg + 3) latents of 15 values fit 60 values up to n_avg = 1
        assert resolve_source(parse_config_text(self.SMALL + "[grid]\nn_avg = 1\n"))
        for raw in ("2", "99999999999999999999"):
            spec = parse_config_text(self.SMALL + f"[grid]\nn_avg = {raw}\n")
            with pytest.raises(ConfigError, match="more than 60 values") as info:
                resolve_source(spec)
            assert info.value.key_path == "grid.n_avg"

    def test_oversized_n_avg_fails_the_run_before_it_writes(self, monkeypatch, tmp_path):
        monkeypatch.setattr(config, "WORKING_SET_BUDGET", 60)
        spec = parse_config_text(self.SMALL + f"[grid]\nn_avg = 2\n[io]\nout_dir = {tmp_path}\n")
        outcome = execute_run(spec)
        assert not outcome.ok and "grid.n_avg" in outcome.error
        assert sorted(p.name for p in outcome.out_dir.iterdir()) == [
            "MANIFEST.sha256", "diagnostics.csv", "report.json"
        ]

    @pytest.mark.parametrize("key", ["tokens", "query_dim"])
    def test_toy_size_beyond_numpy_names_its_key(self, key):
        # numpy itself rejects these dims before allocating
        text = f"[backend]\ntype = toy_attention\n{key} = 99999999999999999999\n"
        spec = parse_config_text(text)
        with pytest.raises(ConfigError, match="more than") as info:
            build_backend(spec, resolve_source(spec))
        assert info.value.key_path == f"backend.{key}"

    @pytest.mark.parametrize(
        "tokens,query_dim,fault",
        [
            (4, 4, None),  # (4, 15) logits and queries, (4, 4) keys: 60 values each
            (5, 4, "tokens"),  # (5, 15) logits
            (4, 5, "query_dim"),  # (5, 15) queries
        ],
    )
    def test_toy_buffers_bounded(self, monkeypatch, tokens, query_dim, fault):
        monkeypatch.setattr(config, "WORKING_SET_BUDGET", 60)
        spec = parse_config_text(
            self.SMALL + f"[backend]\ntype = toy_attention\ntokens = {tokens}\n"
            f"query_dim = {query_dim}\n"
        )
        if fault is None:
            assert build_backend(spec, resolve_source(spec)).source.text_keys.shape == (4, 4)
            return
        with pytest.raises(ConfigError, match="more than 60 values") as info:
            build_backend(spec, resolve_source(spec))
        assert info.value.key_path == f"backend.{fault}"

    @pytest.mark.parametrize("tokens,query_dim,fault", [(9, 8, "tokens"), (8, 9, "query_dim")])
    def test_toy_keys_bounded_under_the_larger_key(self, monkeypatch, tokens, query_dim, fault):
        # a one-voxel latent: the (L, d) keys are the largest buffer
        monkeypatch.setattr(config, "WORKING_SET_BUDGET", 64)
        spec = parse_config_text(
            f"[io]\nsource = gaussian:1,1,1,1,1\n[backend]\ntype = toy_attention\n"
            f"tokens = {tokens}\nquery_dim = {query_dim}\n"
        )
        with pytest.raises(ConfigError, match="more than 64 values") as info:
            build_backend(spec, resolve_source(spec))
        assert info.value.key_path == f"backend.{fault}"


class TestResolveFlow:
    SOURCE = "[io]\nsource = gaussian:1,1,3,4,5\n[metrics]\nenable = warp_error\n"

    def spec(self, flow: Path | str) -> RunSpec:
        return parse_config_text(self.SOURCE + f"flow = {flow}\n")

    def test_matching_flow_is_loaded(self, tmp_path):
        flow = np.full((2, 2, 4, 5), 0.25, np.float32)
        write_fatn(tmp_path / "flow.fatn", flow)
        spec = self.spec(tmp_path / "flow.fatn")
        assert np.array_equal(resolve_flow(spec, resolve_source(spec)).data, flow)

    def test_no_flow_without_a_file_or_warp_error(self, tmp_path):
        spec = parse_config_text(self.SOURCE)
        assert resolve_flow(spec, resolve_source(spec)) is None
        unused = parse_config_text(f"[metrics]\nflow = {tmp_path / 'missing.fatn'}\n")
        assert resolve_flow(unused, resolve_source(unused)) is None

    @pytest.mark.parametrize("kind", ["missing", "directory", "empty", "non-finite"])
    def test_unreadable_flow_names_its_key(self, tmp_path, kind):
        path = tmp_path if kind == "directory" else tmp_path / f"{kind}.fatn"
        if kind == "empty":
            path.write_bytes(b"")
        elif kind == "non-finite":
            write_fatn(path, np.full((2, 2, 4, 5), np.nan, np.float32))
        spec = self.spec(path)
        with pytest.raises(ConfigError) as info:
            resolve_flow(spec, resolve_source(spec))
        assert info.value.key_path == "metrics.flow"

    @pytest.mark.parametrize("shape", [(3, 2, 4, 5), (2, 2, 5, 4), (2, 2, 4, 5, 1), (2, 3, 4, 5)])
    def test_flow_not_matching_the_source_names_its_key(self, tmp_path, shape):
        write_fatn(tmp_path / "flow.fatn", np.zeros(shape, np.float32))
        spec = self.spec(tmp_path / "flow.fatn")
        with pytest.raises(ConfigError) as info:
            resolve_flow(spec, resolve_source(spec))
        assert info.value.key_path == "metrics.flow"


class TestRunDir:
    def test_plain_name_joins_out_dir(self):
        spec = parse_config_text("[io]\nscenario = wan.v2\nout_dir = runs\n")
        assert run_dir(spec) == Path("runs") / "wan.v2"

    # a leading dot is kept for the staging directories of runs
    @pytest.mark.parametrize(
        "scenario",
        ["../x", ".", "..", "a/b", "/abs", "", ".hidden", ".run.stage", ".run.old", "a\x00b"],
    )
    def test_scenario_must_be_one_plain_name(self, scenario):
        spec = RunSpec()
        with pytest.raises(ConfigError) as info:
            run_dir(replace(spec, io=replace(spec.io, scenario=scenario)))
        assert info.value.key_path == "io.scenario"

    def test_out_dir_must_hold_no_nul_byte(self):
        # a NUL byte ended run_batch's resolve() or staged()'s mkdir in a ValueError
        with pytest.raises(ConfigError) as info:
            run_dir(with_out_dir(RunSpec(), "runs/a\x00b"))
        assert info.value.key_path == "io.out_dir"


def default_of(section: str, key: str):
    return getattr(getattr(RunSpec(), section), key)


FLOAT_KEYS = (
    "backend.source_mean",
    "backend.target_mean",
    "backend.scale",
    "backend.temperature",
    "sar.beta1",
    "sar.beta2",
    "sar.tau_fraction",
    "amm.gamma",
    "amm.epsilon",
    "metrics.peak",
)


class TestNonFinite:
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_rejected_at_parse(self, key, raw):
        with pytest.raises(ConfigError) as info:
            parse_config_text(one_key(key, raw))
        assert info.value.key_path == key
        assert str(info.value) == f"{key}: expected a finite number, got {raw!r}"

    def test_float_keys_are_the_float_rows(self):
        def is_float(value):
            items = value if isinstance(value, tuple) else (value,)
            return bool(items) and all(isinstance(v, float) for v in items)

        rows = {f"{s}.{k}" for s, k, _ in SCHEMA if is_float(default_of(s, k))}
        assert rows == set(FLOAT_KEYS)


# key: (value, message). Each message is pinned byte for byte: it is what a user
# reads, whichever class holds the bound.
OUT_OF_RANGE = {
    "backend.type": ("oracle", "unknown backend 'oracle'"),
    "backend.scale": ("0", "must be > 0, got 0.0"),
    "backend.tokens": ("0", "must be >= 1, got 0"),
    "backend.query_dim": ("0", "must be >= 1, got 0"),
    "backend.temperature": ("-1", "must be > 0, got -1.0"),
    "backend.target_tokens": ("", "must name at least one token"),
    "grid.steps": ("0", "must lie in [1, 2**52], got 0"),
    "grid.skip": ("-1", "must satisfy 0 <= skip < steps, got -1"),
    "grid.n_avg": ("0", "must be >= 1, got 0"),
    "sar.beta1": ("1.5", "must be in [0, 1], got 1.5"),
    "sar.beta2": ("-0.1", "must be in [0, 1], got -0.1"),
    "sar.tau_fraction": ("0", "must be in (0, 1], got 0.0"),
    "sar.layers": ("0,-1", "indices must be >= 0, got -1"),
    "amm.gamma": ("-0.5", "must be >= 0, got -0.5"),
    "amm.f0": ("1", "must be >= 2, got 1"),
    "amm.epsilon": ("0", "must be > 0, got 0.0"),
    "io.scenario": ("a/b", "must be a plain name, not a path or a dot name, got 'a/b'"),
    "io.out_dir": ("a\x00b", "must not hold a NUL byte, got 'a\\x00b'"),
    "metrics.enable": ("masked_psnr,vibes", "unknown metric 'vibes'"),
    "metrics.peak": ("0", "must be > 0, got 0.0"),
    "metrics.embed_grid": ("0", "must be >= 1, got 0"),
}


class TestRangeChecks:
    @pytest.mark.parametrize("key", list(OUT_OF_RANGE))
    def test_out_of_range_value_names_its_key(self, key):
        raw, message = OUT_OF_RANGE[key]
        with pytest.raises(ConfigError) as info:
            parse_config_text(one_key(key, raw))
        assert info.value.key_path == key
        assert str(info.value) == f"{key}: {message}"

    def test_every_bounded_key_has_a_case(self, section_raises):
        checked = {key for _, keys in section_raises.values() for key in keys}
        assert checked == set(OUT_OF_RANGE)


TEXT = (
    st.text(alphabet=string.ascii_letters + string.digits + " _-./:,=#[]", min_size=1)
    .map(str.strip)
    .filter(bool)
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

# One strategy per SCHEMA row; a callable gets the section's values drawn so far.
ROW_STRATEGIES = {
    "backend.type": st.sampled_from(("gaussian", "toy_attention")),
    "backend.source_mean": st.lists(FINITE, max_size=4).map(tuple),
    "backend.target_mean": st.lists(FINITE, max_size=4).map(tuple),
    "backend.scale": POSITIVE,
    "backend.tokens": st.integers(1, 64),
    "backend.query_dim": st.integers(1, 64),
    "backend.temperature": POSITIVE,
    "backend.model_seed": st.integers(),
    "backend.target_tokens": lambda v: st.lists(
        st.integers(0, v["tokens"] - 1), min_size=1, max_size=4
    ).map(tuple),
    "grid.steps": st.integers(1, 1000),
    "grid.skip": lambda v: st.integers(0, v["steps"] - 1),
    "grid.n_avg": st.integers(1, 16),
    "sar.beta1": st.floats(0.0, 1.0),
    "sar.beta2": st.floats(0.0, 1.0),
    "sar.tau_fraction": st.floats(0.0, 1.0, exclude_min=True),
    "sar.layers": st.none() | st.frozensets(st.integers(0, 64), max_size=4),
    "amm.gamma": st.floats(min_value=0.0, allow_infinity=False),
    "amm.f0": st.integers(min_value=2),
    "amm.epsilon": POSITIVE,
    "io.scenario": TEXT.filter(lambda name: Path(name).name == name and name[0] != "."),
    "io.source": TEXT,
    "io.mask": TEXT,
    "io.out_dir": TEXT,
    "io.seed": st.integers(),
    "io.baseline_blend": st.booleans(),
    "io.save_contrast_maps": st.booleans(),
    "metrics.enable": st.lists(st.sampled_from(KNOWN_METRICS), max_size=5).map(tuple),
    "metrics.flow": st.just("") | TEXT,
    "metrics.peak": POSITIVE,
    "metrics.embed_grid": st.integers(1, 64),
    "metrics.edited": st.just("") | TEXT,
}


# Values no key should take: huge, negative and non-finite numbers, empty text,
# path-like text, and malformed or oversized recipes.
HOSTILE = (
    "99999999999999999999", "-99999999999999999999", "9" * 5000, str(2**63), "-1", "0",
    "1e308", "-1e308", "1e-320", "nan", "NaN", "inf", "-inf", "Infinity",
    "", ",", "../x", ".", "..", "/", "a/b", "~", "/nonexistent/x.fatn", "x.pgm", "out/../..",
    "gaussian:", "gaussian:1,4,5,8", "gaussian:0,4,5,8,8", "gaussian:-1,4,5,8,8",
    "gaussian:99999999999999999999,1,1,1,1", "gaussian:1,4,F,8,8",
    "box:", "box:0:5", "box:5:0,2:6,2:6", "box:0:99999999999999999999,2:6,2:6",
    "box:-1:5,2:6,2:6", "box:a:b,c:d,e:f", "a\x00b",
)
HOSTILE_TEXT = (
    st.integers(-(2**80), 2**80).map(str)
    | st.floats().map(repr)
    | st.text(alphabet="./~-_,:ab0F", max_size=12).map(str.strip)
)
# The key an error may name instead of the hostile key: the one checked against it.
CHECKED_AGAINST = {"grid.steps": "grid.skip", "backend.tokens": "backend.target_tokens"}


def quick_start_with(key: str, raw: str, flow: Path) -> str:
    """The README quick-start config, with ``flow`` for its flow file and
    ``key`` set to ``raw``."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").split("Write `edit.cfg`:", 1)[1].split("```", 2)[1]
    text = text.replace("flow = flow.fatn", f"flow = {flow}")
    section, _, name = key.partition(".")
    lines, current = [], None
    for line in text.splitlines():
        if line.startswith("["):
            current = line[1:-1]
        if current != section or line.partition("=")[0].strip() != name:
            lines.append(line)
        if line == f"[{section}]":
            lines.append(f"{name} = {raw}")
    if f"[{section}]" not in lines:
        lines += [f"[{section}]", f"{name} = {raw}"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def quick_start_flow(tmp_path_factory):
    path = tmp_path_factory.mktemp("flow") / "flow.fatn"
    write_fatn(path, np.zeros((4, 2, 8, 8), np.float32))
    return path


def with_hostile_examples(test):
    for raw in HOSTILE:
        test = example(raw=raw)(test)
    return test


class TestHostileValues:
    """Every value of every key gives run inputs or a ConfigError naming that
    key, from parsing through every resolver."""

    @pytest.mark.parametrize("key", SCHEMA_KEYS)
    @settings(max_examples=25, deadline=None)
    @with_hostile_examples
    @given(raw=HOSTILE_TEXT)
    def test_outcome_is_inputs_or_an_error_naming_the_key(self, quick_start_flow, key, raw):
        text = quick_start_with(key, raw, quick_start_flow)
        # small bounds, so that no accepted value allocates more than a few MiB
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(config, "WORKING_SET_BUDGET", 2**16)
            patch.setattr(config, "MAX_ELEMENTS", 2**16)
            try:
                spec = parse_config_text(text)
                run_dir(spec)
                source = resolve_source(spec)
                mask = resolve_mask(spec, source)
                resolve_flow(spec, source)
                build_backend(spec, source)
                build_edit_config(spec, mask)
            except ConfigError as exc:
                assert exc.key_path in (key, CHECKED_AGAINST.get(key)), str(exc)

    def test_untouched_quick_start_gives_inputs(self, quick_start_flow):
        spec = parse_config_text(quick_start_with("io.seed", "11", quick_start_flow))
        source = resolve_source(spec)
        assert resolve_flow(spec, source).data.shape == (4, 2, 8, 8)
        assert build_edit_config(spec, resolve_mask(spec, source)).mask.data.sum() == 5 * 4 * 4


@st.composite
def run_specs(draw):
    parts = {}
    for section, rows in groupby(SCHEMA, key=lambda row: row[0]):
        values = {}
        for _, key, _ in rows:
            strategy = ROW_STRATEGIES[f"{section}.{key}"]
            values[key] = draw(strategy(values) if callable(strategy) else strategy)
        parts[section] = type(getattr(RunSpec(), section))(**values)
    return RunSpec(**parts)


DEFAULT_TEXT = """[backend]
type = gaussian
source_mean = 0.0
target_mean = 0.5
scale = 1.0
tokens = 6
query_dim = 4
temperature = 2.0
model_seed = 7
target_tokens = 0

[grid]
steps = 25
skip = 2
n_avg = 1

[sar]
beta1 = 0.3
beta2 = 0.3
tau_fraction = 0.6
layers = all

[amm]
gamma = 1.0
f0 = 21
epsilon = 1e-07

[io]
scenario = run
source = gaussian:1,4,5,8,8
mask = ones
out_dir = out
seed = 0
baseline_blend = false
save_contrast_maps = false

[metrics]
enable = masked_psnr,frame_consistency,local_structure
peak = 1.0
embed_grid = 8
"""


class TestSchemaRoundTrip:
    def test_strategies_cover_schema(self):
        assert list(ROW_STRATEGIES) == SCHEMA_KEYS

    @settings(max_examples=200, deadline=None)
    @given(spec=run_specs())
    def test_parse_inverts_emit(self, spec):
        assert parse_config_text(emit_config(spec)) == spec

    @settings(max_examples=100, deadline=None)
    @given(spec=run_specs())
    def test_echo_is_the_emitted_lines(self, spec):
        pairs, section = [], None
        for line in emit_config(spec).splitlines():
            if line.startswith("["):
                section = line[1:-1]
            elif line:
                key, _, value = line.partition(" = ")
                pairs.append((f"{section}.{key}", value))
        assert list(config_echo(spec).items()) == pairs

    def test_default_text_is_pinned(self):
        assert emit_config(RunSpec()) == DEFAULT_TEXT
        assert parse_config_text("") == RunSpec()

    def test_optional_metrics_paths_are_placed(self):
        spec = RunSpec()
        spec = replace(spec, metrics=replace(spec.metrics, flow="f.fatn", edited="e.fatn"))
        head, _, metrics = emit_config(spec).partition("[metrics]\n")
        assert head == DEFAULT_TEXT.partition("[metrics]\n")[0]
        assert metrics == (
            "enable = masked_psnr,frame_consistency,local_structure\n"
            "flow = f.fatn\npeak = 1.0\nembed_grid = 8\nedited = e.fatn\n"
        )

    def test_only_unset_optional_paths_are_omitted(self):
        echo = config_echo(with_out_dir(RunSpec(), ""))
        assert echo["io.out_dir"] == ""
        assert "metrics.flow" not in echo and "metrics.edited" not in echo


class TestReadmeReference:
    def test_table_lists_schema_keys_with_defaults(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8").split("## Configuration reference", 1)[1]
        reference = text.split("\n## ", 1)[0]
        rows = [line.split("|")[1:3] for line in reference.splitlines() if line.startswith("| `")]
        keys = [key.strip().strip("`") for key, _ in rows]
        assert keys == SCHEMA_KEYS
        echo = config_echo(RunSpec())
        assert [d.strip().strip("`") for _, d in rows] == [echo.get(k, "-") for k in keys]
