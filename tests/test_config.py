import string
from dataclasses import replace
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    resolve_mask,
    resolve_source,
    with_out_dir,
)
from flowsteer.errors import ConfigError

SCHEMA_KEYS = [f"{section}.{key}" for section, key, *_ in SCHEMA]


def one_key(key: str, raw: str) -> str:
    section, _, name = key.partition(".")
    return f"[{section}]\n{name} = {raw}\n"


class TestDefaults:
    def test_empty_config_gives_documented_defaults(self):
        spec = parse_config_text("")
        assert spec.steps == 25 and spec.skip == 2 and spec.n_avg == 1
        assert spec.sar.beta1 == 0.3 and spec.sar.beta2 == 0.3
        assert spec.sar.tau_fraction == 0.6
        assert spec.amm.gamma == 1.0 and spec.amm.f0 == 21 and spec.amm.epsilon == 1e-7

    def test_gamma_omitted_defaults_to_one(self):
        spec = parse_config_text("[amm]\nf0 = 13\n")
        assert spec.amm.gamma == 1.0 and spec.amm.f0 == 13

    def test_comments_and_blanks_ignored(self):
        text = "# top comment\n\n[grid]\n# inner\nsteps = 10\n"
        assert parse_config_text(text).steps == 10


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
        with pytest.raises(ConfigError, match="backend.target_tokens"):
            parse_config_text("[backend]\ntokens = 3\ntarget_tokens = 5\n")

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
        spec = parse_config_text("[io]\nsource = gaussian:1,2,F,4,4\n")
        latent = resolve_source(spec, frames=7)
        assert latent.dims.frames == 7

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


def default_of(section: str, attr: str):
    spec = RunSpec()
    return getattr(spec if section == "grid" else getattr(spec, section), attr)


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

        rows = {f"{s}.{k}" for s, k, attr, _, _ in SCHEMA if is_float(default_of(s, attr))}
        assert rows == set(FLOAT_KEYS)


OUT_OF_RANGE = {
    "backend.type": "oracle",
    "backend.scale": "0",
    "backend.tokens": "0",
    "backend.query_dim": "0",
    "backend.temperature": "-1",
    "backend.target_tokens": "",
    "grid.steps": "0",
    "grid.skip": "-1",
    "grid.n_avg": "0",
    "sar.beta1": "1.5",
    "sar.beta2": "-0.1",
    "sar.tau_fraction": "0",
    "sar.layers": "0,-1",
    "amm.gamma": "-0.5",
    "amm.f0": "1",
    "amm.epsilon": "0",
    "metrics.enable": "masked_psnr,vibes",
    "metrics.peak": "0",
    "metrics.embed_grid": "0",
}


class TestRangeChecks:
    @pytest.mark.parametrize("key", list(OUT_OF_RANGE))
    def test_out_of_range_value_names_its_key(self, key):
        with pytest.raises(ConfigError) as info:
            parse_config_text(one_key(key, OUT_OF_RANGE[key]))
        assert info.value.key_path == key

    def test_every_bounded_key_has_a_case(self):
        checked = {f"{s}.{k}" for s, k, _, _, check in SCHEMA if check is not None}
        stabilizers = {key for key in SCHEMA_KEYS if key.startswith(("sar.", "amm."))}
        assert checked | stabilizers == set(OUT_OF_RANGE)


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
    "io.scenario": TEXT,
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


@st.composite
def run_specs(draw):
    spec = RunSpec()
    for section, rows in groupby(SCHEMA, key=lambda row: row[0]):
        values = {}
        for _, key, attr, _, _ in rows:
            strategy = ROW_STRATEGIES[f"{section}.{key}"]
            values[attr] = draw(strategy(values) if callable(strategy) else strategy)
        if section == "grid":
            spec = replace(spec, **values)
        else:
            spec = replace(spec, **{section: replace(getattr(spec, section), **values)})
    return spec


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
