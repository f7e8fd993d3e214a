import ast
import inspect
import textwrap
import warnings
from dataclasses import fields

import numpy as np
import pytest

from flowsteer import RngStream, VideoLatent
from flowsteer.config import RunSpec

# Hypothesis imports its patch writer (and through it libcst and mypy_extensions)
# only when a @given test fails; under filterwarnings = error the DeprecationWarning
# of that import would stop the whole session with INTERNALERROR. Import it here,
# with that third-party warning silenced, so a failing property test is reported
# as a failure and the tests after it still run.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def rng():
    return RngStream(2024)


def random_latent(rng: RngStream, dims=(1, 2, 3, 4, 4), scale=1.0) -> VideoLatent:
    data = (rng.normals(int(np.prod(dims))) * scale).astype(np.float32)
    return VideoLatent(data.reshape(dims))


@pytest.fixture
def make_latent(rng):
    def _make(dims=(1, 2, 3, 4, 4), scale=1.0):
        return random_latent(rng, dims, scale)

    return _make


# Row-reduction oracle grid: voxel counts of the test, desk, SAR-box and toy_attn
# scales, and token counts on both sides of 8- and 16-lane SIMD widths.
ORACLE_VOXELS = (1, 320, 2048, 16384)
ORACLE_TOKENS = (1, 2, 6, 7, 8, 9, 16, 17, 77)


def _signs(gen, n):
    return np.where(gen.random(n) < 0.5, np.float32(-0.0), np.float32(0.0))


def _row_patterns(kind: str):
    """Row builders (tokens, generator) -> float32 row for one kind of special row."""
    if kind == "finite":
        return [
            lambda n, g: np.full(n, 1.5, np.float32),
            lambda n, g: np.where(g.random(n) < 0.5, np.float32(2.0), np.float32(-1.0)),
            lambda n, g: (g.standard_normal(n) * 1e30).astype(np.float32),
        ]
    if kind == "nonfinite":

        def put(*values):
            def build(n, g):
                row = g.standard_normal(n).astype(np.float32)
                row[g.permutation(n)[: len(values)]] = values[:n]
                return row

            return build

        return [
            put(np.nan),
            put(np.inf),
            put(-np.inf),
            put(np.inf, -np.inf),
            put(np.nan, np.inf, -np.inf),
            lambda n, g: np.full(n, -np.inf, np.float32),
            lambda n, g: np.full(n, np.inf, np.float32),
        ]
    if kind == "signed_zero":

        def zero_ties(sign):
            def build(n, g):
                row = (sign * np.abs(g.standard_normal(n))).astype(np.float32)
                hit = g.random(n) < 0.5
                hit[g.integers(n)] = True
                row[hit] = _signs(g, int(hit.sum()))
                return row

            return build

        return [lambda n, g: _signs(g, n), zero_ties(-1.0), zero_ties(1.0)]
    raise ValueError(kind)


def special_logits(voxels: int, tokens: int, kind: str, seed: int = 0) -> np.ndarray:
    """float32 (voxels, tokens) normals; every third row is a special row of ``kind``.

    ``finite``: all-equal rows, rows of tied nonzero extrema, huge values.
    ``nonfinite``: rows holding NaN, +inf and/or -inf, and all-inf rows.
    ``signed_zero``: rows whose max or min is a tie of +0.0 and -0.0.
    """
    gen = np.random.default_rng([seed, voxels, tokens])
    logits = gen.standard_normal((voxels, tokens)).astype(np.float32)
    patterns = _row_patterns(kind)
    for k, row in enumerate(range(0, voxels, 3)):
        logits[row] = patterns[k % len(patterns)](tokens, gen)
    return logits


@pytest.fixture(scope="session")
def section_raises():
    """Per config section, its dataclass and the first argument of every
    ``raise ConfigError(...)`` in that dataclass's ``__post_init__``: the key
    text, or None where it is not a string literal."""
    raises = {}
    for part in fields(RunSpec):
        kind = part.default_factory
        tree = ast.parse(textwrap.dedent(inspect.getsource(kind.__post_init__)))
        raises[part.name] = (kind, [
            node.exc.args[0].value if isinstance(node.exc.args[0], ast.Constant) else None
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and getattr(node.exc, "func", None) is not None
            and getattr(node.exc.func, "id", None) == "ConfigError"
        ])
    return raises
