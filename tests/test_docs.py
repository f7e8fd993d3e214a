"""The README's artifact table names exactly the files a run writes, so the two
cannot drift apart."""

import re
from dataclasses import replace
from pathlib import Path

from flowsteer.config import parse_config_text, with_out_dir
from flowsteer.runner import execute_run

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_config(text: str) -> str:
    """The code block that follows "Write `edit.cfg`:"."""
    return text.split("Write `edit.cfg`:", 1)[1].split("```", 2)[1]


def artifact_table(text: str) -> set[str]:
    """The file names in the first column of the "| file | contents |" table."""
    table = text.split("| file | contents |", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"^\| `([^`]+)` \|", table, re.MULTILINE))


def test_artifact_table_names_the_files_of_the_quick_start_run(tmp_path):
    text = README.read_text(encoding="utf-8")
    spec = with_out_dir(parse_config_text(quick_start_config(text)), str(tmp_path))
    assert spec.io.save_contrast_maps
    # warp_error needs a flow file, which the quick start does not create
    enable = tuple(name for name in spec.metrics.enable if name != "warp_error")
    spec = replace(spec, metrics=replace(spec.metrics, enable=enable, flow=""))
    outcome = execute_run(spec)
    assert outcome.ok, outcome.error
    assert {p.name for p in outcome.out_dir.iterdir()} == artifact_table(text)
