import json

import numpy as np
import pytest

from flowsteer.cli import main as cli_main
from flowsteer.config import parse_config_text, with_out_dir, with_seed
from flowsteer.core import read_fatn
from flowsteer.errors import ConfigError
from flowsteer.runner import (
    WORKERS_ENV_VAR,
    execute_run,
    quantize_contrast,
    resolve_workers,
    run_batch,
)

NULL_EDIT = """
[backend]
type = gaussian
source_mean = 0.4
target_mean = 0.4

[grid]
steps = 8
skip = 1

[io]
scenario = nulledit
source = gaussian:1,2,3,4,4
seed = 12
"""

SHIFT_EDIT = """
[backend]
type = gaussian
source_mean = 0.0
target_mean = 0.8

[grid]
steps = 8
skip = 1

[io]
scenario = shift
source = gaussian:1,2,3,4,4
mask = box:0:3,1:3,1:3
seed = 12
save_contrast_maps = true
"""


def spec_in(text, tmp_path, name="out"):
    return with_out_dir(parse_config_text(text), str(tmp_path / name))


class TestRunBatch:
    def test_same_seed_byte_identical_results(self, tmp_path):
        # the same spec run twice emits identical bytes for every artifact
        spec = spec_in(SHIFT_EDIT, tmp_path)
        status, (first,) = run_batch([spec])
        assert status == 0
        files = ["result.fatn", "report.json", "diagnostics.csv", "source.fatn"]
        snapshot = {name: (first.out_dir / name).read_bytes() for name in files}
        status, (second,) = run_batch([spec])
        assert status == 0
        for name in files:
            assert (second.out_dir / name).read_bytes() == snapshot[name]

    def test_same_seed_same_tensors_across_directories(self, tmp_path):
        a = spec_in(SHIFT_EDIT, tmp_path, "a")
        b = spec_in(SHIFT_EDIT, tmp_path, "b")
        status, outcomes = run_batch([a, b], workers=2)
        assert status == 0 and all(o.ok for o in outcomes)
        for name in ("result.fatn", "source.fatn", "diagnostics.csv"):
            assert (outcomes[0].out_dir / name).read_bytes() == (
                outcomes[1].out_dir / name
            ).read_bytes()

    @pytest.mark.parametrize("other_out", ["out", "out/../out", "./x/../out"])
    def test_duplicate_run_directory_rejected_before_any_run(self, tmp_path, other_out):
        first = spec_in(SHIFT_EDIT, tmp_path)
        dup = with_seed(with_out_dir(first, str(tmp_path / other_out)), 99)
        other = spec_in(NULL_EDIT, tmp_path)
        with pytest.raises(ConfigError) as err:
            run_batch([first, other, dup], workers=2)
        assert err.value.key_path == "io.scenario"
        message = str(err.value)
        assert "'shift'" in message and str((tmp_path / "out" / "shift").resolve()) in message
        assert not (tmp_path / "out").exists()

    def test_null_edit_result_equals_input_bytes(self, tmp_path):
        spec = spec_in(NULL_EDIT, tmp_path)
        status, outcomes = run_batch([spec])
        assert status == 0
        run_dir = outcomes[0].out_dir
        assert (run_dir / "result.fatn").read_bytes() == (run_dir / "source.fatn").read_bytes()

    def test_failure_recorded_and_nonzero_exit(self, tmp_path):
        bad = spec_in(NULL_EDIT.replace("gaussian:1,2,3,4,4", "/missing/input.fatn"), tmp_path)
        status, outcomes = run_batch([bad])
        assert status == 1 and not outcomes[0].ok
        doc = json.loads((outcomes[0].out_dir / "report.json").read_text())
        assert doc["status"] == "error" and "io.source" in doc["error"]
        assert doc["steps"] == []

    def test_report_reemission_identical(self, tmp_path):
        spec = spec_in(SHIFT_EDIT, tmp_path)
        outcome = execute_run(spec)
        first = (outcome.out_dir / "report.json").read_bytes()
        outcome2 = execute_run(spec)
        assert (outcome2.out_dir / "report.json").read_bytes() == first

    def test_report_shape(self, tmp_path):
        spec = spec_in(SHIFT_EDIT, tmp_path)
        outcome = execute_run(spec)
        doc = json.loads((outcome.out_dir / "report.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["config"]["grid.steps"] == "8"
        assert len(doc["steps"]) == 7
        assert {"index", "t", "dt", "mean_abs", "mean_abs_amm", "iou"} <= set(doc["steps"][0])
        assert doc["metrics"]["masked_psnr"] > 0
        assert doc["result"]["dims"] == [1, 2, 3, 4, 4]

    def test_contrast_pgms_written(self, tmp_path):
        spec = spec_in(SHIFT_EDIT, tmp_path)
        outcome = execute_run(spec)
        pgms = sorted(outcome.out_dir.glob("contrast_step_*.pgm"))
        assert len(pgms) == 7

    def test_constant_signal_contrast_is_black(self, tmp_path):
        # a null edit has an exactly-zero signal; its contrast map is black
        from flowsteer.core import read_pgm

        spec = spec_in(NULL_EDIT + "save_contrast_maps = true\n", tmp_path)
        outcome = execute_run(spec)
        pgms = sorted(outcome.out_dir.glob("contrast_step_*.pgm"))
        assert pgms
        img = read_pgm(pgms[0])
        assert (img == 0).all()

    def test_diagnostics_csv_layout(self, tmp_path):
        spec = spec_in(SHIFT_EDIT, tmp_path)
        outcome = execute_run(spec)
        text = (outcome.out_dir / "diagnostics.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "F,step,mean_abs,iou,gamma_f"
        assert len(lines) == 8
        assert "\r" not in text

    def test_seed_override_changes_results(self, tmp_path):
        base = spec_in(SHIFT_EDIT, tmp_path, "s1")
        reseeded = with_seed(spec_in(SHIFT_EDIT, tmp_path, "s2"), 999)
        _, (o1,) = run_batch([base])
        _, (o2,) = run_batch([reseeded])
        a = read_fatn(o1.out_dir / "result.fatn")
        b = read_fatn(o2.out_dir / "result.fatn")
        assert not np.array_equal(a, b)


class TestWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers(1) == 3

    def test_env_invalid(self, monkeypatch):
        from flowsteer.errors import ConfigError

        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(ConfigError):
            resolve_workers(1)

    def test_default_floor(self):
        assert resolve_workers(0) == 1


class TestQuantize:
    def test_endpoints(self):
        plane = np.array([[0.0, 1.0, 0.5]])
        assert quantize_contrast(plane).tolist() == [[0, 255, 128]]


class TestCli:
    def test_edit_and_metrics_commands(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SHIFT_EDIT + f"\nout_dir = {tmp_path / 'cli'}\n", encoding="utf-8")
        assert cli_main(["edit", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "shift: ok" in out
        assert cli_main(["metrics", str(cfg_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "masked_psnr" in doc

    def test_sweep_command(self, tmp_path, capsys):
        text = SHIFT_EDIT.replace("gaussian:1,2,3,4,4", "gaussian:1,2,F,4,4").replace(
            "mask = box:0:3,1:3,1:3", "mask = ones"
        )
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(text + f"\nout_dir = {tmp_path / 'sw'}\n", encoding="utf-8")
        assert cli_main(["sweep", str(cfg_path), "--frames", "1,3"]) == 0
        csv_path = tmp_path / "sw" / "shift" / "sweep.csv"
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "F,step,mean_abs,iou,gamma_f"
        assert len(lines) == 1 + 7 * 2

    def test_edit_failure_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("[io]\nsource = /missing.fatn\n", encoding="utf-8")
        assert cli_main(["edit", str(cfg_path), "--out", str(tmp_path / "o")]) == 1

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad2.cfg"
        cfg_path.write_text("[sar]\nbeta1 = 7\n", encoding="utf-8")
        assert cli_main(["edit", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "argv", [["edit"], ["metrics"], ["sweep", "--frames", "1"]], ids=lambda a: a[0]
    )
    def test_missing_config_file_exit_code(self, tmp_path, capsys, argv):
        missing = tmp_path / "missing.cfg"
        assert cli_main([argv[0], str(missing), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    @pytest.mark.parametrize("frames", ["1,x", "", " , "])
    def test_bad_frames_exit_code(self, tmp_path, capsys, frames):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(SHIFT_EDIT + f"\nout_dir = {tmp_path / 'sw'}\n", encoding="utf-8")
        assert cli_main(["sweep", str(cfg_path), "--frames", frames]) == 2
        assert capsys.readouterr().err.startswith("error: --frames")
        assert not (tmp_path / "sw").exists()
