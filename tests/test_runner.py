import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flowsteer import core, metrics, runner
from flowsteer.cli import main as cli_main
from flowsteer.config import (
    build_backend,
    build_edit_config,
    parse_config_text,
    resolve_mask,
    resolve_source,
    with_out_dir,
    with_seed,
)
from flowsteer.core import read_fatn, read_pgm, write_fatn
from flowsteer.engine import run_edit
from flowsteer.errors import ConfigError, MetricUndefinedError
from flowsteer.runner import execute_run, quantize_contrast, run_batch

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
        # the same spec run twice writes the same files, with identical bytes
        spec = spec_in(SHIFT_EDIT, tmp_path)
        status, (first,) = run_batch([spec])
        assert status == 0
        files = sorted(p.name for p in first.out_dir.iterdir())
        assert "contrast.pgm" in files
        snapshot = {name: (first.out_dir / name).read_bytes() for name in files}
        status, (second,) = run_batch([spec])
        assert status == 0
        assert sorted(p.name for p in second.out_dir.iterdir()) == files
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

    def test_multi_chunk_draws_on_two_workers_match_one(self, tmp_path, monkeypatch):
        # every draw spans several RNG chunks, so both runs' draws, chunk helpers
        # and next-step draws share one pool; a pool task waiting on another
        # would hang here instead of finishing
        monkeypatch.setattr(core, "_CHUNK_PAIRS", 4)

        def batch(workers):
            base = spec_in(SHIFT_EDIT, tmp_path)
            specs = [with_seed(base, seed) for seed in (3, 4, 5, 6)]
            specs = [replace(s, io=replace(s.io, scenario=f"s{s.io.seed}")) for s in specs]
            done = []
            thread = threading.Thread(target=lambda: done.append(run_batch(specs, workers)))
            thread.start()
            thread.join(timeout=120)
            assert not thread.is_alive(), f"run_batch(workers={workers}) did not finish"
            status, outcomes = done[0]
            assert status == 0
            return [
                {name: (o.out_dir / name).read_bytes() for name in ("result.fatn", "report.json")}
                for o in outcomes
            ]

        assert batch(2) == batch(1)

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

    @pytest.mark.parametrize("flow", ["missing", "wrong-shape"])
    def test_bad_flow_fails_the_run_before_the_edit(self, tmp_path, monkeypatch, flow):
        # a missing flow used to surface as a bare FileNotFoundError after the edit
        path = tmp_path / "flow.fatn"
        if flow == "wrong-shape":
            write_fatn(path, np.zeros((3, 2, 4, 4), np.float32))  # F-1 = 2 frame pairs
        edits = []
        monkeypatch.setattr(runner, "run_edit", lambda *args: edits.append(args))
        text = SHIFT_EDIT + f"\n[metrics]\nenable = warp_error\nflow = {path}\n"
        outcome = execute_run(spec_in(text, tmp_path))
        assert not outcome.ok and "metrics.flow" in outcome.error
        assert edits == []
        doc = json.loads((outcome.out_dir / "report.json").read_text())
        assert doc["status"] == "error" and doc["error"].startswith("ConfigError: metrics.flow")
        assert not (outcome.out_dir / "result.fatn").exists()

    def test_warp_error_without_a_flow_reports_why(self, tmp_path):
        outcome = execute_run(spec_in(SHIFT_EDIT + "\n[metrics]\nenable = warp_error\n", tmp_path))
        assert outcome.ok
        doc = json.loads((outcome.out_dir / "report.json").read_text())
        assert doc["metrics"] == {"warp_error": {"error": "no flow file configured"}}

    @pytest.mark.parametrize(
        "old,new,metric,reason",
        [
            ("box:0:3,1:3,1:3", "ones", "masked_psnr", "mask covers everything; no unedited region"),
            ("3,4,4\nmask = box:0:3", "1,4,4\nmask = box:0:1", "frame_consistency", "needs at least two frames"),
            ("box:0:3,1:3,1:3", "zeros", "local_structure", "mask is empty; no region to compare"),
        ],
        ids=["full-mask", "one-frame", "empty-mask"],
    )
    def test_undefined_metric_reports_why(self, tmp_path, old, new, metric, reason):
        text = SHIFT_EDIT.replace(old, new)
        outcome = execute_run(spec_in(text + f"\n[metrics]\nenable = {metric}\n", tmp_path))
        assert outcome.ok
        raw = (outcome.out_dir / "report.json").read_text()
        assert f'"{metric}": {{\n      "error": "{reason}"\n    }}' in raw
        assert json.loads(raw)["metrics"] == {metric: {"error": reason}}

    def test_metric_undefined_error_is_recorded_and_others_fail_the_run(
        self, tmp_path, monkeypatch
    ):
        def undefined(*args):
            raise MetricUndefinedError("made up reason")

        monkeypatch.setitem(metrics.METRICS, "masked_psnr", undefined)
        outcome = execute_run(spec_in(SHIFT_EDIT, tmp_path))
        doc = json.loads((outcome.out_dir / "report.json").read_text())
        assert outcome.ok and doc["metrics"]["masked_psnr"] == {"error": "made up reason"}

        def broken(*args):
            raise ValueError("not a reason")

        monkeypatch.setitem(metrics.METRICS, "masked_psnr", broken)
        outcome = execute_run(spec_in(SHIFT_EDIT, tmp_path))
        assert not outcome.ok and outcome.error == "ValueError: not a reason"
        assert not (outcome.out_dir / "result.fatn").exists()

    def test_flow_that_leaves_the_frame_is_a_metric_entry(self, tmp_path, capsys):
        # every cell's source position lies 100 px away, so no cell can be compared
        path = tmp_path / "flow.fatn"
        write_fatn(path, np.full((4, 2, 8, 8), 100.0, np.float32))
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "[backend]\ntype = toy_attention\ntarget_tokens = 2,3\n"
            f"[io]\nscenario = demo\nsource = gaussian:1,4,5,8,8\nmask = box:0:5,2:6,2:6\n"
            f"out_dir = {tmp_path / 'out'}\nseed = 11\n"
            f"[metrics]\nenable = masked_psnr,warp_error\nflow = {path}\n",
            encoding="utf-8",
        )
        entry = {"error": "flow pushed every cell out of frame; nothing to compare"}
        assert cli_main(["edit", str(cfg_path)]) == 0
        assert "demo: ok" in capsys.readouterr().out
        run = tmp_path / "out" / "demo"
        assert (run / "result.fatn").exists()
        doc = json.loads((run / "report.json").read_text())
        assert doc["status"] == "ok" and doc["metrics"]["warp_error"] == entry
        assert cli_main(["metrics", str(cfg_path)]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out) == doc["metrics"] and err == ""

    def test_warp_error_with_a_matching_flow(self, tmp_path, capsys):
        path = tmp_path / "flow.fatn"
        write_fatn(path, np.zeros((2, 2, 4, 4), np.float32))
        text = SHIFT_EDIT + f"out_dir = {tmp_path / 'cli'}\n"
        text += f"[metrics]\nenable = warp_error\nflow = {path}\n"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        assert cli_main(["edit", str(cfg_path)]) == 0
        doc = json.loads((tmp_path / "cli" / "shift" / "report.json").read_text())
        capsys.readouterr()
        assert cli_main(["metrics", str(cfg_path)]) == 0
        assert json.loads(capsys.readouterr().out) == doc["metrics"]
        assert doc["metrics"]["warp_error"]["compared_cells"] == 2 * 4 * 4
        path.unlink()
        assert cli_main(["metrics", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: metrics.flow: ")

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

    def test_contrast_pgm_stacks_every_step_in_diagnostics_order(self, tmp_path):
        spec = spec_in(SHIFT_EDIT, tmp_path)
        outcome = execute_run(spec)
        assert [p.name for p in outcome.out_dir.glob("contrast*")] == ["contrast.pgm"]
        img = read_pgm(outcome.out_dir / "contrast.pgm")
        source = resolve_source(spec)
        cfg = build_edit_config(spec, resolve_mask(spec, source))
        _, report = run_edit(source, cfg, build_backend(spec, source))
        frames, height, width = source.dims.frames, source.dims.height, source.dims.width
        assert img.shape == (len(report.steps) * frames * height, width) == (7 * 3 * 4, 4)
        rows = (outcome.out_dir / "diagnostics.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == len(report.steps)
        bands = img.reshape(len(rows), frames * height, width)
        for band, row, rec in zip(bands, rows, report.steps):
            assert int(row.split(",")[1]) == rec.index
            assert np.array_equal(band, quantize_contrast(rec.contrast[0, 0].reshape(-1, width)))
        assert len(np.unique(bands)) > 1

    def test_constant_signal_contrast_is_black(self, tmp_path):
        # a null edit has an exactly-zero signal; its contrast map is black
        spec = spec_in(NULL_EDIT + "save_contrast_maps = true\n", tmp_path)
        outcome = execute_run(spec)
        img = read_pgm(outcome.out_dir / "contrast.pgm")
        assert img.shape == (7 * 3 * 4, 4) and (img == 0).all()

    def test_no_contrast_file_unless_asked_for(self, tmp_path):
        spec = spec_in(SHIFT_EDIT.replace("save_contrast_maps = true", ""), tmp_path)
        outcome = execute_run(spec)
        assert outcome.ok and list(outcome.out_dir.glob("contrast*")) == []
        assert sorted(p.name for p in outcome.out_dir.iterdir()) == [
            "MANIFEST.sha256", "diagnostics.csv", "report.json", "result.fatn", "source.fatn"
        ]

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


def assert_manifest_verifies(run):
    """MANIFEST.sha256 lists every other file of ``run`` in sha256sum format:
    a hex digest, two spaces and the name, one line per file in name order."""
    expected = "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
        for path in sorted(run.iterdir())
        if path.name != "MANIFEST.sha256"
    )
    assert (run / "MANIFEST.sha256").read_text(encoding="utf-8") == expected


class TestRunDirectory:
    """A run directory holds the files of exactly one run, with a manifest of
    them, whatever an earlier run left there or how this one ends."""

    @staticmethod
    def snapshot(run):
        return {p.name: p.read_bytes() for p in run.iterdir()}

    def test_failed_rerun_leaves_only_its_own_files(self, tmp_path):
        first = execute_run(spec_in(SHIFT_EDIT, tmp_path))
        assert first.ok and (first.out_dir / "contrast.pgm").exists()
        text = SHIFT_EDIT + f"\n[metrics]\nenable = warp_error\nflow = {tmp_path / 'no.fatn'}\n"
        second = execute_run(spec_in(text, tmp_path))
        assert not second.ok and "metrics.flow" in second.error
        assert second.out_dir == first.out_dir == tmp_path / "out" / "shift"
        assert sorted(p.name for p in second.out_dir.iterdir()) == [
            "MANIFEST.sha256", "diagnostics.csv", "report.json"
        ]
        assert_manifest_verifies(second.out_dir)
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["shift"]

    @pytest.mark.parametrize("spec_text", [SHIFT_EDIT, NULL_EDIT], ids=["shift", "null"])
    def test_manifest_lists_every_other_file(self, tmp_path, spec_text):
        outcome = execute_run(spec_in(spec_text, tmp_path))
        assert outcome.ok
        assert_manifest_verifies(outcome.out_dir)

    @pytest.mark.parametrize("crash_at", [1, 2])
    def test_crash_while_writing_keeps_the_previous_directory(
        self, tmp_path, monkeypatch, crash_at
    ):
        spec = spec_in(SHIFT_EDIT, tmp_path)
        before = self.snapshot(execute_run(spec).out_dir)
        calls = []

        def crashing_save(latent, path):
            calls.append(path)
            if len(calls) == crash_at:
                Path(path).write_bytes(b"FATN partial")
                raise RuntimeError("interrupted")
            core.save_tensor(latent, path)

        monkeypatch.setattr(runner, "save_tensor", crashing_save)
        with pytest.raises(RuntimeError, match="interrupted"):
            execute_run(with_seed(spec, 99))
        run = tmp_path / "out" / "shift"
        assert self.snapshot(run) == before
        assert_manifest_verifies(run)
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["shift"]

    def test_crash_on_a_first_run_leaves_no_directory(self, tmp_path, monkeypatch):
        def crashing_save(latent, path):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "save_tensor", crashing_save)
        with pytest.raises(KeyboardInterrupt):
            execute_run(spec_in(SHIFT_EDIT, tmp_path))
        assert list((tmp_path / "out").iterdir()) == []

    def test_leftovers_of_an_interrupted_swap_are_swept(self, tmp_path):
        # a process killed between the two renames leaves the old directory
        # aside and a staged one, and no run directory
        out = tmp_path / "out"
        for leftover in (".shift.stage", ".shift.old"):
            (out / leftover).mkdir(parents=True)
            (out / leftover / "result.fatn").write_bytes(b"stale")
        outcome = execute_run(spec_in(SHIFT_EDIT, tmp_path))
        assert outcome.ok
        assert [p.name for p in out.iterdir()] == ["shift"]
        assert_manifest_verifies(outcome.out_dir)

    def test_memory_error_is_reported(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError("cannot hold the working set")

        monkeypatch.setattr(runner, "run_edit", exhausted)
        spec = spec_in(SHIFT_EDIT, tmp_path)
        status, (outcome,) = run_batch([spec])
        assert status == 1 and outcome.error == "MemoryError: cannot hold the working set"
        doc = json.loads((outcome.out_dir / "report.json").read_text())
        assert doc["status"] == "error" and doc["error"] == outcome.error
        assert_manifest_verifies(outcome.out_dir)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SHIFT_EDIT + f"\nout_dir = {tmp_path / 'cli'}\n", encoding="utf-8")
        assert cli_main(["edit", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert "shift: FAILED (MemoryError: cannot hold the working set)" in out
        assert "Traceback" not in out + err

    def test_sweep_replaces_the_run_directory(self, tmp_path, capsys):
        text = SHIFT_EDIT.replace("gaussian:1,2,3,4,4", "gaussian:1,2,F,4,4").replace(
            "mask = box:0:3,1:3,1:3", "mask = ones"
        )
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(text + f"\nout_dir = {tmp_path / 'sw'}\n", encoding="utf-8")
        run = tmp_path / "sw" / "shift"
        assert cli_main(["edit", str(cfg_path)]) == 1  # the recipe's F is not a number
        assert cli_main(["sweep", str(cfg_path), "--frames", "1,3"]) == 0
        assert sorted(p.name for p in run.iterdir()) == ["MANIFEST.sha256", "sweep.csv"]
        assert_manifest_verifies(run)
        before = self.snapshot(run)
        assert cli_main(["sweep", str(cfg_path), "--frames", "3,x"]) == 2
        assert cli_main(["sweep", str(cfg_path).replace("sweep.cfg", "none.cfg"), "--frames", "3"]) == 2
        assert self.snapshot(run) == before
        assert [p.name for p in (tmp_path / "sw").iterdir()] == ["shift"]


class TestWorkers:
    def test_default_floor(self, tmp_path, monkeypatch):
        # fewer than one worker runs the batch in order on the calling thread
        threads = []

        def recording_run(spec):
            threads.append(threading.get_ident())
            return execute_run(spec)

        monkeypatch.setattr(runner, "execute_run", recording_run)
        specs = [spec_in(NULL_EDIT, tmp_path, name) for name in ("a", "b")]
        status, outcomes = run_batch(specs, workers=0)
        assert status == 0 and [o.scenario for o in outcomes] == [s.io.scenario for s in specs]
        assert threads == [threading.get_ident()] * 2


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

    @pytest.mark.parametrize(
        "argv", [["edit"], ["metrics"], ["sweep", "--frames", "1"]], ids=lambda a: a[0]
    )
    def test_undecodable_config_file_exit_code(self, tmp_path, capsys, argv):
        utf16 = tmp_path / "utf16.cfg"
        utf16.write_bytes("[io]\nscenario = x\n".encode("utf-16"))  # starts with ff fe
        assert cli_main([argv[0], str(utf16), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(utf16) in err

    def test_metrics_without_run_artifacts_is_an_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(SHIFT_EDIT + f"\nout_dir = {tmp_path / 'none'}\n", encoding="utf-8")
        assert cli_main(["metrics", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: missing artifacts under ") and "shift" in err

    @pytest.mark.parametrize("frames", ["1,x", "", " , ", "1,²", "0"])
    def test_bad_frames_exit_code(self, tmp_path, capsys, frames):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(SHIFT_EDIT + f"\nout_dir = {tmp_path / 'sw'}\n", encoding="utf-8")
        assert cli_main(["sweep", str(cfg_path), "--frames", frames]) == 2
        assert capsys.readouterr().err.startswith("error: --frames")
        assert not (tmp_path / "sw").exists()

    def test_sweep_of_a_source_without_f_names_the_requested_count(self, tmp_path, capsys):
        # SHIFT_EDIT synthesizes 3 frames whatever the sweep asks for
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(SHIFT_EDIT + f"\nout_dir = {tmp_path / 'sw'}\n", encoding="utf-8")
        assert cli_main(["sweep", str(cfg_path), "--frames", "3,5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "requested 5" in err
        assert not (tmp_path / "sw" / "shift" / "sweep.csv").exists()

    @pytest.mark.parametrize("scenario", ["../escaped", ".", "a/b", "ABS", ".shift.stage"])
    @pytest.mark.parametrize("command", [["edit"], ["sweep", "--frames", "3"]], ids=lambda a: a[0])
    def test_scenario_outside_its_run_directory_writes_nothing(
        self, tmp_path, capsys, scenario, command
    ):
        scenario = str(tmp_path / "abs") if scenario == "ABS" else scenario
        work = tmp_path / "work"
        work.mkdir()
        cfg_path = tmp_path / "run.cfg"
        text = SHIFT_EDIT.replace("scenario = shift", f"scenario = {scenario}")
        cfg_path.write_text(text + f"\nout_dir = {work / 'out'}\n", encoding="utf-8")
        assert cli_main([command[0], str(cfg_path), *command[1:]]) == 2
        assert capsys.readouterr().err.startswith("error: io.scenario")
        assert list(work.iterdir()) == [] and not (tmp_path / "abs").exists()

    def test_oversized_source_recipe_fails_the_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "big.cfg"
        text = SHIFT_EDIT.replace("gaussian:1,2,3,4,4", "gaussian:1000,1000,1000,1000,1000")
        cfg_path.write_text(text + f"\nout_dir = {tmp_path / 'o'}\n", encoding="utf-8")
        assert cli_main(["edit", str(cfg_path)]) == 1
        doc = json.loads((tmp_path / "o" / "shift" / "report.json").read_text())
        assert doc["status"] == "error" and "io.source" in doc["error"]

    @pytest.mark.parametrize("number", ["0", "13", "-1"])
    def test_selftest_rejects_unknown_criterion(self, capsys, number):
        assert cli_main(["selftest", f"--criterion={number}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --criterion")

    def test_selftest_runs_one_criterion(self, capsys):
        assert cli_main(["selftest", "--criterion", "4"]) == 0
        assert capsys.readouterr().out.startswith("criterion 04 ")


SRC = Path(__file__).resolve().parents[1] / "src"
HUGE = "99999999999999999999"
CAPPED_EDIT = """
[backend]
type = toy_attention

[grid]
steps = 8
skip = 1

[io]
scenario = capped
source = gaussian:1,2,3,4,4
mask = box:0:3,1:3,1:3
out_dir = out
"""


def capped_config(tmp_path, key, raw):
    """CAPPED_EDIT with ``key`` set to ``raw``, written to ``tmp_path``."""
    section, _, name = key.partition(".")
    line = f"{name} = {raw}"
    if re.search(rf"^{name} = ", CAPPED_EDIT, re.M):
        text = re.sub(rf"^{name} = .*$", lambda _: line, CAPPED_EDIT, flags=re.M)
    else:
        text = CAPPED_EDIT + f"[{section}]\n{line}\n"
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def capped_cli(cwd, *argv):
    """``python -m flowsteer.cli *argv`` in ``cwd``, in a child process whose
    address space is capped at 2 GiB, so that a value asking for unbounded
    memory fails in the child instead of taking the machine's."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    return subprocess.run(
        [sys.executable, "-m", "flowsteer.cli", *map(str, argv)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=cap,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCappedCli:
    """Hostile values through the command line: each fails by its key, never by
    a traceback. Values that are valid but huge, such as grid.steps = 65536, are
    left out: they run for minutes rather than fail."""

    @pytest.mark.parametrize(
        "key,raw,status",
        [
            ("grid.n_avg", HUGE, 1),
            ("backend.tokens", HUGE, 1),
            ("io.source", f"gaussian:{HUGE},1,1,1,1", 1),
            ("grid.steps", HUGE, 2),
        ],
    )
    def test_edit_then_metrics_name_the_key(self, tmp_path, key, raw, status):
        path = capped_config(tmp_path, key, raw)
        edit = capped_cli(tmp_path, "edit", path)
        assert edit.returncode == status and "Traceback" not in edit.stderr, edit.stderr
        if status == 1:
            assert f"capped: FAILED (ConfigError: {key}: " in edit.stdout
        else:
            assert edit.stderr.startswith(f"error: {key}: ")
        # a run that failed left no artifacts to score
        metrics = capped_cli(tmp_path, "metrics", path)
        assert metrics.returncode == 2 and "Traceback" not in metrics.stderr, metrics.stderr
        expected = f"error: {key}: " if status == 2 else "error: missing artifacts under "
        assert metrics.stderr.startswith(expected)

    @pytest.mark.parametrize("key", ["io.scenario", "io.out_dir"])
    @pytest.mark.parametrize("command", [["edit"], ["sweep", "--frames", "3"]], ids=lambda a: a[0])
    def test_nul_byte_in_a_path_names_its_key(self, tmp_path, key, command):
        # a NUL byte ended in "ValueError: embedded null byte" and a traceback
        path = capped_config(tmp_path, key, "a\x00b")
        proc = capped_cli(tmp_path, command[0], path, *command[1:])
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
        assert proc.stderr.startswith(f"error: {key}: ")
        assert list(tmp_path.iterdir()) == [path]
