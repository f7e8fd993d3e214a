"""flowsteer edit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; flowsteer is imported from
``src/`` of that checkout and nowhere else. Each workload is a closed loop
with one client: the next timed unit starts when the previous one has
returned. A timed unit is one ``engine.run_edit`` call (``wan_gauss``,
``toy_attn``) or one ``runner.run_batch`` call over a batch of specs
(``desk_batch``).

The seed picks the inputs: every workload cycles over a few distinct
inputs, the first of which is always the pinned reference input whose
artifact digests are recorded in ``digests.json``. Every edit's artifacts
must be byte-identical each time its input repeats, and the reference
input's must equal the recorded digests; an exception or a mismatch counts
the edit as failed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced units and prints the per-layer metrics (self time per
edit, counts and ratios) from the traced ones, plus the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

from spans import BATCH_ROOT, Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")
PINNED_SEED = 11
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

WAN_CONFIG = """
[backend]
type = gaussian
[grid]
steps = 10
skip = 8
[io]
scenario = wan{index:02d}
source = gaussian:1,16,21,60,104
mask = box:0:21,15:45,26:78
seed = {seed}
"""

TOY_CONFIG = """
[backend]
type = toy_attention
tokens = 16
query_dim = 4
temperature = 2.0
model_seed = 7
target_tokens = 2,3
[grid]
steps = 25
skip = 2
[sar]
tau_fraction = 0.6
[io]
scenario = toy{index:02d}
source = gaussian:1,4,16,32,32
mask = box:4:12,8:24,8:24
seed = {seed}
"""

DESK_CONFIG = """
[backend]
type = toy_attention
tokens = 6
query_dim = 4
temperature = 2.0
model_seed = 7
target_tokens = 2,3
[grid]
steps = 25
skip = 2
[sar]
beta1 = 0.3
beta2 = 0.3
tau_fraction = 0.6
[amm]
gamma = 1.0
f0 = 21
[io]
scenario = desk{index:02d}
source = gaussian:1,4,5,8,8
mask = box:0:5,2:6,2:6
out_dir = {out_dir}
seed = {seed}
save_contrast_maps = true
[metrics]
enable = masked_psnr,frame_consistency,local_structure
"""

DESK_ARTIFACTS = ("result.fatn", "report.json", "diagnostics.csv")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    inputs: int  # distinct inputs cycled through (desk_batch: specs per batch)
    batch: bool  # True: one timed unit is a run_batch over all inputs
    workers: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wan_gauss", WAN_CONFIG, inputs=3, batch=False),
        Workload("toy_attn", TOY_CONFIG, inputs=4, batch=False),
        Workload("desk_batch", DESK_CONFIG, inputs=8, batch=True, workers=2),
    )
}


def import_flowsteer():
    """Import flowsteer from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "flowsteer" / "__init__.py").is_file():
        sys.exit(f"bench: no flowsteer sources under {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import flowsteer
    import flowsteer.config
    import flowsteer.engine
    import flowsteer.runner

    if Path(flowsteer.__file__).resolve().parent != (src / "flowsteer").resolve():
        sys.exit(f"bench: imported flowsteer from {flowsteer.__file__}, not {src}")
    return flowsteer


def input_seeds(workload: Workload, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [PINNED_SEED] + [rng.randrange(1, 2**31) for _ in range(workload.inputs - 1)]


def config_texts(workload: Workload, seeds: list[int], run_dir: Path) -> list[str]:
    return [
        workload.config.format(index=i, seed=s, out_dir=run_dir.as_posix())
        for i, s in enumerate(seeds)
    ]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tail(values: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(values)
    fitting = [p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= TAIL_BEYOND]
    pct = fitting[-1] if fitting else TAIL_LADDER[0]
    if n == 1:
        return pct, values[0]
    return pct, statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


class Bench:
    """One workload run: set-up, closed-loop timing, output checks."""

    def __init__(self, fs, workload: Workload, seed: int, reference: dict | None):
        self.fs = fs
        self.workload = workload
        self.work = OUT_DIR / f"{workload.name}-work"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.texts = config_texts(workload, input_seeds(workload, seed), self.work / "runs")
        self.reference = reference  # recorded digests of input 0; None while recording
        self.seen: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.setups = 0  # setup_one calls, untimed ones included
        self.reference_checked = False
        self.inputs: list = []

    # -- set-up -----------------------------------------------------------

    def setup_one(self, text: str):
        """Config parse, source synthesis, mask, backend and EditConfig build."""
        config = self.fs.config
        self.setups += 1
        spec = config.parse_config_text(text)
        source = config.resolve_source(spec)
        mask = config.resolve_mask(spec, source)
        backend = config.build_backend(spec, source)
        return spec, source, mask, backend, config.build_edit_config(spec, mask)

    def setup(self, min_reps: int = 7, min_ns: int = 1_000_000_000) -> tuple[float, int]:
        """Set up the inputs repeatedly; median seconds of one timed unit's set-up.

        A timed unit's set-up is one input's, or the whole batch's for
        desk_batch. One untimed pass over every input comes first, so the
        median is not dominated by first-call costs inside the process.
        """
        self.inputs = [self.setup_one(text) for text in self.texts]
        unit = len(self.texts) if self.workload.batch else 1
        times = []
        total = rep = 0
        while rep < min_reps or total < min_ns:
            t0 = perf_counter_ns()
            for i in range(rep * unit, (rep + 1) * unit):
                self.inputs[i % len(self.texts)] = self.setup_one(self.texts[i % len(self.texts)])
            dt = perf_counter_ns() - t0
            times.append(dt / 1e9)
            total += dt
            rep += 1
        return statistics.median(times), len(times)

    # -- timed units ------------------------------------------------------

    def edit_count(self) -> int:
        return len(self.inputs) if self.workload.batch else 1

    def voxel_steps(self, index: int | None) -> int:
        chosen = self.inputs if index is None else [self.inputs[index]]
        total = 0
        for spec, source, _, _, cfg in chosen:
            total += source.data.size * cfg.grid.active_steps * cfg.n_avg
        return total

    def run_unit(self, unit: int, workers: int | None = None) -> tuple[float | None, int]:
        """Run and check one timed unit; (seconds, voxel steps), or (None, 0) if it raised.

        A unit that returns but fails its output check keeps its time and
        counts its edits as failed.
        """
        if self.workload.batch:
            return self._run_batch(workers or self.workload.workers)
        return self._run_edit(unit % len(self.inputs))

    def _check(self, index: int, digest: dict) -> bool:
        ok = self.seen.setdefault(index, digest) == digest
        if index == 0 and self.reference is not None:
            ok = ok and digest == self.reference
            self.reference_checked = True
        if not ok:
            print(f"edit {index}: artifacts {digest}, expected {self.seen[index]}"
                  f"{' and ' + str(self.reference) if index == 0 else ''}", file=sys.stderr)
        return ok

    def _run_edit(self, index: int):
        _, source, _, backend, cfg = self.inputs[index]
        self.attempted += 1
        try:
            t0 = perf_counter_ns()
            result, _ = self.fs.engine.run_edit(source, cfg, backend)
            dt = (perf_counter_ns() - t0) / 1e9
            path = self.work / "result.fatn"
            self.fs.core.save_tensor(result, path)
            digest = {"result.fatn": sha256_file(path)}
        except Exception as exc:  # a failed edit is counted, not fatal
            print(f"edit {index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += 1
            return None, 0
        if not self._check(index, digest):
            self.failed += 1
        return dt, self.voxel_steps(index)

    def _run_batch(self, workers: int):
        runs = self.work / "runs"
        shutil.rmtree(runs, ignore_errors=True)
        specs = [built[0] for built in self.inputs]
        self.attempted += len(specs)
        try:
            t0 = perf_counter_ns()
            _, outcomes = self.fs.runner.run_batch(specs, workers=workers)
            dt = (perf_counter_ns() - t0) / 1e9
        except Exception as exc:
            print(f"batch failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += len(specs)
            return None, 0
        for index, outcome in enumerate(outcomes):
            try:
                if not outcome.ok:
                    raise RuntimeError(outcome.error)
                digest = {name: sha256_file(outcome.out_dir / name) for name in DESK_ARTIFACTS}
            except (OSError, RuntimeError) as exc:
                print(f"edit {index} failed: {exc}", file=sys.stderr)
                self.failed += 1
                continue
            if not self._check(index, digest):
                self.failed += 1
        return dt, self.voxel_steps(None)

    def io_footprint(self) -> tuple[int, int]:
        """(bytes, files) the last batch left in its run directories."""
        size = files = 0
        for path in (self.work / "runs").rglob("*"):
            if path.is_file():
                size += path.stat().st_size
                files += 1
        return size, files


def timed_loop(bench: Bench, seconds: float, modes: list, tracer: Tracer | None = None):
    """Closed loop of timed units for ``seconds``, cycling through ``modes``.

    A mode is ``(traced, workers)``. Returns the per-edit seconds of each
    mode's units, the voxel steps and busy seconds of untraced units, and
    the run-directory footprints left by traced batches.
    """
    warmup = 1 if bench.workload.batch else len(bench.inputs)  # one pass over the inputs
    for unit in range(warmup):
        bench.run_unit(unit)
    samples: dict[tuple, list[float]] = defaultdict(list)
    voxel_steps = busy = 0
    footprints = []
    deadline = perf_counter_ns() + int(seconds * 1e9)
    unit = 0
    while perf_counter_ns() < deadline:
        mode = modes[unit % len(modes)]
        traced, workers = mode
        if traced:
            tracer.install(bench.fs)
        try:
            dt, steps = bench.run_unit(warmup + unit, workers)
        finally:
            if traced:
                tracer.remove()
        unit += 1
        if dt is None:
            continue
        samples[mode].append(dt / bench.edit_count())
        if traced and bench.workload.batch:
            footprints.append(bench.io_footprint())
        if not traced:
            voxel_steps += steps
            busy += dt
    return samples, voxel_steps, busy, footprints


def run_untraced(bench: Bench, seconds: float, setup_s: float, setup_reps: int) -> dict:
    samples, voxel_steps, busy, _ = timed_loop(bench, seconds, [(False, None)])
    edits = samples[(False, None)]
    if not edits:
        return {}
    p50 = statistics.median(edits)
    q1, _, q3 = statistics.quantiles(edits, n=4) if len(edits) > 1 else edits * 3
    pct, tail_s = tail(edits)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_unit = bench.edit_count()
    print(f"edit_s.p50         {p50:.6f} s   (q1 {q1:.6f}, q3 {q3:.6f}, "
          f"n {len(edits)} timed units of {per_unit} edit(s))")
    print(f"edit_s.tail        {tail_s:.6f} s   (p{pct:g} of n {len(edits)}, at least "
          f"{TAIL_BEYOND} beyond; not gated: it does not repeat within a tenth)")
    print(f"voxel_steps_per_s  {voxel_steps / busy:.6g} 1/s")
    print(f"setup_s            {setup_s:.6f} s   (median of {setup_reps} set-ups)")
    print(f"peak_rss_mb        {rss_mib:.3f} MiB")
    print(f"failed_frac        {bench.failed / bench.attempted:.6g}   "
          f"({bench.failed} of {bench.attempted} edits)")
    return {
        "edit_s.p50": (p50, "s"),
        "voxel_steps_per_s": (voxel_steps / busy, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }


LAYER_SPANS = (
    "core.sample_gaussian", "core.interpolate_source", "engine.couple_target",
    "engine.run_edit", "backends.velocity_source", "backends.velocity_target",
    "sar.apply_sar", "amm.contrast_map", "amm.amplify", "diagnostics.magnitude_stats",
    "diagnostics.binarize_signal", "diagnostics.iou", "config.setup",
    "metrics.evaluate_metrics", "runner.io", "runner.execute_run", "runner.run_batch",
)


def layer_metrics(tracer: Tracer, edits_per_batch: int, setups: int) -> tuple[dict, str]:
    """Per-layer medians over traced edits, and a line on the self-time sums.

    Self times are per edit, except ``runner.run_batch`` (its self time per
    batch divided by the batch's edits) and, outside batches,
    ``config.setup`` (set-up self time per set-up, before any edit).
    """
    selfs, overlap = tracer.self_times()
    rows: dict[int, Counter] = defaultdict(Counter)
    roots: dict[int, int] = {}
    batch_shares: list[float] = []
    setup_ns = wall_ns = 0
    for (name, start, end, parent, edit, note), self_ns in zip(tracer.spans, selfs):
        if parent is None:
            wall_ns += end - start
        if edit is None:
            if name == BATCH_ROOT:
                batch_shares.append(self_ns / edits_per_batch)
            else:
                setup_ns += self_ns
            continue
        if parent is None or tracer.spans[parent][4] is None:
            roots[edit] = end - start
        row = rows[edit]
        row[name + ".self_s"] += self_ns
        row[name + ".calls"] += 1
        if note is not None:
            row[name + ".note"] += note
    edits = list(rows.values())
    if not edits:
        raise RuntimeError("the traced run recorded no edit")

    def med(key: str) -> float:
        return statistics.median(row[key] for row in edits)

    out = {f"{name}.self_s": (med(f"{name}.self_s") / 1e9, "s") for name in LAYER_SPANS}
    if batch_shares:
        out["runner.run_batch.self_s"] = (statistics.median(batch_shares) / 1e9, "s")
    else:
        out["config.setup.self_s"] = (setup_ns / setups / 1e9, "s")
    sar_calls = sum(row["sar.apply_sar.calls"] for row in edits)
    sar_active = sum(row["sar.apply_sar.note"] for row in edits)
    out.update({
        "core.sample_gaussian.calls": (med("core.sample_gaussian.calls"), "count"),
        "core.sample_gaussian.bytes_computed": (med("core.sample_gaussian.note"), "B"),
        "engine.steps": (med("engine.run_edit.note"), "count"),
        "backends.velocity.calls": (
            statistics.median(
                row["backends.velocity_source.calls"] + row["backends.velocity_target.calls"]
                for row in edits
            ),
            "count",
        ),
        "sar.apply_sar.calls": (med("sar.apply_sar.calls"), "count"),
        "sar.active_frac": (sar_active / sar_calls if sar_calls else 0.0, "ratio"),
    })
    # Within one edit every span nests in one thread, so the layer self
    # times must add up to the edit's wall time exactly.
    edit_self = sum(v for row in edits for k, v in row.items() if k.endswith(".self_s"))
    edit_wall = sum(roots.values())
    if edit_self != edit_wall or sum(selfs) != wall_ns + overlap:
        raise RuntimeError(
            f"span bookkeeping broken: edit self {edit_self} ns vs wall {edit_wall} ns, "
            f"all self {sum(selfs)} ns vs wall {wall_ns} + overlap {overlap} ns"
        )
    line = (
        f"trace: {len(edits)} edits, {len(tracer.spans)} spans; layer self times sum to "
        f"{edit_self / 1e9:.6f} s = traced edit wall {edit_wall / 1e9:.6f} s; "
        f"sar active {sar_active} of {sar_calls} calls; "
        f"all spans: self {sum(selfs) / 1e9:.6f} s = top-level wall {wall_ns / 1e9:.6f} s "
        f"+ pool overlap {overlap / 1e9:.6f} s"
    )
    return out, line


def run_traced(bench: Bench, seconds: float, tracer: Tracer, seed: int) -> dict:
    """Alternate traced and untraced units; desk_batch also times workers=1."""
    workload = bench.workload
    if workload.batch:
        modes = [(True, workload.workers), (False, workload.workers), (False, 1)]
    else:
        modes = [(True, None), (False, None)]
    samples, _, _, footprints = timed_loop(bench, seconds, modes, tracer)
    if any(not samples[mode] for mode in modes):
        return {}
    edits = bench.edit_count()
    traced_p50, plain_p50 = (statistics.median(samples[mode]) for mode in modes[:2])
    out, line = layer_metrics(tracer, edits, bench.setups)
    if workload.batch:
        single_p50 = statistics.median(samples[modes[2]])
        io_bytes = statistics.median(b for b, _ in footprints) / edits
        io_files = statistics.median(f for _, f in footprints) / edits
        speedup = single_p50 / plain_p50
    else:
        io_bytes = io_files = speedup = 0.0
    out.update({
        "runner.io.bytes": (io_bytes, "B"),
        "runner.io.files": (io_files, "count"),
        "runner.pool_speedup": (speedup, "ratio"),
        "trace.edit_s.p50": (traced_p50, "s"),
        "trace.overhead_s": (traced_p50 - plain_p50, "s"),
    })
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    print(line)
    print(f"tracing overhead: traced edit_s.p50 {traced_p50:.6f} s (n {len(samples[modes[0]])}) "
          f"- untraced {plain_p50:.6f} s (n {len(samples[modes[1]])}) "
          f"= {traced_p50 - plain_p50:.6f} s; spans written to {spans_path}")
    if workload.batch:
        print(f"runner.pool_speedup: workers=1 {single_p50:.6f} s/edit "
              f"(n {len(samples[modes[2]])}) / workers={workload.workers} {plain_p50:.6f} s/edit")
    for name, (value, unit_name) in out.items():
        print(f"  {name:40s} {value:.6g} {unit_name}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    os.environ.pop("FLOWSTEER_WORKERS", None)  # the workload fixes the worker count
    fs = import_flowsteer()
    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH_DIR / "digests.json").read_text())[workload.name]
    bench = Bench(fs, workload, args.seed, reference)
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"closed loop, one client; inputs {input_seeds(workload, args.seed)}")
    tracer = Tracer()
    if args.trace:
        tracer.install(fs)
    try:
        setup_s, setups = bench.setup()
    finally:
        tracer.remove()
    try:
        if args.trace:
            metrics = run_traced(bench, args.seconds, tracer, args.seed)
        else:
            metrics = run_untraced(bench, args.seconds, setup_s, setups)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if not metrics or not bench.reference_checked:
        print("bench: no edit completed and checked", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
