"""Layer spans recorded from outside the program.

The tracer replaces module and class attributes of flowsteer with wrappers
that record one span per call, and puts the originals back on ``remove``.
A span is ``[name, start_ns, end_ns, parent, edit, note]``: ``parent`` is
the index of the enclosing span (or ``None``), ``edit`` the id of the edit
the call belongs to, ``note`` a per-call value some layers carry (the bytes
a noise draw computes, whether SAR changed the logits, the steps an edit
ran).

Spans stay in memory until ``write`` is called. A span's self time is its
duration minus the union of its children's intervals, so the self times of
a tree add up to the root's duration plus the time children overlapped
(which only happens under the runner's thread pool).
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter_ns

# Spans that open a new edit when no edit is current.
EDIT_ROOTS = ("engine.run_edit", "runner.execute_run")
# Span that parents the runner's pool-thread spans.
BATCH_ROOT = "runner.run_batch"


def _dims_bytes(dims) -> int:
    count = 1
    for d in dims:
        count *= int(d)
    return 4 * count


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._batch: int | None = None
        self._edits = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, note=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._batch
        edit = self.spans[parent][4] if parent is not None else None
        with self._lock:
            if edit is None and name in EDIT_ROOTS:
                edit = self._edits
                self._edits += 1
            index = len(self.spans)
            span = [name, 0, 0, parent, edit, note]
            self.spans.append(span)
        stack.append(index)
        if name == BATCH_ROOT:
            self._batch = index
        span[1] = perf_counter_ns()
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter_ns()
        self._stack().pop()
        if span[0] == BATCH_ROOT:
            self._batch = None

    # -- installing wrappers ----------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(span)

        self._replace(owner, attr, traced)

    def install(self, flowsteer) -> None:
        """Wrap the layer entry points of an imported flowsteer package."""
        engine, runner, config = flowsteer.engine, flowsteer.runner, flowsteer.config
        for attr, name in (
            ("interpolate_source", "core.interpolate_source"),
            ("couple_target", "engine.couple_target"),
            ("contrast_map", "amm.contrast_map"),
            ("amplify", "amm.amplify"),
            ("magnitude_stats", "diagnostics.magnitude_stats"),
            ("binarize_signal", "diagnostics.binarize_signal"),
            ("iou", "diagnostics.iou"),
        ):
            self.wrap(engine, attr, name)
        for attr, name in (
            ("run_batch", BATCH_ROOT),
            ("execute_run", "runner.execute_run"),
            ("evaluate_metrics", "metrics.evaluate_metrics"),
            ("save_tensor", "runner.io"),
            ("emit_report", "runner.io"),
            ("resolve_source", "config.setup"),
            ("resolve_mask", "config.setup"),
            ("build_backend", "config.setup"),
            ("build_edit_config", "config.setup"),
        ):
            self.wrap(runner, attr, name)
        for attr in (
            "parse_config_text",
            "resolve_source",
            "resolve_mask",
            "build_backend",
            "build_edit_config",
        ):
            self.wrap(config, attr, "config.setup")

        for owner in (engine, runner):
            self._replace(owner, "run_edit", self._run_edit_wrapper(owner.run_edit))

        sample_gaussian = engine.sample_gaussian

        def traced_sample(rng, dims):
            span = self.begin("core.sample_gaussian", note=_dims_bytes(dims))
            try:
                return sample_gaussian(rng, dims)
            finally:
                self.end(span)

        self._replace(engine, "sample_gaussian", traced_sample)

        apply_sar = engine.apply_sar

        def traced_sar(maps, *args, **kwargs):
            span = self.begin("sar.apply_sar")
            try:
                out = apply_sar(maps, *args, **kwargs)
                # apply_sar hands back its input when the gate is closed
                span[5] = out is not maps
                return out
            finally:
                self.end(span)

        self._replace(engine, "apply_sar", traced_sar)

        # velocity() calls velocity_with_maps(); one evaluation is one span.
        registry = flowsteer.backends.BackendRegistry
        for attr in ("velocity", "velocity_with_maps"):
            self._replace(registry, attr, self._velocity_wrapper(getattr(registry, attr)))

    def _run_edit_wrapper(self, original):
        def traced(*args, **kwargs):
            span = self.begin("engine.run_edit")
            try:
                result, report = original(*args, **kwargs)
                span[5] = len(report.steps)
                return result, report
            finally:
                self.end(span)

        return traced

    def _velocity_wrapper(self, original):
        local = self._local

        def traced(registry, query):
            if getattr(local, "in_velocity", False):
                return original(registry, query)
            span = self.begin(f"backends.velocity_{query.condition}")
            local.in_velocity = True
            try:
                return original(registry, query)
            finally:
                local.in_velocity = False
                self.end(span)

        return traced

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> tuple[list[int], int]:
        """Self time of every span in ns, and the time children overlapped."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        selfs = []
        overlap = 0
        for index, (_, start, end, _, _, _) in enumerate(self.spans):
            covered = 0
            total = 0
            reach = start
            for c_start, c_end in sorted(children.get(index, ())):
                total += c_end - c_start
                lo = max(c_start, reach)
                if c_end > lo:
                    covered += c_end - lo
                    reach = c_end
            overlap += total - covered
            selfs.append(end - start - covered)
        return selfs, overlap

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, edit, note in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "edit": edit, "note": note},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
