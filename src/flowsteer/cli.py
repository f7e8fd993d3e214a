"""Command-line front end.

    flowsteer edit <config> [--out DIR] [--seed S]
    flowsteer sweep <config> --frames 1,5,13,21 [--out DIR]
    flowsteer metrics <config>
    flowsteer selftest [--criterion N]

``edit`` runs one configured edit and writes its artifacts; ``sweep``
repeats the run across latent frame counts (the config's synthesis recipes
use F as the frame-count placeholder) and writes sweep.csv; ``metrics``
evaluates the configured metrics on already-written artifacts; ``selftest``
runs the full property/oracle gate and prints one line per criterion.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import parse_config, with_out_dir, with_seed
from .errors import FlowSteerError
from .runner import run_batch


def _cmd_edit(args: argparse.Namespace) -> int:
    spec = parse_config(args.config)
    if args.out:
        spec = with_out_dir(spec, args.out)
    if args.seed is not None:
        spec = with_seed(spec, args.seed)
    status, outcomes = run_batch([spec])
    for outcome in outcomes:
        state = "ok" if outcome.ok else f"FAILED ({outcome.error})"
        print(f"{outcome.scenario}: {state} -> {outcome.out_dir}")
    return status


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .config import build_backend, build_edit_config, resolve_mask, resolve_source
    from .diagnostics import frame_sweep, sweep_rows_to_csv

    spec = parse_config(args.config)
    if args.out:
        spec = with_out_dir(spec, args.out)
    tokens = [tok.strip() for tok in args.frames.split(",") if tok.strip()]
    if not tokens or not all(tok.isdigit() for tok in tokens):
        print(
            f"error: --frames needs a comma list of frame counts, got {args.frames!r}",
            file=sys.stderr,
        )
        return 2
    frame_counts = [int(tok) for tok in tokens]

    def family(frames: int):
        source = resolve_source(spec, frames=frames)
        return source, resolve_mask(spec, source, frames=frames)

    probe_source, probe_mask = family(frame_counts[0])
    backend = build_backend(spec, probe_source)
    base_cfg = build_edit_config(spec, probe_mask)
    rows = frame_sweep(family, base_cfg, backend, frame_counts)
    out_dir = Path(spec.io.out_dir) / spec.io.scenario
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    csv_path.write_text(sweep_rows_to_csv(rows), encoding="utf-8")
    print(f"{len(rows)} rows -> {csv_path}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .config import resolve_mask
    from .core import load_tensor
    from .runner import evaluate_metrics

    spec = parse_config(args.config)
    run_dir = Path(spec.io.out_dir) / spec.io.scenario
    source_path = run_dir / "source.fatn"
    edited_path = Path(spec.metrics.edited) if spec.metrics.edited else run_dir / "result.fatn"
    if not source_path.exists() or not edited_path.exists():
        print(
            f"error: missing artifacts under {run_dir}; run `flowsteer edit` first",
            file=sys.stderr,
        )
        return 2
    source = load_tensor(source_path)
    result = load_tensor(edited_path)
    mask = resolve_mask(spec, source)
    values = evaluate_metrics(spec, source, result, mask)
    print(json.dumps(values, indent=2))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selfcheck import run_criteria

    wanted = [args.criterion] if args.criterion else None
    results = run_criteria(wanted)
    failed = 0
    for res in results:
        state = "PASS" if res.ok else "FAIL"
        print(f"criterion {res.number:02d} {res.name}: {state} ({res.seconds:.2f}s) {res.detail}")
        failed += 0 if res.ok else 1
    if failed:
        print(f"{failed} criterion(s) failed", file=sys.stderr)
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowsteer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_edit = sub.add_parser("edit", help="run one configured edit")
    p_edit.add_argument("config")
    p_edit.add_argument("--out", help="override io.out_dir")
    p_edit.add_argument("--seed", type=int, help="override io.seed")
    p_edit.set_defaults(func=_cmd_edit)

    p_sweep = sub.add_parser("sweep", help="repeat a run across frame counts")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--frames", required=True, help="comma list, e.g. 1,5,13,21")
    p_sweep.add_argument("--out", help="override io.out_dir")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_metrics = sub.add_parser("metrics", help="evaluate metrics on run artifacts")
    p_metrics.add_argument("config")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_self = sub.add_parser("selftest", help="run the acceptance criteria")
    p_self.add_argument("--criterion", type=int, help="run a single criterion")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FlowSteerError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
