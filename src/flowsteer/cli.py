"""Command-line front end.

    flowsteer edit <config> [--out DIR] [--seed S]
    flowsteer sweep <config> --frames 1,5,13,21 [--out DIR]
    flowsteer metrics <config>
    flowsteer selftest [--criterion N]

``edit`` runs one configured edit and writes its artifacts; ``sweep``
repeats the run across latent frame counts (the config's synthesis recipes
use F as the frame-count placeholder) and replaces the run directory with
one holding sweep.csv and its manifest; ``metrics``
evaluates the configured metrics on already-written artifacts; ``selftest``
runs the full property/oracle gate and prints one line per criterion.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import parse_config, resolve_flow, resolve_mask, run_dir, with_out_dir, with_seed
from .core import load_tensor
from .diagnostics import sweep_rows_to_csv
from .errors import FlowSteerError
from .runner import evaluate_metrics, frame_sweep, run_batch, staged
from .selfcheck import CRITERIA, run_criteria


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
    spec = parse_config(args.config)
    if args.out:
        spec = with_out_dir(spec, args.out)
    tokens = [tok.strip() for tok in args.frames.split(",") if tok.strip()]
    # isdigit() alone admits digits such as "²" that int() rejects
    if not tokens or not all(tok.isascii() and tok.isdigit() and int(tok) > 0 for tok in tokens):
        print(
            f"error: --frames needs a comma list of positive frame counts, got {args.frames!r}",
            file=sys.stderr,
        )
        return 2
    out = run_dir(spec)
    rows = frame_sweep(spec, [int(tok) for tok in tokens])
    with staged(out) as stage:
        (stage / "sweep.csv").write_text(sweep_rows_to_csv(rows), encoding="utf-8")
    print(f"{len(rows)} rows -> {out / 'sweep.csv'}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    spec = parse_config(args.config)
    out = run_dir(spec)
    source_path = out / "source.fatn"
    edited_path = Path(spec.metrics.edited) if spec.metrics.edited else out / "result.fatn"
    if not source_path.exists() or not edited_path.exists():
        print(
            f"error: missing artifacts under {out}; run `flowsteer edit` first",
            file=sys.stderr,
        )
        return 2
    source = load_tensor(source_path)
    result = load_tensor(edited_path)
    mask = resolve_mask(spec, source)
    values = evaluate_metrics(spec, source, result, mask, resolve_flow(spec, source))
    print(json.dumps(values, indent=2))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    numbers = [number for number, _, _ in CRITERIA]
    if args.criterion is not None and args.criterion not in numbers:
        print(
            f"error: --criterion must be one of {numbers[0]}..{numbers[-1]}, got {args.criterion}",
            file=sys.stderr,
        )
        return 2
    results = run_criteria(None if args.criterion is None else [args.criterion])
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
