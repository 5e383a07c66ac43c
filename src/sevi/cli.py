"""Command-line entry point.

Exit codes: 0 success, 1 validation/configuration error, 2 computation error
or a failed write; an error inside a pipeline stage names that stage.
All paths in the config are resolved against --workdir.

OpenBLAS starts with one thread unless OPENBLAS_NUM_THREADS sets another count.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# Every GEMM of the GWR kernel stays within kernels._GEMM_BUDGET, so OpenBLAS
# runs it on the calling thread and a worker pool only costs CPU at start-up.
# OpenBLAS reads the variable once, as numpy loads: a count the caller set
# wins, and a process that loaded numpy before this module is left as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .exceptions import StageError, ValidationError
from .pipeline import (UNTIL_GROUPS, PipelineConfig, decode_to_files, evaluate_files,
                       ingest, robustness, run)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _at_least(low: int):
    def integer(text):  # argparse names a ValueError of int() an "invalid integer value"
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return int(text)
    return integer


def _add_config_args(sub):
    sub.add_argument("--config", required=True, help="pipeline config (YAML)")
    sub.add_argument("--set", action="append", default=[], dest="overrides",
                     metavar="KEY=VALUE",
                     help="set one leaf key (dotted, e.g. gwr.bandwidth) to a YAML value")


def build_parser() -> _Parser:
    parser = _Parser(prog="sevi", description=__doc__)
    parser.add_argument("--workdir", default=".", help="root for all relative paths")
    cmds = parser.add_subparsers(dest="command", required=True)

    # each `until` group of the stage table is a command that runs up to it
    for name in ("run", "ingest", *UNTIL_GROUPS, "robustness", "report"):
        sub = cmds.add_parser(name)
        _add_config_args(sub)

    brands = cmds.add_parser("brands")
    brands_sub = brands.add_subparsers(dest="brands_command", required=True)
    decode = brands_sub.add_parser("decode")
    _add_config_args(decode)
    beval = brands_sub.add_parser("eval")
    beval.add_argument("--gt", required=True, help="ground-truth CSV (image_id,brand,tier)")
    beval.add_argument("--pred", required=True, help="predictions CSV (image_id,brand,tier)")
    beval.add_argument("--out", default=None, help="write the report JSON here")

    synth = cmds.add_parser("synth")
    synth.add_argument("--out", required=True, help="directory for the generated tables")
    synth.add_argument("--seed", type=_at_least(0), default=20251015)
    synth.add_argument("--segments", type=_at_least(1), default=160)
    synth.add_argument("--pois", type=_at_least(0), default=2500)
    synth.add_argument("--brand-corpus", action="store_true",
                       help="also generate the offline brand-decoding corpus")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        return _dispatch(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc.cause, ValidationError) else 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # computation errors and anything unexpected
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    workdir = Path(args.workdir)

    if args.command == "synth":
        from .synth import generate_brand_corpus, generate_city
        info = generate_city(workdir / args.out, seed=args.seed,
                             n_segments=args.segments, n_pois=args.pois)
        if args.brand_corpus:
            info.update(generate_brand_corpus(workdir / args.out, seed=args.seed))
        for key, value in info.items():
            print(f"{key}: {value}")
        return 0

    if args.command == "brands" and args.brands_command == "eval":
        rep = evaluate_files(workdir / args.gt, workdir / args.pred,
                             (workdir / args.out) if args.out else None)
        print(f"{'tier':<15}{'precision':>10}{'recall':>10}{'f1':>10}")
        for tier, m in rep.per_tier.items():
            print(f"{tier:<15}{m.precision:>10.3f}{m.recall:>10.3f}{m.f1:>10.3f}")
        print(f"{'overall':<15}{rep.overall.precision:>10.3f}"
              f"{rep.overall.recall:>10.3f}{rep.overall.f1:>10.3f}")
        return 0

    config = PipelineConfig.from_file(workdir / args.config, args.overrides)

    if args.command in ("brands", "ingest"):  # brands decode, or ingest
        summary = (decode_to_files if args.command == "brands" else ingest)(config, workdir)
        for key, value in summary.items():
            print(f"{key}: {value}")
        return 0

    if args.command == "robustness":
        started = time.perf_counter()
        robustness(config, workdir)
        outdir = workdir / config.raw["output_dir"]
        print((outdir / "robustness.txt").read_text(encoding="utf-8"))
        print(f"robustness finished in {time.perf_counter() - started:.1f}s")
        return 0

    if args.command == "report":
        outdir = workdir / config.raw["output_dir"]
        summary_path = outdir / "summary.txt"
        if not summary_path.exists():
            raise ValidationError(f"no summary at {summary_path}; run the pipeline first")
        print(summary_path.read_text(encoding="utf-8"))
        return 0

    # stage-named subcommands execute the pipeline up to their stage
    until = args.command if args.command != "run" else None
    started = time.perf_counter()
    manifest = run(config, workdir, until=until)
    print(f"{args.command}: wrote {len(manifest['files'])} artifacts "
          f"in {time.perf_counter() - started:.1f}s "
          f"(config {manifest['config_sha256'][:12]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
