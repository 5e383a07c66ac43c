#!/usr/bin/env python3
"""Record reference headline values into references.json.

    python3 perfbench/record_references.py --workload small-run --seeds 1 2 3

Runs the workload's command once per seed and stores the headline values
that checks.py compares later. Existing entries are never overwritten: a
reference is recorded once, from the code the benchmark was defined on, so
that later changes are compared against it rather than against themselves.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import checks
import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    workload = run.WORKLOADS[args.workload]
    refs = json.loads(checks.REFERENCES.read_text(encoding="utf-8"))
    table = refs["workloads"].setdefault(args.workload, {})
    scratch = run.WORK / f"record-{args.workload}"
    try:
        for seed in args.seeds:
            if str(seed) in table:
                print(f"seed {seed}: already recorded, kept")
                continue
            city = scratch / "city"
            run.make_city(city, seed, workload.segments, workload.pois)
            rep = run.run_rep(workload, city, None, False)
            if rep.problems:
                print(f"seed {seed}: {rep.problems}; nothing recorded", file=sys.stderr)
                return 1
            table[str(seed)] = rep.headline
            checks.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
            print(f"seed {seed}: recorded {len(rep.headline)} values")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
