#!/usr/bin/env python3
"""Run one `sevi` command in-process with a span around each public function.

    python3 perfbench/traced.py --report trace.json -- --workdir CITY run --config config.yaml

The arguments after `--` are those of the `sevi` command line. Before the
command starts, every public module-level function of the traced `sevi`
modules is replaced by a wrapper that records a span (name, start, end,
parent span) and the counts listed in COUNTERS. Names that other modules
imported by value (`sevi.pipeline` imports `load_tables`, `time_sliced` and
the indicator functions this way) are rebound too, so every call site sees
the wrapper. Nothing under `src/` is modified.

The spans stay in memory until the command returns; the report written to
`--report` then holds the spans, the self time and call count of each
function, and the counts. The exit code is the command's.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the `sevi` modules that form the traced layers; `cli` is covered by setup_s,
# `brandsem` and `report` are off the measured paths or negligible
LAYERS = ("geodata", "spillover", "kernels", "indicators", "scoring", "stats", "gwr",
          "pipeline")

# Left unwrapped: scalar helpers called once per table row, whose span would
# cost more than their work, and the kernel flavours behind the public
# dispatchers, so the kernel time stays with `kernels.spill_field` and
# `kernels.gwr_fit_all` whichever flavour runs.
UNTRACED = frozenset({
    "geodata.project_to_metric", "geodata.metric_to_lonlat",
    "indicators.clamp_closures", "indicators.point_brand_ratio",
    "spillover.decay_value", "gwr.kernel_weight",
    "kernels.spill_field_numpy", "kernels.gwr_fit_numpy",
})

BOUNDARY_WARNING = "bandwidth search hit"


def _fit_local(tracer, args, kwargs, result, parent):
    tracer.counts["gwr.n_ridged"] += result.n_ridged
    if parent == "gwr.select_bandwidth":
        tracer.counts["gwr.aicc_evals"] += 1


def _gwr_fit_all(tracer, args, kwargs, result, parent):
    tracer.counts["kernels.gwr_local_solves"] += len(args[0])


def _field_all(tracer, args, kwargs, result, parent):
    points_xy, anchors = args[0], args[1]
    tracer.counts["spillover.pairs"] += len(points_xy) * len(anchors)


def _load_tables(tracer, args, kwargs, result, parent):
    t = result
    tracer.counts["geodata.rows_loaded"] += (
        len(t.points) + len(t.segments) + len(t.anchors) + len(t.pois)
        + sum(len(v) for v in t.lbs.values()) + len(t.brands or {}))


def _radius_join(tracer, args, kwargs, result, parent):
    tracer.counts["geodata.poi_hits"] += sum(len(hits) for hits in result.values())


def _written(tracer, args, kwargs, result, parent):
    tracer.counts["pipeline.bytes_written"] += Path(args[0]).stat().st_size
    tracer.counts["pipeline.files_written"] += 1


COUNTERS = {
    "gwr.fit_local": _fit_local,
    "kernels.gwr_fit_all": _gwr_fit_all,
    "spillover.field_all": _field_all,
    "geodata.load_tables": _load_tables,
    "geodata.radius_join": _radius_join,
    "pipeline.write_csv": _written,
    "pipeline.write_json": _written,
    "pipeline.emit_geojson": _written,
}

# counts reported even when nothing increments them
COUNT_NAMES = ("gwr.aicc_evals", "gwr.boundary_hits", "gwr.n_ridged",
               "kernels.gwr_local_solves", "spillover.pairs", "geodata.rows_loaded",
               "geodata.poi_hits", "pipeline.bytes_written", "pipeline.files_written")


class Tracer:
    """In-memory spans and counts for one traced command."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter({name: 0 for name in COUNT_NAMES})
        self.wrapped: list[str] = []

    def wrap(self, name, fn):
        on_return = COUNTERS.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result, spans[parent][0] if parent >= 0 else None)
            return result

        self.wrapped.append(name)
        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap the public functions of LAYERS and rebind every reference to
        them in the loaded `sevi` modules."""
        importlib.import_module("sevi.cli")
        replacement = {}
        for layer in LAYERS:
            module = importlib.import_module(f"sevi.{layer}")
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in UNTRACED):
                    continue
                replacement[fn] = self.wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sevi" and not mod_name.startswith("sevi."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacement:
                    setattr(module, attr, replacement[value])

    def functions(self) -> dict[str, dict]:
        """Calls, total and self seconds of every wrapped function."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.wrapped}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True, help="where to write the trace JSON")
    parser.add_argument("sevi_args", nargs=argparse.REMAINDER,
                        help="the sevi command line, after --")
    args = parser.parse_args(argv)
    sevi_args = args.sevi_args[1:] if args.sevi_args[:1] == ["--"] else args.sevi_args

    sys.path.insert(0, str(SRC))
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["sevi.cli"]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(sevi_args)
    for w in caught:
        if BOUNDARY_WARNING in str(w.message):
            tracer.counts["gwr.boundary_hits"] += 1
        else:
            print(warnings.formatwarning(w.message, w.category, w.filename, w.lineno),
                  end="", file=sys.stderr)

    report = {"exit_code": code, "functions": tracer.functions(),
              "counts": dict(tracer.counts), "spans": tracer.spans}
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
