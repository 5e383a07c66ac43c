#!/usr/bin/env python3
"""Benchmark of the `sevi` command line on seeded synthetic cities.

    python3 perfbench/run.py --workload small-run --seed 20251015 --seconds 50 --trace 0

Run it from the root of a source checkout, the directory that holds
`src/sevi`. One invocation:

1. generates the workload's city with `sevi synth --seed`;
2. runs the workload's `sevi` command as fresh child processes, one at a
   time, until `--seconds` is used up, and checks every repetition's
   outputs (checks.py) and that all repetitions wrote identical files;
3. before each untraced repetition, times the set-up every `sevi` call pays
   (a fresh interpreter importing `sevi.cli` and parsing the config), and
   tops the samples up to SETUP_REPS;
4. with `--trace 1`, spends half of `--seconds` on untraced repetitions and
   half on repetitions under traced.py, and reports per-layer spans and
   counts instead of the end-to-end metrics.

It prints each metric with its unit, then, as the last line, one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. A copy of the
result with the environment record goes to `.perfbench_work/results/`;
nothing is written outside `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import checks
from traced import COUNT_NAMES, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 20251015
SETUP_REPS = 5
CHILD_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class Workload:
    segments: int
    pois: int
    argv: tuple[str, ...]   # the sevi subcommand and its options

    @property
    def command(self) -> str:
        return self.argv[0]


# Why each workload is here: perfbench/RATIONALE.md.
WORKLOADS = {
    "small-run": Workload(160, 2500, ("run",)),
    "large-fixedbw": Workload(1000, 15000, ("run", "--set", "gwr.bandwidth=1500")),
    "small-robustness": Workload(160, 2500, ("robustness",)),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "pass_rate": "ratio"}

# per-layer metrics: function self times and call counts, then the named counts
SELF_TIMES = (
    "gwr.select_bandwidth", "gwr.fit_local", "kernels.gwr_fit_all", "kernels.spill_field",
    "geodata.load_tables", "geodata.radius_join", "spillover.calibrate_sigma",
    "spillover.field_all", "indicators.brand_ratio_series", "indicators.smooth_along_route",
    "indicators.segment_indicators", "scoring.align_and_normalize",
    "scoring.compute_weight_matrix", "scoring.topsis", "scoring.alternative_indices",
    "stats.spearman_matrix", "stats.pca", "stats.kruskal_wallis", "pipeline.write_csv",
    "pipeline.write_json", "pipeline.emit_geojson", "pipeline.file_sha256",
)
CALLS = ("gwr.fit_local", "spillover.field_all", "indicators.brand_ratio_series",
         "indicators.smooth_along_route", "indicators.segment_indicators")
COUNT_UNITS = {name: "bytes" if name.endswith("bytes_written") else "count"
               for name in COUNT_NAMES}


@dataclass
class Rep:
    """One child process running the workload's command."""
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    problems: list[str] = field(default_factory=list)
    headline: dict[str, float] = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)
    trace: dict | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed(cmd: list[str], log: Path) -> tuple[float, float, float, int]:
    """Run `cmd` to completion; (wall s, user+sys CPU s, peak RSS MB, exit code)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


def python_json(code: str) -> dict:
    """Run `code` in a fresh interpreter and parse the JSON it prints last."""
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"probe failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def make_city(city: Path, seed: int, segments: int, pois: int) -> dict:
    """Generate a synthetic city with `sevi synth`; return its table sizes."""
    if city.exists():
        shutil.rmtree(city)
    done = subprocess.run(
        [sys.executable, "-m", "sevi.cli", "synth", "--out", str(city), "--seed", str(seed),
         "--segments", str(segments), "--pois", str(pois)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"sevi synth failed: {done.stderr.strip()[-2000:]}")
    sizes = {}
    for line in done.stdout.splitlines():
        key, _, value = line.partition(":")
        value = value.strip()
        sizes[key.strip()] = int(value) if value.isdigit() else value
    (city / "config.yaml").write_text("output_dir: out\n", encoding="utf-8")
    return sizes


SETUP_CODE = """
import time
start = time.perf_counter()
import sevi.cli
sevi.cli.PipelineConfig.from_file({config!r})
elapsed = time.perf_counter() - start
import json
print(json.dumps({{"setup_s": elapsed, "sevi": sevi.cli.__file__}}))
"""

ENV_CODE = """
import json, sys
import numpy, scipy, sevi, sevi.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception:
    blas = "unknown"
backend = getattr(sevi, "active_backend", None)
print(json.dumps({
    "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
    "blas": blas, "sevi_backend": backend() if backend else "n/a",
    "sevi_path": sevi.__file__,
}))
"""

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS", "SEVI_NUMBA")


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sevi").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():   # an exported checkout; do not report a parent repo
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, sizes: dict[str, int]) -> dict:
    probe = python_json(ENV_CODE)
    return {
        "git_sha": git_sha(), "src_sha256": src_digest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), **probe,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed, "sizes": sizes,
    }


def measure_setup(config: Path, reps: int) -> list[float]:
    """Seconds from a fresh interpreter to a parsed config, `reps` times."""
    values = []
    for _ in range(reps):
        probe = python_json(SETUP_CODE.format(config=str(config)))
        if not Path(probe["sevi"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"imported sevi from {probe['sevi']}, not from {SRC}")
        values.append(probe["setup_s"])
    return values


def sevi_argv(workload: Workload, city: Path) -> list[str]:
    return ["--workdir", str(city), *workload.argv, "--config", "config.yaml"]


def run_rep(workload: Workload, city: Path, reference, traced: bool) -> Rep:
    """One fresh child process of the workload's command, checked."""
    outdir = city / "out"
    if outdir.exists():
        shutil.rmtree(outdir)
    report = city / "trace.json"
    if traced:
        cmd = [sys.executable, str(HERE / "traced.py"), "--report", str(report), "--",
               *sevi_argv(workload, city)]
    else:
        cmd = [sys.executable, "-m", "sevi.cli", *sevi_argv(workload, city)]
    log = city / "child.log"
    wall, cpu, rss, code = timed(cmd, log)
    rep = Rep(traced, wall, cpu, rss, code)
    if code != 0:
        rep.problems.append(f"exit code {code}: {log.read_text(errors='replace')[-2000:]}")
        return rep
    outcome = checks.check(workload.command, city, outdir, reference)
    rep.problems.extend(outcome.problems)
    rep.headline = outcome.headline
    rep.files = outcome.files
    if traced:
        rep.trace = json.loads(report.read_text(encoding="utf-8"))
    return rep


def run_reps(workload: Workload, city: Path, reference, traced: bool,
             budget_s: float, setup: list[float] | None = None) -> list[Rep]:
    """Repetitions while the next one would end mostly within `budget_s`, so
    the time spent rounds to `budget_s`; at least one. With `setup`, one
    set-up sample is appended to it before each repetition, so set-up is
    sampled over the same stretch of the machine's speed as the command."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        if setup is not None:
            setup.extend(measure_setup(city / "config.yaml", 1))
        reps.append(run_rep(workload, city, reference, traced))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(reps) > budget_s:
            return reps


def mark_divergent(reps: list[Rep]) -> None:
    """Every repetition must write the same files, byte for byte, as the first."""
    first = next((r.files for r in reps if r.files), None)
    for rep in reps:
        if rep.files and rep.files != first:
            changed = sorted(k for k in set(rep.files) | set(first)
                             if rep.files.get(k) != first.get(k))
            rep.problems.append(f"files differ from the first repetition: {changed}")


def end_to_end(reps: list[Rep], setup: list[float]) -> dict[str, float]:
    # Times are means, not medians: this machine's speed switches between a
    # fast and a slow state for seconds to minutes at a time, and a median of
    # a few repetitions jumps between the two while the mean weighs them by
    # the time spent in each (perfbench/RATIONALE.md, "Steadiness").
    return {
        "wall_s": statistics.fmean(r.wall_s for r in reps),
        "cpu_s": statistics.fmean(r.cpu_s for r in reps),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
        "setup_s": statistics.median(setup),
        "pass_rate": sum(1 for r in reps if not r.problems) / len(reps),
    }


def per_layer(traced: list[Rep], untraced: list[Rep]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced repetitions: medians of times, counts
    from the first (they must repeat exactly, see mark_count_drift)."""
    traces = [r.trace for r in traced if r.trace]
    if not traces:
        return {}

    def median_of(fn) -> float:
        return statistics.median(fn(t) for t in traces)

    def self_s(name):
        return median_of(lambda t: t["functions"].get(name, {}).get("self_s", 0.0))

    def calls(name):
        return traces[0]["functions"].get(name, {}).get("calls", 0)

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        prefix = layer + "."
        metrics[f"{layer}.self_s"] = (median_of(lambda t: sum(
            v["self_s"] for k, v in t["functions"].items() if k.startswith(prefix))), "s")
        metrics[f"{layer}.calls"] = (sum(
            v["calls"] for k, v in traces[0]["functions"].items() if k.startswith(prefix)),
            "count")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls(name), "count")

    fit_ms = sorted((end - start) * 1e3 for t in traces
                    for name, start, end, _ in t["spans"] if name == "gwr.fit_local") or [0.0]
    metrics["gwr.fit_local.p50_ms"] = (statistics.median(fit_ms), "ms")
    metrics["gwr.fit_local.p90_ms"] = (fit_ms[round(0.9 * (len(fit_ms) - 1))], "ms")

    for name, unit in COUNT_UNITS.items():
        metrics[name] = (traces[0]["counts"].get(name, 0), unit)
    kernel_s = metrics["kernels.gwr_fit_all.self_s"][0]
    solves = metrics["kernels.gwr_local_solves"][0]
    metrics["kernels.gwr_solves_per_s"] = (solves / kernel_s if kernel_s > 0 else 0.0, "1/s")

    traced_wall = statistics.median(r.wall_s for r in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(r.wall_s for r in untraced), "s")
    return metrics


def mark_count_drift(traced: list[Rep], record: Path) -> None:
    """Counts must repeat exactly across traced repetitions and across
    invocations on the same source, seed and workload (kept in `record`)."""
    counts = [r.trace["counts"] for r in traced if r.trace]
    if not counts:
        return
    if record.exists():
        expected = json.loads(record.read_text(encoding="utf-8"))
    else:
        expected = counts[0]
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(expected, sort_keys=True), encoding="utf-8")
    for rep in traced:
        if rep.trace and rep.trace["counts"] != expected:
            rep.problems.append(f"counts {rep.trace['counts']} differ from {expected}")


def print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    width = max((len(name) for name in metrics), default=0)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="time spent on repetitions of the command")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sevi" / "__init__.py").is_file():
        print(f"error: no sevi sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    reference = checks.load_reference(args.workload, args.seed)
    scratch = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    city = scratch / "city"
    try:
        sizes = make_city(city, args.seed, workload.segments, workload.pois)
        env = environment(args.seed, sizes)
        setup: list[float] = []
        if args.trace:
            untraced = run_reps(workload, city, reference, False, args.seconds / 2, setup)
            traced = run_reps(workload, city, reference, True, args.seconds / 2)
            record = WORK / "counts" / f"{args.workload}-{args.seed}-{env['src_sha256'][:16]}.json"
            mark_count_drift(traced, record)
        else:
            untraced = run_reps(workload, city, reference, False, args.seconds, setup)
            traced = []
        if len(setup) < SETUP_REPS:
            setup.extend(measure_setup(city / "config.yaml", SETUP_REPS - len(setup)))
        reps = untraced + traced
        mark_divergent(reps)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(untraced, setup).items()}
    failed = sum(1 for r in reps if r.problems)

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced repetitions, {failed} failed; reference values "
          f"{'checked' if reference else 'not recorded for this seed'}")
    print("environment " + json.dumps(env, sort_keys=True))
    for i, rep in enumerate(reps):
        for problem in rep.problems:
            print(f"  repetition {i}: {problem}", file=sys.stderr)
    print_metrics(metrics)

    result = {
        "correct": failed == 0, "attempted": len(reps), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({**result, "environment": env, "setup_s": setup,
                    "reps": [{k: v for k, v in asdict(r).items() if k != "trace"}
                             for r in reps]}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
