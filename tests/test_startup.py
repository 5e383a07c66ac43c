"""Start-up guards: every `sevi` command is a fresh process, so nothing on
the run path may import a module whose import costs more than its use.

No `sevi` module imports scipy. A run path (the CLI plus config parsing)
leaves `sevi.brandsem` unloaded, and the quantiles of the tertile split and
the coefficient summary do not pull in `numpy.ma`. `import sevi` loads no
numpy and leaves the environment as it was.

The command line starts OpenBLAS with one thread, unless the caller sets
OPENBLAS_NUM_THREADS; one and two threads write the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCIPY_PROBE = """
import importlib, json, pkgutil, sys
import sevi, sevi.cli
sevi.cli.PipelineConfig.from_file(sys.argv[1])
for info in pkgutil.iter_modules(sevi.__path__):
    importlib.import_module(f"sevi.{info.name}")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

RUN_PATH_PROBE = """
import json, sys, types
import numpy as np
import sevi.cli
sevi.cli.PipelineConfig.from_file(sys.argv[1])
loaded = ["sevi.brandsem"] if "sevi.brandsem" in sys.modules else []
from sevi.gwr import PERIODS, coef_summary
from sevi.stats import tertile_split
tertile_split([3.0, 1.0, 2.0, 2.0, 5.0, 0.5])
fit = types.SimpleNamespace(predictor_names=["mv"], beta=np.arange(20.0).reshape(10, 2))
coef_summary({p: fit for p in PERIODS}, "mv")
print(json.dumps(loaded + [m for m in ("numpy.ma",) if m in sys.modules]))
"""

LAZY_PROBE = """
import json, os, sys
before = dict(os.environ)
import sevi
numpy = "numpy" in sys.modules
unresolved = [name for name in sevi.__all__ if not hasattr(sevi, name)]
print(json.dumps([numpy, unresolved, dict(os.environ) == before]))
"""

THREADS_PROBE = """
import json, os
import sevi.cli
print(json.dumps(len(os.listdir("/proc/self/task"))))
"""


def _env(**extra):
    """The environment of a child process: this one's without
    OPENBLAS_NUM_THREADS, `src` on the path, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return {**env, **extra}


def _probe(code, tmp_path, **env):
    config = tmp_path / "config.yaml"
    config.write_text("output_dir: out\n", encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", code, str(config)], env=_env(**env),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_sevi_imports_no_scipy(tmp_path):
    assert _probe(SCIPY_PROBE, tmp_path) == []


def test_run_path_leaves_brandsem_and_numpy_ma_unloaded(tmp_path):
    assert _probe(RUN_PATH_PROBE, tmp_path) == []


def test_import_sevi_loads_no_numpy_and_resolves_every_name(tmp_path):
    assert _probe(LAZY_PROBE, tmp_path) == [False, [], True]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("env, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)],
                         ids=["default", "two"])
def test_the_command_line_starts_openblas_with_one_thread(tmp_path, env, threads):
    # OpenBLAS starts no more threads than the process may run on
    if len(os.sched_getaffinity(0)) < threads:
        pytest.skip(f"needs {threads} CPUs")
    assert _probe(THREADS_PROBE, tmp_path, **env) == threads


def test_artifacts_do_not_depend_on_the_blas_thread_count(city_dir, tmp_path):
    """The small city's `run` writes the same bytes with the command line's
    default of one BLAS thread and with two."""
    config = tmp_path / "config.yaml"
    config.write_text("output_dir: out\n", encoding="utf-8")
    outputs = []
    for name, env in (("default", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        done = subprocess.run(
            [sys.executable, "-m", "sevi.cli", "--workdir", str(city_dir), "run",
             "--config", str(config), "--set", f"output_dir={tmp_path / name}"],
            env=_env(**env), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert outputs[0] == outputs[1]
    assert "manifest.json" in outputs[0]
