"""Start-up guards: every `sevi` command is a fresh process, so nothing on
the run path may import a module whose import costs more than its use.

No `sevi` module imports scipy. A run path (the CLI plus config parsing)
leaves `sevi.brandsem` unloaded, and the quantiles of the tertile split and
the coefficient summary do not pull in `numpy.ma`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def _probe(code, tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("output_dir: out\n", encoding="utf-8")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, str(config)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_sevi_imports_no_scipy(tmp_path):
    assert _probe(SCIPY_PROBE, tmp_path) == []


def test_run_path_leaves_brandsem_and_numpy_ma_unloaded(tmp_path):
    assert _probe(RUN_PATH_PROBE, tmp_path) == []
