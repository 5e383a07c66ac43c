"""Start-up guard: every `sevi` command is a fresh process, and importing
scipy would cost more than a short run's computation, so no `sevi` module
may import it."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, json, pkgutil, sys
import sevi, sevi.cli
sevi.cli.PipelineConfig.from_file(sys.argv[1])
for info in pkgutil.iter_modules(sevi.__path__):
    importlib.import_module(f"sevi.{info.name}")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_sevi_imports_no_scipy(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("output_dir: out\n", encoding="utf-8")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PROBE, str(config)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
