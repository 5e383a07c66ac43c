"""Golden documents of the bundled synthetic city.

`GOLDEN` names the small result files of `sevi run` and `sevi robustness`
on the `synth` default city (seed 20251015, 160 segments, 2,500 POIs) that
`tests/data/` holds. `test_golden.py` runs both commands and compares their
results with these files. To write them again from the code:

    PYTHONPATH=src python -m tests.golden

Writing them again is a change of results: say which values moved and why.
"""

from __future__ import annotations

import csv
import json
import shutil
import tempfile
from pathlib import Path

from sevi.pipeline import PipelineConfig, robustness, run
from sevi.synth import generate_city

DATA = Path(__file__).parent / "data"
GOLDEN = ("gwr_summary.json", "weights.json", "kw.json", "pca_summary.json",
          "tier_validation.csv", "coef_summary.csv", "gwr_we_md.csv", "robustness.json",
          "sigma.csv", "indicators.csv", "sevi.csv", "pca_loadings.csv")
# the search outcome is compared exactly; so are text and integers
EXACT = frozenset({"bandwidth_m", "aicc_evals", "bandwidth_boundary"})
TOLERANCE = 1.5e-6  # absolute, for every other float


def city_results(city_dir: Path, outdir: Path) -> Path:
    """Run `run` and then `robustness` with the default config on the city
    in `city_dir`, both writing into `outdir`; return `outdir`."""
    config = PipelineConfig.from_mapping({"output_dir": str(outdir)})
    run(config, city_dir)
    robustness(config, city_dir)
    return outdir


def _cell(text: str):
    # a CSV number with a decimal point is a float; the rest stays text
    try:
        return float(text) if "." in text else text
    except ValueError:
        return text


def load(path: Path):
    """A JSON document as parsed, or a CSV file as a list of rows, each a
    {column: cell} dict."""
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def differences(golden, result, where: str, key=None):
    """Where `result` departs from `golden`: a float under a key outside EXACT
    by more than TOLERANCE, anything else (keys, lengths, types, text,
    integers, the search outcome) by any amount."""
    if isinstance(golden, float) and isinstance(result, float) and key not in EXACT:
        if not abs(golden - result) <= TOLERANCE:
            yield f"{where}: {golden!r} != {result!r}"
    elif isinstance(golden, dict) and isinstance(result, dict):
        if list(golden) != list(result):
            yield f"{where}: keys {list(golden)} != {list(result)}"
        else:
            for k in golden:
                yield from differences(golden[k], result[k], f"{where}.{k}", k)
    elif isinstance(golden, list) and isinstance(result, list):
        if len(golden) != len(result):
            yield f"{where}: {len(golden)} entries != {len(result)}"
        else:
            for i, (a, b) in enumerate(zip(golden, result)):
                yield from differences(a, b, f"{where}[{i}]", key)
    elif type(golden) is not type(result) or golden != result:
        yield f"{where}: {golden!r} != {result!r}"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        city = Path(tmp) / "city"
        generate_city(city)
        outdir = city_results(city, Path(tmp) / "out")
        DATA.mkdir(exist_ok=True)
        for name in GOLDEN:
            shutil.copyfile(outdir / name, DATA / name)
            print(f"wrote {DATA / name}")


if __name__ == "__main__":
    main()
