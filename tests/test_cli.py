import csv
import shutil

import pytest

from sevi.cli import main


def _config(tmp_path, text=""):
    path = tmp_path / "config.yaml"
    path.write_text(f"output_dir: {tmp_path / 'out'}\n{text}", encoding="utf-8")
    return str(path)


def test_stage_run_exits_zero(city_dir, tmp_path):
    code = main(["--workdir", str(city_dir), "spillover", "--config", _config(tmp_path)])
    assert code == 0
    assert (tmp_path / "out" / "mv.csv").is_file()


@pytest.mark.parametrize("extra, overrides", [
    ("no_such_key: 1\n", []),
    ("", ["--set", "gwr.no_such_key=1"]),
])
def test_bad_config_exits_one(city_dir, tmp_path, capsys, extra, overrides):
    argv = ["--workdir", str(city_dir), "spillover", "--config", _config(tmp_path, extra)]
    assert main(argv + overrides) == 1
    assert "no_such_key" in capsys.readouterr().err


def test_calibration_error_exits_two(city_dir, tmp_path, capsys):
    city = tmp_path / "city"
    shutil.copytree(city_dir, city)
    with open(city / "anchors.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:  # every anchor of every category at the same spot
        row["lon"], row["lat"] = rows[0]["lon"], rows[0]["lat"]
    with open(city / "anchors.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert main(["--workdir", str(city), "spillover", "--config", _config(tmp_path)]) == 2
    assert "stage 'calibrate_sigma' failed" in capsys.readouterr().err
