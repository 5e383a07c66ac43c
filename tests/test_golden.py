"""`run` and `robustness` on the bundled synthetic city reproduce the golden
documents of `tests/data/` (see `tests/golden.py`): text, integers and the
bandwidth search outcome exactly, every other number within 1.5e-6, so that
other BLAS kernels may round a 6th decimal differently."""

import pytest

from . import golden


@pytest.fixture(scope="module")
def results(city_dir, tmp_path_factory):
    return golden.city_results(city_dir, tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", golden.GOLDEN)
def test_results_match_the_golden_documents(results, name):
    found = list(golden.differences(golden.load(golden.DATA / name),
                                    golden.load(results / name), name))
    assert not found, f"{len(found)} values differ; the first ones:\n" + "\n".join(found[:10])


def test_differences_hold_floats_to_the_tolerance():
    doc = {"periods": {"am": {"aicc": 1.0, "bandwidth_m": 900.0, "n": 150}}}
    moved = {"periods": {"am": {"aicc": 1.0 + 1e-6, "bandwidth_m": 900.0, "n": 150}}}
    assert not list(golden.differences(doc, moved, "doc"))
    moved["periods"]["am"]["aicc"] = 1.0 + 2e-6
    assert list(golden.differences(doc, moved, "doc")) == [
        f"doc.periods.am.aicc: 1.0 != {1.0 + 2e-6!r}"]
    for key, value in (("bandwidth_m", 900.0 + 1e-9), ("n", 151)):
        moved = {"periods": {"am": {**doc["periods"]["am"], key: value}}}
        assert len(list(golden.differences(doc, moved, "doc"))) == 1
    assert list(golden.differences([{"tier": "low"}], [{"tier": "mid"}], "rows")) == [
        "rows[0].tier: 'low' != 'mid'"]
