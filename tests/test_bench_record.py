import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _runs(walls, attempted, failed):
    return [{"stamp": {}, "result": {"attempted": a, "failed": f, "correct": not f,
                                     "metrics": {"wall_s": {"unit": "s", "value": w}}}}
            for w, a, f in zip(walls, attempted, failed)]


def test_summarize_synthetic_runs():
    runs = {"parent": _runs([1.0, 2.0, 3.0, 4.0, 5.0], [17] * 5, [0, 0, 1, 0, 0]),
            "change": _runs([0.5, 2.0, 2.5, 5.0, 1.0], [17, 17, 16, 17, 17], [0, 2, 0, 0, 1])}
    summary = bench_record.summarize(runs)
    wall = summary["wall_s"]
    assert wall["parent_median"] == 3.0
    assert wall["change_median"] == 2.0
    assert wall["change_over_parent"] == pytest.approx(2 / 3)
    assert wall["parent_quartile_spread"] == 3.0  # 4.5 - 1.5
    assert wall["pairs_change_lower"] == 3  # pairs 1, 3 and 5; pair 2 is a tie
    assert summary["invocations"] == {"parent": {"attempted": 85, "failed": 1},
                                      "change": {"attempted": 84, "failed": 3}}


@pytest.mark.parametrize("side", ["parent", "change"])
def test_checkout_with_bytecode_under_src_is_refused(tmp_path, capsys, side):
    # a client reads that bytecode and skips compiling, so its setup_s reads low
    for name in ("parent", "change"):
        (tmp_path / name / "src" / "npcount").mkdir(parents=True)
    cached = tmp_path / side / "src" / "npcount" / "__pycache__"
    cached.mkdir()
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                           "--out", str(tmp_path / "out.json"), "--seed", "1"])
    assert exc.value.code != 0
    assert str(cached) in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
