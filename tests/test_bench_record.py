import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _runs(walls, attempted, failed):
    return [{"stamp": {}, "summary": {"raw_wall_s": 2 * w},
             "result": {"attempted": a, "failed": f, "correct": not f,
                        "metrics": {"wall_s": {"unit": "s", "value": w}}}}
            for w, a, f in zip(walls, attempted, failed)]


STDOUT = """\
stamp {"bits": 192, "cpus": 2, "mpmath": "1.3.0"}
wall_s                             0.0262       s      min 0.0251  median 0.0262  q1 0.0258  q3 0.0266  n=40
setup_s                            0.0281       s      min 0.027  median 0.0281  q1 0.0277  q3 0.0285  n=160
peak_rss_mb                        26.25        MB     min 26.1  median 26.25  q1 26.2  q3 26.3  n=40
raw_wall_s                         0.0311       s      min 0.0287  median 0.0311  q1 0.03  q3 0.0325  n=40
host_slowdown                      1.18         ratio  min 1.05  median 1.18  q1 1.12  q3 1.25  n=80
fail_ratio                         0            ratio  failed 0 of 680
{"correct": true, "attempted": 680, "failed": 0, "metrics": {"wall_s": {"unit": "s", "value": 0.0262}}}
"""


def test_parse_run_keeps_every_summary_line():
    run = bench_record.parse_run(STDOUT)
    assert run["stamp"] == {"bits": 192, "cpus": 2, "mpmath": "1.3.0"}
    assert run["summary"] == {"wall_s": 0.0262, "setup_s": 0.0281, "peak_rss_mb": 26.25,
                              "raw_wall_s": 0.0311, "host_slowdown": 1.18, "fail_ratio": 0.0}
    assert run["result"] == {"correct": True, "attempted": 680, "failed": 0,
                             "metrics": {"wall_s": {"unit": "s", "value": 0.0262}}}


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
    assert (wall["parent_raw_median"], wall["change_raw_median"]) == (6.0, 4.0)
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
