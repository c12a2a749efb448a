"""Self-tests of the benchmark. Run from the repository root with

    python3 -m pytest -q perfbench

They start real clients against ``src/npcount`` and take under a minute.
"""
from __future__ import annotations

import json
import sys

import pytest

import child
import run
import workloads

COUNTS = ("counting.count_series_calls", "zeros.refined", "zeros.kernel_calls",
          "zeros.calls_per_zero", "asymptotics.full_estimate_calls",
          "asymptotics.coeff_reuse_ratio", "asymptotics.logf_terms",
          *(f"special.{k}_calls" for k in run.KERNELS))


def _flip_digit(text: str, position: int) -> str:
    """Change the data digit nearest to position (the header line is left alone)."""
    digits = [i for i, ch in enumerate(text) if ch.isdigit() and i > text.index("\n")]
    i = min(digits, key=lambda j: abs(j - position))
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_a_flipped_digit_is_a_failed_invocation(name):
    argvs = workloads.invocations(name, seed=7)
    check = workloads.checker(name, 7, run.ROOT)
    result = run.spawn(False, argvs)
    assert run.errors_of(result, argvs, check) == [None] * len(argvs)
    stdouts = [r["stdout"] for r in result["runs"]]
    for i, text in enumerate(stdouts):
        for position in (len(text) // 2, len(text) - 1):
            flipped = stdouts[:i] + [_flip_digit(text, position)] + stdouts[i + 1:]
            assert check(flipped)[i] is not None, (name, i, position)


def test_seeds_change_compare_heights_but_not_the_work():
    a, b = workloads.compare_heights(1), workloads.compare_heights(2)
    assert a != b
    for heights in (a, b):
        assert len(set(heights)) == workloads.COMPARE_HEIGHTS
        assert heights[-1] == workloads.COMPARE_MAX
        assert all(workloads.COMPARE_MIN <= n <= workloads.COMPARE_MAX for n in heights)
    assert workloads.invocations("compare", 1) == workloads.invocations("compare", 1)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_call_counts_repeat_and_stdout_is_unchanged(name):
    argvs = workloads.invocations(name, seed=3)
    plain = run.spawn(False, argvs)
    traced = [run.spawn(True, argvs) for _ in range(2)]
    for t in traced:
        run.check_spans(name, t)
        assert [r["stdout"] for r in t["runs"]] == [r["stdout"] for r in plain["runs"]]
    first, second = (run.layer_metrics(t, workloads.zero_count(name)) for t in traced)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    kernel_calls = sum(first[f"special.{k}_calls"] for k in run.KERNELS)
    assert (kernel_calls == 0) == (name == "exact")


def test_reference_seconds_drop_the_probe_and_scale_by_its_speed():
    probe = {"probe_s": 0.25, "probe_mean_s": 2 * run.REF_PROBE_S}
    assert run.reference_seconds(2.25, probe) == pytest.approx(1.0)


def test_the_probe_samples_every_timed_section():
    argvs = workloads.invocations("exact", seed=1)
    result = run.spawn(False, argvs)
    sections = [result["setup_probe"], *result["runs"]]
    for section in sections:
        assert section["probe_mean_s"] > 0
        assert 0 <= section["probe_s"] < 0.05 * result["runs"][0]["seconds"]
    for r in result["runs"]:
        assert r["probes"] >= 0.5 * r["seconds"] / child.PROBE_INTERVAL_S


def test_a_missing_wrapped_name_fails_loudly(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    monkeypatch.setattr(child, "WRAPPED", (("npcount.cli", "no_such_function", "x", None),))
    with pytest.raises(AttributeError, match="no_such_function"):
        child.Tracer().install()


def test_a_span_that_never_fires_fails_loudly():
    with pytest.raises(run.Broken, match="special.complex_zeta"):
        run.check_spans("compare", {"spans": [{"name": "cli.main", "parent": -1}]})


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_no_program_means_no_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", run.HERE / "no-such-checkout")
    assert run.main(["--workload", "exact", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
