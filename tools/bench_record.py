"""Record the benchmark of a parent and a changed checkout in one JSON file.

Usage (from the root of a checkout)::

    python3 tools/bench_record.py --parent DIR --change DIR --out BENCH_N.json --seed SEED

For every workload that ``BENCHMARK.json`` lists, this runs each checkout's
own ``perfbench/run.py`` unchanged, for the run length that file sets,
:data:`PAIRS` times on each side, in pairs that alternate which side runs
first; each run is its own process with the checkout as working directory.
Of each run it keeps the ``stamp {...}`` line (Python and mpmath versions,
mpmath backend, ``--bits``, CPU count, source digest), the run value of
every summary line (``raw_wall_s`` and ``host_slowdown`` among them, which
the final line does not carry) and the final JSON line (metrics, attempted
and failed invocations). The output file holds every kept run and, per
workload, a summary: per metric both sides' medians, their ratio, the
parent's quartile spread and the pairs the change read lower in; beside
``wall_s`` each side's median ``raw_wall_s``; and under ``invocations`` each
side's attempted and failed totals.

A checkout that holds a ``__pycache__`` directory under ``src/`` is refused:
clients write no bytecode but read what is there, and skip compiling the
package, so their ``setup_s`` would not be a clean checkout's.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: Runs per side and workload: a gain counts only if the change reads lower
#: in at least nine of ten alternating pairs.
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in checkout: its stamp and its result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def parse_run(stdout: str) -> dict:
    """A ``perfbench/run.py`` stdout as its stamp, each summary line's run value and its result.

    The stamp line is ``stamp {...}``, the last line the result's JSON, and
    every line between them a summary: its name, then its run value.
    """
    lines = stdout.splitlines()
    stamp = next(json.loads(line[len("stamp "):]) for line in lines if line.startswith("stamp "))
    values = {name: float(value) for name, value, *_ in
              (line.split() for line in lines[:-1] if not line.startswith("stamp "))}
    return {"stamp": stamp, "summary": values, "result": json.loads(lines[-1])}


def summarize(runs: dict) -> dict:
    """Per metric: each side's median, their ratio, the parent's quartile spread
    and the number of pairs in which the change read lower (a tie counts for
    neither side); beside ``wall_s``, each side's median ``raw_wall_s``; under
    ``invocations``, each side's attempted and failed totals."""
    out = {}
    for name in runs["parent"][0]["result"]["metrics"]:
        vals = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        parent, change = (statistics.median(vals[side]) for side in SIDES)
        q1, _, q3 = statistics.quantiles(vals["parent"], n=4)
        out[name] = {"parent_median": parent, "change_median": change,
                     "change_over_parent": change / parent if parent else None,
                     "parent_quartile_spread": q3 - q1,
                     "pairs_change_lower": sum(c < p for p, c in zip(vals["parent"], vals["change"]))}
    for side in SIDES:
        out["wall_s"][f"{side}_raw_median"] = statistics.median(
            r["summary"]["raw_wall_s"] for r in runs[side])
    out["invocations"] = {side: {key: sum(r["result"][key] for r in runs[side])
                                 for key in ("attempted", "failed")} for side in SIDES}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, required=True,
                        help="perfbench seed; pick one no earlier record used")
    args = parser.parse_args(argv)
    for side in SIDES:
        cached = sorted(getattr(args, side).glob("src/**/__pycache__"))
        if cached:
            parser.error(f"--{side} holds bytecode in {cached[0]}; use a clean checkout")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    record = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {side: [] for side in SIDES}
        for i in range(PAIRS):
            for side in SIDES[::1 if i % 2 == 0 else -1]:
                runs[side].append(run_once(getattr(args, side).resolve(), workload, args.seed, seconds))
                print(f"{workload} {side}: {json.dumps(runs[side][-1]['result']['metrics'])}",
                      file=sys.stderr)
        record["workloads"][workload] = {"runs": runs, "summary": summarize(runs)}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
