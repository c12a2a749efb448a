"""npcount benchmark: run one workload through ``npcount.cli.main`` and report its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {exact,compare,logf} --seed N --seconds S --trace {0,1}

Load is a closed loop with one client: one fresh client process at a time
(``child.py``), each running the workload's CLI invocations once, until S
seconds have passed. Every output is checked (``workloads.py``); an
invocation that exits non-zero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (seconds inside
``cli.main``, summed over the workload's invocations, per fresh process),
``setup_s`` (seconds from ``import npcount`` to ``bundled_zeros()``
returning) and ``peak_rss_mb`` (the client's max RSS). ``--trace 1``
alternates plain and traced clients and reports the per-layer metrics
computed from the traced clients' spans; the spans are written to
``perfbench/out/`` when the run ends.

``wall_s`` and ``setup_s`` are reference seconds: seconds at the host
speed at which the client's speed probe (``child.Probe``) takes
``REF_PROBE_S``. Each timed section's seconds, less the probe's own time,
are scaled by ``REF_PROBE_S`` over the probe's time within that section.
On a shared 2-vCPU virtual machine the host's speed was measured to drop
by up to a half, for periods from under a second to over an hour; that
moved raw times of one client by 15-19% (coefficient of variation), and
the scaled times by 3-4%. The probe is fixed code that does not use the
program, so a change in the program's own cost moves the scaled time in
full. A run reports the median of its samples for every end-to-end metric
and per-layer count; per-layer times are raw seconds and report the best
(smallest) sample. ``setup_s`` has more samples than the others: each
repetition adds its own client's and those of set-up-only clients.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it give the
environment stamp; for each metric its run value, min, median, quartiles,
sample count and the highest percentile with ten samples beyond it; and
the ratio of failed to attempted invocations.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import mpmath

import child
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: (name, unit, better) of the metrics each mode prints; BENCHMARK.json lists the same.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
KERNELS = ("zeta_with_derivative", "complex_zeta", "zeta_derivative", "complex_gamma")
PER_LAYER = (
    ("counting.count_series_s", "s", "lower"),
    ("counting.count_series_calls", "count", "lower"),
    ("counting.max_n", "height", "higher"),
    ("rho.table_s", "s", "lower"),
    ("rho.max_height", "height", "higher"),
    ("zeros.refine_catalog_s", "s", "lower"),
    ("zeros.refined", "count", "higher"),
    ("zeros.kernel_calls", "count", "lower"),
    ("zeros.calls_per_zero", "ratio", "lower"),
    *((f"special.{k}{suffix}", unit, "lower") for k in KERNELS
      for suffix, unit in (("_s", "s"), ("_calls", "count"))),
    ("special.mean_call_ms", "ms", "lower"),
    ("asymptotics.full_estimate_s", "s", "lower"),
    ("asymptotics.full_estimate_self_s", "s", "lower"),
    ("asymptotics.full_estimate_calls", "count", "lower"),
    ("asymptotics.coeff_reuse_ratio", "ratio", "higher"),
    ("asymptotics.logf_s", "s", "lower"),
    ("asymptotics.logf_self_s", "s", "lower"),
    ("asymptotics.logf_terms", "count", "lower"),
    ("asymptotics.logf_ns_per_term", "ns", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: Spans that must fire in a traced client whose invocations all succeed.
MUST_FIRE = {
    "exact": ("cli.main", "counting.count_series", "rho.table"),
    "compare": ("cli.main", "counting.count_series", "zeros.refine_catalog", "zeros.refine_zero",
                "special.zeta_with_derivative", "asymptotics.full_estimate",
                *(f"special.{k}" for k in KERNELS[1:])),
    "logf": ("cli.main", "zeros.refine_catalog", "zeros.refine_zero",
             "special.zeta_with_derivative", "asymptotics.logf",
             *(f"special.{k}" for k in KERNELS[1:])),
}

#: Probe time that defines reference speed. The probe takes about this long
#: on an uncontended 2-vCPU Intel Xeon virtual machine, so reference seconds
#: read close to real seconds there.
REF_PROBE_S = 15e-6

#: Extra set-up-only clients per repetition: set-up is short and its spread wide.
SETUP_CLIENTS_PER_REP = 2
CLIENT_TIMEOUT_S = 120


class Broken(RuntimeError):
    """The benchmark cannot measure this program; the run ends without a result."""


def spawn(trace: bool, argvs: list[list[str]]) -> dict | None:
    """Run one client to completion; None if it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), "1" if trace else "0",
           json.dumps(argvs)]
    # no bytecode is written, so set-up always includes compiling npcount from
    # source and a client writes nothing outside the checkout
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: client timed out after {CLIENT_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode == child.BROKEN:
        raise Broken(proc.stderr.strip())
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def reference_seconds(seconds: float, probe: dict) -> float:
    """A section's seconds without the probe's own time, scaled to reference speed."""
    return (seconds - probe["probe_s"]) * REF_PROBE_S / probe["probe_mean_s"]


def errors_of(result: dict | None, argvs: list[list[str]], check) -> list[str | None]:
    """One error message (or None) per invocation of a repetition."""
    if result is None:
        return ["client crashed"] * len(argvs)
    runs = result["runs"]
    errors = check([r["stdout"] for r in runs])
    return [f"exit {r['exit']}" if r["exit"] != 0 else e for r, e in zip(runs, errors)]


def layer_metrics(result: dict, k: int) -> dict[str, float]:
    """Per-layer metrics of one traced client. Self time = duration minus direct children."""
    spans = result["spans"]
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    info: dict[str, list] = defaultdict(list)
    for s in spans:
        d = s["end"] - s["start"]
        dur[s["name"]] += d
        own[s["name"]] += d
        calls[s["name"]] += 1
        if s["parent"] >= 0:
            own[spans[s["parent"]]["name"]] -= d
        if "info" in s:
            info[s["name"]].append(s["info"])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "counting.count_series_s": dur["counting.count_series"],
        "counting.count_series_calls": calls["counting.count_series"],
        "counting.max_n": max(info["counting.count_series"], default=0),
        "rho.table_s": dur["rho.table"],
        "rho.max_height": max(info["rho.table"], default=0),
        "zeros.refine_catalog_s": dur["zeros.refine_catalog"],
        "zeros.refined": calls["zeros.refine_zero"],
        "zeros.kernel_calls": calls["special.zeta_with_derivative"],
        "zeros.calls_per_zero": ratio(calls["special.zeta_with_derivative"],
                                      calls["zeros.refine_zero"]),
    }
    for name in KERNELS:
        m[f"special.{name}_s"] = dur[f"special.{name}"]
        m[f"special.{name}_calls"] = calls[f"special.{name}"]
    m["special.mean_call_ms"] = 1000 * ratio(sum(dur[f"special.{n}"] for n in KERNELS),
                                             sum(calls[f"special.{n}"] for n in KERNELS))
    estimates = calls["asymptotics.full_estimate"]
    m.update({
        "asymptotics.full_estimate_s": dur["asymptotics.full_estimate"],
        "asymptotics.full_estimate_self_s": own["asymptotics.full_estimate"],
        "asymptotics.full_estimate_calls": estimates,
        "asymptotics.coeff_reuse_ratio": (1 - ratio(calls["special.complex_gamma"], estimates * k)
                                          if estimates and k else 0.0),
        "asymptotics.logf_s": dur["asymptotics.logf"],
        "asymptotics.logf_self_s": own["asymptotics.logf"],
        "asymptotics.logf_terms": sum(info["asymptotics.logf"]),
        "asymptotics.logf_ns_per_term": 1e9 * ratio(own["asymptotics.logf"],
                                                    sum(info["asymptotics.logf"])),
        "cli.main_s": dur["cli.main"],
        "cli.self_s": own["cli.main"],
        "cli.output_bytes": sum(len(r["stdout"].encode("utf-8")) for r in result["runs"]),
    })
    return m


def check_spans(workload: str, result: dict) -> None:
    """Raise Broken if a span that must fire did not, or a span lost its info."""
    fired = {s["name"] for s in result["spans"]}
    missing = [name for name in MUST_FIRE[workload] if name not in fired]
    if missing:
        raise Broken(f"traced {workload} client: spans never fired: {', '.join(missing)}")
    lost = sorted({s["name"] for s in result["spans"] if "info" in s and s["info"] is None})
    if lost:
        raise Broken(f"traced {workload} client: result attribute missing on {', '.join(lost)}")


def stamp(args) -> dict:
    """What a number depends on besides the code: interpreter, mpmath backend, machine, inputs."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "npcount").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_count": os.cpu_count(),
        "bits": workloads.BITS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_value(name: str, unit: str, values: list[float]) -> float:
    """The value a run reports: the best sample for per-layer times, else the median."""
    if name in {n for n, _, _ in END_TO_END} or unit not in ("s", "ms", "ns"):
        return statistics.median(values)
    return min(values)


def summary(name: str, unit: str, values: list[float]) -> str:
    """Run value, min, median, quartiles, and the highest percentile with 10 samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    q1, med, q3 = statistics.quantiles(ordered, n=4) if n > 1 else (ordered[0],) * 3
    line = (f"{name:<34} {run_value(name, unit, values):<12.6g} {unit:<6} min {ordered[0]:.6g}"
            f"  median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            rank = min(n, max(1, -(-n * p // 100)))
            return line + f"  p{p:g} {ordered[int(rank) - 1]:.6g}"
    return line + "  (no percentile above the median has 10 samples beyond it)"


def measure(args, argvs, check) -> tuple[dict, int, int, list[str], dict]:
    """Closed loop of plain clients; end-to-end metrics (and raw times) as lists of samples."""
    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
    #: printed beside the metrics, not reported: raw seconds and the host's slowdown
    raw = {"raw_wall_s": [], "host_slowdown": []}
    attempted = failed = 0
    errors: list[str] = []
    spawn(False, [])  # warm-up: page the interpreter and mpmath in before timing
    start = perf_counter()
    while True:
        result = spawn(False, argvs)
        errs = errors_of(result, argvs, check)
        attempted += len(argvs)
        failed += sum(e is not None for e in errs)
        errors += [e for e in errs if e]
        if result is not None:
            runs = result["runs"]
            samples["wall_s"].append(sum(reference_seconds(r["seconds"], r) for r in runs))
            samples["setup_s"].append(reference_seconds(result["setup_s"], result["setup_probe"]))
            samples["peak_rss_mb"].append(result["maxrss_kb"] / 1024)
            raw["raw_wall_s"].append(sum(r["seconds"] for r in runs))
            raw["host_slowdown"] += [r["probe_mean_s"] / REF_PROBE_S for r in runs]
        for _ in range(SETUP_CLIENTS_PER_REP):
            extra = spawn(False, [])
            if extra is not None:
                samples["setup_s"].append(reference_seconds(extra["setup_s"],
                                                            extra["setup_probe"]))
        if perf_counter() - start >= args.seconds:
            return samples, attempted, failed, errors, raw


def measure_traced(args, argvs, check) -> tuple[dict, int, int, list[str], list[dict]]:
    """Alternate plain and traced clients; per-layer metrics as lists of samples."""
    samples: dict[str, list[float]] = defaultdict(list)
    plain_main: list[float] = []
    traced_results: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    k = workloads.zero_count(args.workload)
    spawn(False, [])  # warm-up
    start = perf_counter()
    while True:
        # alternate which side goes first, so drift in host speed hits both alike
        order = (False, True) if len(traced_results) % 2 == 0 else (True, False)
        results = {trace: spawn(trace, argvs) for trace in order}
        plain, traced = results[False], results[True]
        plain_errs = errors_of(plain, argvs, check)
        traced_errs = errors_of(traced, argvs, check)
        if plain is not None and traced is not None:
            for i, (p, t) in enumerate(zip(plain["runs"], traced["runs"])):
                if p["stdout"] != t["stdout"] and traced_errs[i] is None:
                    traced_errs[i] = "traced stdout differs from untraced stdout"
        attempted += 2 * len(argvs)
        for errs in (plain_errs, traced_errs):
            failed += sum(e is not None for e in errs)
            errors += [e for e in errs if e]
        if plain is not None:
            plain_main.append(sum(r["seconds"] for r in plain["runs"]))
        if traced is not None:
            if all(e is None for e in traced_errs):
                check_spans(args.workload, traced)
            traced_results.append(traced)
            for name, value in layer_metrics(traced, k).items():
                samples[name].append(value)
        if perf_counter() - start >= args.seconds:
            break
    if samples and plain_main:
        samples["trace.overhead_s"] = [min(samples["cli.main_s"]) - min(plain_main)]
    return samples, attempted, failed, errors, traced_results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "npcount" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'npcount'} is missing",
              file=sys.stderr)
        return 2

    env = stamp(args)
    argvs = workloads.invocations(args.workload, args.seed)
    try:
        check = workloads.checker(args.workload, args.seed, ROOT)
        if args.trace:
            samples, attempted, failed, errors, traced = measure_traced(args, argvs, check)
            specs = PER_LAYER
        else:
            samples, attempted, failed, errors, raw = measure(args, argvs, check)
            specs = END_TO_END
        if not all(samples.get(name) for name, _, _ in specs):
            raise Broken("no client completed, so there is nothing to report")
    except (Broken, workloads.BadReference, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"stamp": env, "clients": [
            {"argv": [r["argv"] for r in t["runs"]], "spans": t["spans"]} for t in traced]}))
    for error in sorted(set(errors)):
        print(f"perfbench: failed: {error}", file=sys.stderr)

    print("stamp " + json.dumps(env, sort_keys=True))
    metrics = {}
    for name, unit, _ in specs:
        print(summary(name, unit, samples[name]))
        metrics[name] = {"value": run_value(name, unit, samples[name]), "unit": unit}
    if not args.trace:
        print(summary("raw_wall_s", "s", raw["raw_wall_s"]))
        print(summary("host_slowdown", "ratio", raw["host_slowdown"]))
    print(f"{'fail_ratio':<34} {failed / attempted:<12.6g} ratio  failed {failed} of {attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
