"""One benchmark client: a fresh process that times set-up, then runs CLI invocations.

Usage::

    python3 perfbench/child.py ROOT TRACE INVOCATIONS_JSON

ROOT is the checkout holding ``src/npcount``; TRACE is ``0`` or ``1``;
INVOCATIONS_JSON is a JSON list of argv lists for ``npcount.cli.main``.
An empty list makes a set-up-only client.

The client times ``import npcount`` up to ``bundled_zeros()`` returning,
then calls ``cli.main(argv)`` for each invocation with stdout captured in
memory, and prints one JSON object: set-up seconds, max RSS, and per
invocation its exit code, seconds inside ``cli.main`` and stdout. With
TRACE 1 it first wraps public module attributes of the program so that
every call records a span; the program's own files are not changed.

Throughout, a speed probe (``Probe``) runs a fixed piece of pure-Python
integer work from a SIGALRM handler every ``PROBE_INTERVAL_S`` of wall time, in
the client's own thread. Each timed section (set-up, every invocation)
also reports how long the probe took within it, so the caller can tell
the program's cost from the host's speed at that moment.

Exit code ``BROKEN`` (70) means the benchmark cannot attach to the program:
npcount did not import from ROOT/src, or a wrapped name no longer exists.
"""
from __future__ import annotations

import functools
import importlib
import io
import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

BROKEN = 70

#: Wall time between two runs of the speed probe, and the probe's fixed work:
#: PROBE_LOOPS small-integer steps, then PROBE_BIG_LOOPS steps on a 2000-bit
#: integer, each half taking about the same time, as the program mixes both.
PROBE_INTERVAL_S = 0.005
PROBE_LOOPS = 200
PROBE_BIG_LOOPS = 25
PROBE_BIG = 7 ** 700
#: Share of a section's probe times, the slowest, left out of its probe time:
#: a probe that a host preemption lands in reads many times its length.
PROBE_TRIM = 0.2

#: (module, attribute, span name, result attribute kept as the span's info).
#: The CLI imports layer functions into its own namespace, so the layer
#: calls it makes are wrapped there; calls made inside a layer are wrapped
#: in the calling module's namespace.
WRAPPED = (
    ("npcount.cli", "main", "cli.main", None),
    ("npcount.cli", "count_series", "counting.count_series", "limit"),
    ("npcount.cli", "rho_recurrence_table", "rho.table", "max_height"),
    ("npcount.cli", "refine_catalog", "zeros.refine_catalog", None),
    ("npcount.zeros", "refine_zero", "zeros.refine_zero", None),
    ("npcount.zeros", "zeta_with_derivative", "special.zeta_with_derivative", None),
    ("npcount.cli", "full_estimate", "asymptotics.full_estimate", None),
    ("npcount.cli", "logf_expansion_check", "asymptotics.logf", "terms"),
    ("npcount.asymptotics", "complex_gamma", "special.complex_gamma", None),
    ("npcount.asymptotics", "complex_zeta", "special.complex_zeta", None),
    ("npcount.asymptotics", "zeta_derivative", "special.zeta_derivative", None),
)


class Probe:
    """Times a fixed loop every PROBE_INTERVAL_S, interleaved with the program in its thread."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def _run(self, signum=None, frame=None) -> None:
        start = perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        for i in range(PROBE_BIG_LOOPS):
            total += (PROBE_BIG + i) * (i + 1)
        self.times.append(perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def section(self, first: int, last: int) -> dict:
        """Probes first..last-1 of a section: count, summed seconds, trimmed mean seconds."""
        times = self.times[first:last]
        total = sum(times)
        if not times:  # a section shorter than one interval: probe right after it
            self._run()
            times = self.times[-1:]
        kept = sorted(times)[:max(1, len(times) - int(len(times) * PROBE_TRIM))]
        return {"probes": last - first, "probe_s": total, "probe_mean_s": sum(kept) / len(kept)}


class Tracer:
    """In-memory spans: name, start, end, index of the enclosing span, info."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def install(self) -> None:
        for module, attr, name, info in WRAPPED:
            mod = importlib.import_module(module)
            if not callable(getattr(mod, attr, None)):
                raise AttributeError(f"{module}.{attr} no longer exists; cannot trace {name}")
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, info))

    def _wrap(self, fn, name: str, info: str | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else -1}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._open.pop()
            if info is not None:
                span["info"] = getattr(result, info, None)
            return result
        return traced


def _run(cli, argv: list[str], probe: Probe) -> dict:
    real, sys.stdout = sys.stdout, io.StringIO()
    first = len(probe.times)
    start = perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed invocation, not a crashed client
        traceback.print_exc()
        code = 1
    finally:
        seconds = perf_counter() - start
        last = len(probe.times)
        captured, sys.stdout = sys.stdout, real
    return {"argv": argv, "exit": code, "seconds": seconds, **probe.section(first, last),
            "stdout": captured.getvalue()}


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve()
    trace = argv[2] == "1"
    invocations = json.loads(argv[3])
    src = root / "src"
    sys.path.insert(0, str(src))
    probe = Probe()
    probe.start()
    start = perf_counter()
    try:
        import npcount  # noqa: F401  (timed: the import is the set-up cost)
        from npcount.zeros import bundled_zeros
        bundled_zeros()
    except ImportError as exc:
        print(f"cannot import npcount from {src}: {exc}", file=sys.stderr)
        return BROKEN
    setup_s = perf_counter() - start
    setup_probe = probe.section(0, len(probe.times))
    if Path(npcount.__file__).resolve().parent != src / "npcount":
        print(f"npcount imported from {npcount.__file__}, not {src}", file=sys.stderr)
        return BROKEN

    from npcount import cli
    tracer = Tracer() if trace else None
    if tracer is not None:
        try:
            tracer.install()
        except (ImportError, AttributeError) as exc:
            print(exc, file=sys.stderr)
            return BROKEN

    runs = [_run(cli, args, probe) for args in invocations]
    probe.stop()
    result = {
        "setup_s": setup_s,
        "setup_probe": setup_probe,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "runs": runs,
        "spans": tracer.spans if tracer is not None else [],
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
