"""Closed-loop benchmark of the apolarity toolkit.

    python3 bench/run.py --workload perazzo-jdt --seed 1 --seconds 30 --trace 0

Runs one workload in this process as a single client: the next op starts
when the previous one ends, until the ops have used ``--seconds`` of wall
time.  Op i draws its inputs from the seed and i, and its answer is checked
outside the timed region.  The calibration kernel runs between ops to
measure the machine's current speed, and every time is reported in
reference seconds (see ``calibration.py``).  With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
every second op runs under the span tracer and the line carries the
per-layer metrics.  The full result, the raw wall times, the environment
and (traced) the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_S, kernel_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 21  # fresh interpreters per run; setup_s is their median
DEADLINE_S = 150.0  # stop starting ops after this much wall time

# per-layer metrics: span self times, call counts, counters and the
# inclusive shares the workloads are built around
SHARES = ("apolar.model_from_dual", "jordan.rank_profile", "apolar.model_from_ideal")
CALLS = ("apolar.step_matrix_rows", "exactlinalg.span", "exactlinalg.rank",
         "exactlinalg.kernel", "jordan.rank_profile")
COUNTS = ("polyring.monomials_emitted", "apolar.coord_cells", "exactlinalg.rank_cells",
          "exactlinalg.matmul_madds", "perazzo.forms")

SETUP_CODE = """
import statistics, sys, time
start = time.perf_counter()
import {modules}
elapsed = time.perf_counter() - start
if not apolarity.__file__.startswith(sys.argv[1]):
    sys.exit("apolarity was imported from outside the checkout")
from calibration import kernel_s
print(elapsed, statistics.median(kernel_s() for _ in range(3)))
"""


def _python_env():
    env = dict(os.environ)
    paths = [str(SRC), str(BENCH), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return env


def measure_setup(modules):
    """Median import time of the package in fresh interpreters, each scaled
    to reference seconds by a kernel run in the same interpreter, and the
    median raw wall time."""
    code = SETUP_CODE.format(modules=modules)
    ref, raw = [], []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, env=_python_env(), cwd=ROOT,
            timeout=60, check=True,
        )
        wall, kernel = map(float, proc.stdout.split())
        ref.append(wall * REFERENCE_S / kernel)
        raw.append(wall)
    # the first interpreter may compile bytecode
    return statistics.median(ref[1:]), statistics.median(raw[1:])


@dataclass
class RunResult:
    attempted: int = 0
    raised: int = 0
    busy_s: float = 0.0  # wall time inside ops
    ref_busy_s: float = 0.0  # the same in reference seconds
    timings: list = field(default_factory=list)  # (traced, wall_s, kernel_s) per returned op
    failures: list = field(default_factory=list)
    divisors: int = 0
    candidates: int = 0

    def latencies(self, traced=False, raw=False):
        """Op times in reference seconds (or raw wall seconds)."""
        return [w if raw else w * REFERENCE_S / k for t, w, k in self.timings if t == traced]

    def kernels(self, traced=False):
        return [k for t, _w, k in self.timings if t == traced]

    @property
    def failed(self):
        return len(self.failures)


def run_workload(wl, seed, seconds, tracer=None, corrupt=None):
    """Closed loop over fresh inputs for ``seconds`` of op wall time.  With a
    tracer, odd-numbered ops run traced.  ``corrupt`` alters each answer
    before its check (self-test only)."""
    started = perf_counter()
    wl.prepare()
    wl.run(wl.make_input(random.Random(f"{wl.name}:{seed}:warmup")))
    res = RunResult()
    min_ops = 1 if tracer is None else 2  # a traced run needs both kinds of op
    i = 0
    before = kernel_s()
    while (res.busy_s < seconds or i < min_ops) and perf_counter() - started < DEADLINE_S:
        inp = wl.make_input(random.Random(f"{wl.name}:{seed}:{i}"))
        traced = tracer is not None and i % 2 == 1
        error = None
        if traced:
            tracer.install()
        start = perf_counter()
        try:
            out = tracer.op(wl.run, inp) if traced else wl.run(inp)
        except Exception:
            error = traceback.format_exc(limit=-3)
        finally:
            elapsed = perf_counter() - start
            if traced:
                tracer.uninstall()
        after = kernel_s()
        kernel = (before + after) / 2  # the machine's speed around this op
        before = after
        res.attempted += 1
        res.busy_s += elapsed
        res.ref_busy_s += elapsed * REFERENCE_S / kernel
        if error is not None:
            res.raised += 1
            problems = [error]
        else:
            res.timings.append((traced, elapsed, kernel))
            if corrupt is not None:
                out = corrupt(out)
            try:
                problems = wl.check(inp, out)
            except Exception:
                problems = [traceback.format_exc(limit=-3)]
        if problems:
            res.failures.append({"op": i, "problems": problems})
        if traced:
            div, cand = wl.divisor_counts(inp)
            res.divisors += div
            res.candidates += cand
        i += 1
    return res


def tail(latencies):
    """Latency at the highest percentile with at least 10 ops beyond it,
    and that percentile (the maximum when there are fewer than 11 ops)."""
    s = sorted(latencies)
    k = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(res, setup_s):
    lat = res.latencies()
    return {
        "ops_per_s": ((res.attempted - res.raised) / res.ref_busy_s, "1/s"),
        "op_s_p50": (statistics.median(lat), "s"),
        "op_s_tail": (tail(lat)[0], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": ((res.attempted - res.failed) / res.attempted, "ratio"),
    }


def per_layer(res, tracer):
    self_s, calls, inclusive = tracer.summary(SHARES)
    n = len(res.latencies(traced=True))
    wall = sum(res.latencies(traced=True, raw=True))
    scale = REFERENCE_S / statistics.median(res.kernels(traced=True))
    names = list(dict.fromkeys(name for name, *_ in tracer.targets))
    out = {f"{name}_s": (self_s[name] * scale / n, "s/op") for name in names}
    out.update({f"{name}_calls": (calls[name] / n, "count/op") for name in CALLS})
    out.update({name: (tracer.counters[name] / n, "count/op") for name in COUNTS})
    out.update({f"{name}_share": (inclusive[name] / wall, "ratio") for name in SHARES})
    spans = calls["exactlinalg.span"]
    out["exactlinalg.span_added_ratio"] = (
        tracer.counters["exactlinalg.span_added"] / spans if spans else 0.0, "ratio")
    out["apolar.divisor_share"] = (res.divisors / res.candidates, "ratio")
    out["trace.unattributed_s"] = (self_s["op"] * scale / n, "s/op")
    out["trace.self_sum_frac"] = (sum(self_s.values()) / wall, "ratio")
    traced_p50 = statistics.median(res.latencies(traced=True))
    out["trace.op_s_p50"] = (traced_p50, "s")
    out["trace.overhead_s"] = (traced_p50 - statistics.median(res.latencies()), "s")
    return out


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "load": "1 process, 1 thread, closed loop, 1 client",
    }


def write_outputs(stem, record, tracer):
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        doc = {"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans}
        with gzip.open(OUT / f"{stem}.spans.json.gz", "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


def main(argv=None):
    if not (SRC / "apolarity" / "__init__.py").is_file():
        print(f"bench: no apolarity sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    setup_s, raw_setup_s = (None, None) if args.trace else measure_setup(wl.setup_modules)
    tracer = Tracer() if args.trace else None
    res = run_workload(wl, args.seed, args.seconds, tracer)
    if not res.latencies() or (tracer is not None and not res.latencies(traced=True)):
        print(f"bench: no op of {wl.name} completed: {res.failures[:1]}", file=sys.stderr)
        return 1
    metrics = per_layer(res, tracer) if args.trace else end_to_end(res, setup_s)
    raw = res.latencies(raw=True)
    _, tail_pct = tail(raw)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "ops": {"untraced": len(raw), "traced": len(res.latencies(traced=True))},
        "op_s_tail_percentile": tail_pct,
        "raw_wall": {
            "op_s_p50": statistics.median(raw),
            "op_s_tail": tail(raw)[0],
            "ops_per_s": (res.attempted - res.raised) / res.busy_s,
            "setup_s": raw_setup_s,
            "kernel_s_p50": statistics.median(res.kernels()),
            "reference_s": REFERENCE_S,
        },
        "absent": tracer.absent if tracer else [],
        "failures": res.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_outputs(f"{wl.name}-seed{args.seed}-trace{args.trace}", record, tracer)

    for f in res.failures:
        for line in f["problems"]:
            print(f"# op {f['op']} FAILED: {line}")
    if record["absent"]:
        print(f"# absent: {', '.join(record['absent'])}")
    print(f"# {wl.name}: {res.attempted} ops, {res.failed} failed; op_s_tail is "
          f"p{tail_pct:.1f} of {len(raw)} untraced ops; raw wall op_s_p50 "
          f"{statistics.median(raw):.4f} s with the kernel at "
          f"{statistics.median(res.kernels()) * 1000:.2f} ms (reference {REFERENCE_S * 1000:g} ms); "
          f"python {platform.python_version()}, {os.cpu_count()} cpus, 1 process, 1 thread")
    print(json.dumps({
        "correct": not res.failures,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
