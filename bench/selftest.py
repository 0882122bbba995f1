"""Self-test of the benchmark harness (about 30 s):

    python3 bench/selftest.py

Checks a few-op smoke run of every workload, untraced and traced; that a
corrupted answer counts as a failed op; that traced self times add up to
the traced wall time; that a wrapped name the package lacks is reported as
absent; and that the metric names match BENCHMARK.json.  It also reports
whether `apolarity verify` still shows the known CASE_II hypersurface
defect, which keeps verify out of the workloads (see README.md).
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

from apolarity import cli, exactlinalg, jordan  # noqa: E402
from apolarity.jordan import Partition  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
# verify --seed 47 at (3,4) draws a CASE_II form on the hypersurface ell^4 o F = 0
DEFECT_ARGV = ["verify", "--perazzo", "m=3,d=4", "--samples", "25", "--seed", "47", "--out", "json"]


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def _bump_partition(out):
    code, text = out
    rec = json.loads(text)
    rec["payload"]["jordan"]["partition"]["parts"][0] += 1
    return code, json.dumps(rec)


def _split_first_part(out):
    (ptn, jdt, pred), *rest = out
    parts = list(ptn.parts)
    parts[0:1] = [parts[0] - 1, 1]
    return [(Partition(parts), jdt, pred)] + rest


def _bump_hvector(out):
    hv, results = out
    return hv[:-1] + (hv[-1] + 1,), results


CORRUPT = {
    "perazzo-jdt": _bump_partition,
    "perazzo-profiles": _split_first_part,
    "qq-roundtrip": _bump_hvector,
}


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    check(set(spec["command"][1:]) <= {"bench/run.py"}, "BENCHMARK.json runs bench/run.py")
    setup_s, raw_setup_s = run.measure_setup("apolarity.cli")
    check(0 < setup_s < 5 and 0 < raw_setup_s < 5,
          f"setup_s measured in fresh interpreters ({setup_s:.3f} s, raw {raw_setup_s:.3f} s)")

    for name, cls in WORKLOADS.items():
        res = run.run_workload(cls(), SEED, seconds=1.0)
        check(res.attempted >= 1 and not res.failures,
              f"{name}: smoke run of {res.attempted} ops is correct")
        metrics = run.end_to_end(res, setup_s)
        check(list(metrics) == e2e_names, f"{name}: end-to-end metric names match BENCHMARK.json")

        res = run.run_workload(cls(), SEED, seconds=1.0, corrupt=CORRUPT[name])
        check(res.failed == res.attempted,
              f"{name}: {res.failed}/{res.attempted} corrupted answers counted as failed")

        tracer = Tracer()
        res = run.run_workload(cls(), SEED, seconds=2.0, tracer=tracer)
        check(not res.failures and res.latencies(traced=True), f"{name}: traced run is correct")
        self_s, _calls, _incl = tracer.summary()
        roots = sum(end - start for n, start, end, _p in tracer.spans if n == "op")
        wall = sum(res.latencies(traced=True, raw=True))
        check(abs(sum(self_s.values()) - roots) < 1e-9 * len(tracer.spans) + 1e-9,
              f"{name}: self times add up to the op spans")
        check(abs(sum(self_s.values()) - wall) < 0.01 * wall,
              f"{name}: self times add up to the traced wall time")
        metrics = run.per_layer(res, tracer)
        check(list(metrics) == layer_names, f"{name}: per-layer metric names match BENCHMARK.json")

    check(exactlinalg.rank_rows is jordan.rank_rows and not hasattr(jordan.rank_rows, "__wrapped__"),
          "uninstall restores every wrapped name")

    gone = ("apolar.gone", "apolar", "no_such_function", None)
    tracer = Tracer(TARGETS + (gone,))
    check(tracer.absent == ["apolar.no_such_function"], "a missing name is reported as absent")
    res = run.run_workload(WORKLOADS["perazzo-profiles"](), SEED, seconds=0.6, tracer=tracer)
    metrics = run.per_layer(res, tracer)
    check(not res.failures and metrics["apolar.gone_s"][0] == 0, "a traced run with an absent name completes")

    code, record, _ = cli.run_command(DEFECT_ARGV)
    found = len(record["payload"]["report"]["mismatches"])
    print(f"note: apolarity {' '.join(DEFECT_ARGV[:-2])} exits {code} with {found} mismatch(es)"
          + (" (the known CASE_II hypersurface defect)" if found else " (the defect is fixed)"))
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
