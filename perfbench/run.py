"""Benchmark runner for the whole ParGeo stack.

Run from the repository root::

    python3 perfbench/run.py --workload serve_knn --seed 1 --seconds 20 --trace 0

Workloads (sizes, rates and reasons are in ``perfbench/config.json``):

* ``serve_knn``    — single kNN/ball requests through Frontend ->
  GeometryService -> ShardedIndex -> BDL/kd-trees, open loop then
  closed loop;
* ``stream_views`` — one writer replaying insert/erase batches and
  reads against a BDL-tree with three materialized views;
* ``static_batch`` — the paper's batch kernels on fresh inputs.

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that wraps each layer's public calls in
spans and reports the per-layer metrics.  Either way every output is
verified against an independent reference outside the timed region and
the exact work/visit/repair counts are re-derived and compared; any
mismatch exits non-zero.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXIT_INCORRECT = 1
EXIT_REFUSED = 2
EXIT_INVALID = 3


def _refuse(msg: str, code: int = EXIT_REFUSED):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Every workload, each in its own process, then one summary."""
    import subprocess

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode or not lines:
            print(f"# {w['name']} exited with code {proc.returncode}")
            return proc.returncode or EXIT_INCORRECT
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{w['name']}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # the benchmark measures library defaults: a REPRO_* knob would
    # silently change what is measured
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        _refuse(f"refusing to run with knob variables set: {', '.join(knobs)}")
    if args.seconds <= 0:
        _refuse("--seconds must be positive")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "config.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        _refuse(f"unknown workload {args.workload!r}; expected one of {names}")
    if not (ROOT / "src" / "repro").is_dir():
        _refuse("library sources not found under src/repro")

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import importlib

    from common import CheckFailed, HostSpeed, InvalidRun, provenance
    from tracing import Tracer

    wl_cfg = config["workloads"][args.workload]
    module = importlib.import_module(args.workload)
    tracer = Tracer() if args.trace else None
    speed = HostSpeed(config["host_probe_ref_ms"], wl_cfg.get("probe_hops", 0))
    correct, problem = True, None
    try:
        out = module.run(wl_cfg, args.seed, args.seconds, tracer, speed)
    except CheckFailed as exc:
        correct, problem, out = False, str(exc), None
    except InvalidRun as exc:
        _refuse(f"invalid run, not scored: {exc}", EXIT_INVALID)
    finally:
        speed.close()

    record = provenance(ROOT, args.workload, args.seed, bool(args.trace),
                        out.sizes if out else {})
    record["open_loop_rate_rps"] = config["workloads"]["serve_knn"]["rate_rps"]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if not correct:
        record["error"] = problem
        (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
        print(f"CHECK FAILED: {problem}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return EXIT_INCORRECT

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        out.layers["obs.spans"] = float(len(tracer.spans))
        produced = set(out.layers)
        declared = set(config["metric_layers"])
        owned = {m for m, d in config["metric_layers"].items()
                 if args.workload in d["workloads"]}
        if produced != owned:
            _refuse(f"layer metrics drifted from config: missing "
                    f"{sorted(owned - produced)}, extra {sorted(produced - owned)}")
        # a layer the workload bypasses did no work: it reads 0
        metrics = {m: out.layers.get(m, 0.0) for m in sorted(declared)}
        wanted = [m["name"] for m in bench["per_layer"]]
        spans_path = out_dir / f"{stem}-spans.json"
        spans_path.write_text(json.dumps(tracer.to_json()))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = dict(out.e2e)
        wanted = [m["name"] for m in bench["end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        _refuse(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}")
    for name, v in metrics.items():
        if not math.isfinite(v):
            _refuse(f"metric {name} is not finite: {v}")

    record.update(attempted=out.attempted, failed=out.failed,
                  error_frac=out.failed / max(out.attempted, 1),
                  metrics=metrics, workload_metrics=out.aliases,
                  known_defects=out.known_defects, details=out.extra)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={record['nproc']} "
          f"backend={record['scheduler_backend']}")
    print(f"# commit={record['commit']} source_sha256={record['source_sha256'][:16]} "
          f"python={record['python']} numpy={record['numpy']} scipy={record['scipy']} "
          f"open_loop_rate_rps={record['open_loop_rate_rps']}")
    print(f"# sizes {json.dumps(out.sizes)}")
    print(f"# record {(out_dir / f'{stem}.json').relative_to(ROOT)}")
    if out.known_defects:
        kd = out.known_defects
        print(f"# known library defects: expected {len(kd['expected'])} "
              f"{kd['expected']}, reproduced {len(kd['reproduced'])} {kd['reproduced']}")
        for name in sorted(set(kd["expected"]) - set(kd["reproduced"])):
            print(f"# NOTICE: known defect {name} no longer reproduces; "
                  f"drop it from known_defects in perfbench/config.json")
    for name, (value, unit) in sorted(out.aliases.items()):
        print(f"{name:34s} {value:14.6g} {unit}")
    if args.trace:
        for name in sorted(metrics):
            print(f"{name:34s} {metrics[name]:14.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {n: {"value": float(v), "unit": units[n]}
                    for n, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
