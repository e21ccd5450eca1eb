#!/usr/bin/env python3
"""The fairDMS benchmark: one command, every end-to-end metric, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload distinct-rows --seed 1 --seconds 30 --trace 0

Every run executes three scenarios, each on its own deployment built
through :class:`repro.api.Deployment` with a fixed operation count derived
from ``--seconds`` (a third each), so both sides of a comparison end in the
same program state:

* ``label-storm`` (:mod:`storm`) - lookup_batch / nearest_labeled / ingest;
* ``model-update`` (:mod:`update`) - in-distribution and drifted update_model;
* ``wire-serve`` (:mod:`wire`) - served nearest/lookup at two offered rates,
  measured in passes before, between and after the other two.

In-process times are normalised to a reference host speed
(:class:`measure.HostProbe`); see ``perfbench/README.md`` for why.

The workload (:mod:`inputs`) sets how much the inputs repeat.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` records spans around the public
calls of each layer (:mod:`spans`) and prints the per-layer metrics instead,
with the tracing overhead measured against untraced operations of the same
run.  The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  Each run also appends its full record, stamped with
the host and source identity, to ``.perfbench/results.jsonl``; a traced run
writes its spans to ``.perfbench/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)

    import inputs
    import measure
    import spans
    import storm
    import update
    import wire

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(inputs.WORKLOADS)}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer = spans.Tracer(sink=out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    if trace:
        spans.install(tracer)
    budget = args.seconds / 3.0
    started = time.perf_counter()
    results = {}
    # wire-serve measures a pass before, between and after the in-process
    # scenarios, so a co-tenant contention episode rarely covers all three.
    session = wire.Session(args.seed, args.workload, budget, tracer, trace)
    try:
        session.measure_pass()
        for name, scenario in (("label-storm", storm), ("model-update", update)):
            results[name] = scenario.run(args.seed, args.workload, budget, tracer, trace)
            gc.collect()
            session.measure_pass()
        results["wire-serve"] = session.finish()
    finally:
        session.close()

    metrics = {"setup_s": (sum(r.setup_s for r in results.values()), "s"),
               "rss_mb": (max([measure.peak_rss_mb()] + [r.rss_mb for r in results.values()]), "MB")}
    layers = {f"setup.{name}_s": (r.setup_s, "s") for name, r in results.items()}
    checks = {}
    for name, r in results.items():
        metrics.update(r.metrics)
        layers.update(r.layers)
        checks.update({f"{name}: {check}": outcome for check, outcome in r.checks.items()})
    reported = layers if trace else metrics
    kind = "per_layer" if trace else "end_to_end"
    missing = [m["name"] for m in declared[kind] if m["name"] not in reported]
    checks[f"every {kind} metric measured"] = (not missing, ", ".join(missing) or "all present")
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    correct = all(ok for ok, _ in checks.values())

    stamp = measure.host_stamp(ROOT)
    print(f"fairDMS benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}  wall={time.perf_counter() - started:.1f}s")
    print("host: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    for name, (ok, detail) in checks.items():
        print(f"check {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    for r in results.values():
        for note in r.notes:
            print(f"note  {note}")
    print(f"ops   attempted={attempted} failed={failed}")
    for m in declared[kind]:
        value, unit = reported.get(m["name"], (float("nan"), m["unit"]))
        print(f"{m['name']:44s} {value:14.4f} {unit}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": stamp, "correct": correct, "attempted": attempted,
              "failed": failed, "checks": {k: [bool(ok), detail] for k, (ok, detail) in checks.items()},
              "metrics": {k: v[0] for k, v in metrics.items()},
              "layers": {k: v[0] for k, v in layers.items()}}
    with open(out_dir / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": reported[m["name"]][0], "unit": reported[m["name"]][1]}
                    for m in declared[kind] if m["name"] in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
