"""model-update: the paper's headline operation under a closed loop.

One in-process caller runs a fixed seeded sequence of ``update_model`` calls
on 96-row datasets against the ``serving`` preset (BraggNN width 4, 6
epochs) over a 3k-row store: three in-distribution (phase-0) updates, then
one drifted (phase-1) update, repeated.  The two classes are fixed by input
phase and reported apart, because a drifted update also refreshes the system
plane and costs several times more.  ``nn`` training, ``core.fairms`` /
``model_zoo`` and the refresh path do most of the work; ``net`` and
``serving`` are bypassed.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from inputs import UPDATE_CYCLE, update_inputs
from measure import HostProbe, p50, tail
from scenario import Result, overhead_pct, per_call_ms, ratio, timed_setups
from spans import Tracer

#: Update cycles (``UPDATE_CYCLE``: four updates) per second of run budget.
CYCLES_PER_S = 1.6
WARMUP_CYCLES = 1
#: Host probe rounds after each measured update.
PROBE_ROUNDS = 2
STRATEGY = "fine-tune"


def run(seed: int, workload: str, budget_s: float, tracer: Tracer, trace: bool) -> Result:
    from repro.api import Deployment

    cycles = max(1, round(CYCLES_PER_S * budget_s))
    data = update_inputs(seed, workload, WARMUP_CYCLES + cycles)
    warmup_ops = WARMUP_CYCLES * len(UPDATE_CYCLE)
    result = Result()
    probe = HostProbe()

    def build():
        dep = Deployment.from_preset("serving")
        dep.fit(data.store_images, data.store_labels)
        return dep

    dep, result.setup_s = timed_setups(build, lambda d: d.close(), probe)
    threshold = dep.dms.policy.distance_threshold
    latency: Dict[int, List[float]] = {0: [], 1: []}
    by_trace: Dict[bool, List[float]] = {True: [], False: []}
    bad: List[str] = []
    drift_updates = refreshes = 0
    after_refresh: List[float] = []

    for i, cls in enumerate(data.classes):
        measured = i >= warmup_ops
        # Trace alternate cycles so drift hits traced and untraced ops alike.
        traced = trace and measured and (i // len(UPDATE_CYCLE)) % 2 == 1
        tracer.enabled = traced
        images = data.phase_images[cls][data.rows[i]]
        result.attempted += measured
        start = time.perf_counter()
        try:
            with tracer.span("op.update_model"):
                report = dep.update_model(images, label=f"update-{i}")
        except Exception as exc:  # a failed op is counted, never fatal
            result.failed += measured
            result.notes.append(f"model-update {i} failed: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - start
        tracer.enabled = False
        if measured:
            probe.run(PROBE_ROUNDS)
        loss = report.history.best_val_loss
        rec = report.recommendation
        if not np.isfinite(loss) or report.strategy != STRATEGY or rec is None \
                or rec.distance > threshold:
            bad.append(f"update {i}: loss={loss} strategy={report.strategy}")
        if not measured:
            continue
        if cls == 0 and not traced:
            by_trace[False].append(elapsed)
        elif cls == 0:
            by_trace[True].append(elapsed)
        if not traced:
            latency[int(cls)].append(elapsed)
        if cls == 1:
            drift_updates += 1
            refreshes += report.triggered_refresh
            if trace and report.triggered_refresh:
                after_refresh.append(dep.certainty(images))
    tracer.enabled = False

    factor = probe.factor()
    result.notes.append(f"model-update: host factor {factor:.3f} over {len(probe.samples)} probes")
    latency = {cls: [t * factor for t in ts] for cls, ts in latency.items()}
    result.checks["update_model loss and strategy"] = (
        not bad, f"{len(bad)} bad of {len(data.classes)} updates" + (f" ({bad[0]})" if bad else ""))
    if latency[0]:
        pct, value = tail([v * 1e3 for v in latency[0]])
        result.metrics["update_p50_ms"] = (p50(latency[0]) * 1e3, "ms")
        result.metrics["update_tail_ms"] = (value, "ms")
        result.notes.append(f"model-update: update tail = p{pct:g} of {len(latency[0])} "
                            f"in-distribution updates")
    if latency[1]:
        result.metrics["drift_update_p50_ms"] = (p50(latency[1]) * 1e3, "ms")
        result.notes.append(f"model-update: drift p50 over {len(latency[1])} drifted updates")

    if trace:
        agg = tracer.aggregate()
        counts = agg["counts"]
        certainty_bar = dep.dms.policy.certainty_threshold
        refresh_ms = ratio((agg.get("fairds.refresh", {}).get("self_s", 0.0)
                            + agg.get("fairds.fit", {}).get("self_s", 0.0)) * 1e3,
                           agg.get("fairds.refresh", {}).get("calls", 0))
        layers = {
            "update.fairds.certainty_ms": per_call_ms(agg, "fairds.certainty"),
            "update.fairds.lookup_batch_ms": per_call_ms(agg, "fairds.lookup_batch"),
            "update.fairds.refresh_ms": refresh_ms,
            "update.embedding.fit_ms": per_call_ms(agg, "embedding.fit"),
            "update.clustering.fit_ms": per_call_ms(agg, "clustering.fit"),
            "update.storage.insert_ms": per_call_ms(agg, "storage.insert"),
            "update.storage.index_add_ms": per_call_ms(agg, "storage.index_add"),
            "update.nn.train_ms": per_call_ms(agg, "nn.train"),
            "update.fairms.recommend_ms": per_call_ms(agg, "fairms.recommend"),
            "update.fairms.register_ms": per_call_ms(agg, "fairms.register"),
            "update.fairms.load_ms": per_call_ms(agg, "fairms.load"),
        }
        result.layers.update({name: (value, "ms") for name, value in layers.items()})
        result.layers["update.nn.epochs"] = (
            ratio(counts.get("nn.epochs", 0.0), agg.get("nn.train", {}).get("calls", 0)), "count")
        result.layers["update.fairds.refresh_per_drift_update"] = (
            ratio(refreshes, drift_updates), "ratio")
        result.layers["update.fairds.certainty_after_refresh"] = (
            float(np.mean(after_refresh)) if after_refresh else 0.0, "%")
        result.layers["update.fairds.useful_refresh_ratio"] = (
            ratio(sum(c >= certainty_bar for c in after_refresh), len(after_refresh)), "ratio")
        result.layers["update.zoo.size"] = (float(len(dep.zoo)), "count")
        result.layers["update.trace.overhead_pct"] = (
            overhead_pct(by_trace[True], by_trace[False]), "%")
        tracer.reset()
    dep.close()
    return result
