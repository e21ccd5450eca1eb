"""label-storm: the pseudo-labelling read path under a closed loop.

One in-process caller runs a fixed sequence of cycles against the
``serving`` preset with ``model: null`` (data plane only) over a 24k-row
store.  Each cycle is ``lookup_batch`` (16 datasets x 64 rows), then
``nearest_labeled`` (64 rows), then ``ingest`` (64 labelled rows), so host
drift hits the three op classes alike and writes sit beside reads.  The
document scan, sampler and index in ``storage`` / ``core.fairds`` do most of
the work; ``net``, ``serving`` and ``nn`` are bypassed.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List

import numpy as np

from inputs import STORM_DATASETS, STORM_ROWS, storm_inputs
from measure import HostProbe, p50, tail
from scenario import Result, overhead_pct, per_call_ms, ratio, timed_setups
from spans import Tracer

#: Measured cycles per second of the run budget (about 1/15 s per cycle on a
#: 2-vCPU host); fixed, so every commit runs the same cycles.
CYCLES_PER_S = 15.0
WARMUP_CYCLES = 4
#: Seeded subsample of nearest-labeled rows re-checked against brute force.
CHECK_ROWS = 96
#: The default ``clustered`` index probes 2 partitions, so it is approximate;
#: the check holds it to the recall bar the repository's ANN benchmark uses.
MIN_RECALL = 0.95


def _spec():
    from repro.api.spec import preset

    return dataclasses.replace(preset("serving"), model=None)


def run(seed: int, workload: str, budget_s: float, tracer: Tracer, trace: bool) -> Result:
    from repro.api import Deployment

    cycles = max(1, round(CYCLES_PER_S * budget_s))
    data = storm_inputs(seed, workload, WARMUP_CYCLES + cycles)
    result = Result()
    probe = HostProbe()

    def build():
        dep = Deployment.from_spec(_spec())
        dep.fit(data.store_images, data.store_labels)
        return dep

    dep, result.setup_s = timed_setups(build, lambda d: d.close(), probe)
    store_ids = set(dep.fairds.collection.ids())
    lookups: List[float] = []
    nearests: List[float] = []
    ingests: List[float] = []
    cycle_s = {True: [], False: []}
    labels_returned = 0
    bad_lookups = 0
    cache_before = None

    for c in range(WARMUP_CYCLES + cycles):
        measured = c >= WARMUP_CYCLES
        if c == WARMUP_CYCLES:
            cache_before = dep.fairds.embedding_cache_info()
        traced = trace and measured and c % 2 == 1
        tracer.enabled = traced
        batches = [data.query_images[rows] for rows in data.lookup_rows[c]]
        nearest_q = data.query_images[data.nearest_rows[c]]
        ingest_x = data.ingest_images[data.ingest_rows[c]]
        ingest_y = data.ingest_labels[data.ingest_rows[c]]
        times = []
        for op in ("lookup", "nearest", "ingest"):
            result.attempted += measured
            start = time.perf_counter()
            try:
                with tracer.span(f"op.{op}"):
                    if op == "lookup":
                        out = dep.lookup_batch(batches)
                    elif op == "nearest":
                        out = dep.fairds.nearest_labeled(nearest_q)
                    else:
                        out = dep.ingest(ingest_x, ingest_y)
            except Exception as exc:  # a failed op is counted, never fatal
                result.failed += measured
                result.notes.append(f"label-storm {op} failed: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - start)
            if measured:
                probe.run()
            if op == "lookup":
                ok = len(out) == STORM_DATASETS and all(
                    len(r) == STORM_ROWS and len(r.doc_ids) == STORM_ROWS
                    and store_ids.issuperset(r.doc_ids) for r in out
                )
                bad_lookups += not ok
                if measured and not traced:
                    labels_returned += sum(len(r) for r in out)
            elif op == "ingest":
                store_ids.update(out)
            if measured and not traced:
                (lookups, nearests, ingests)[("lookup", "nearest", "ingest").index(op)].append(times[-1])
        if measured and len(times) == 3:
            cycle_s[traced].append(sum(times))
    tracer.enabled = False
    cache_after = dep.fairds.embedding_cache_info()

    result.checks["lookup_batch count and doc ids"] = (
        bad_lookups == 0, f"{bad_lookups} bad of {WARMUP_CYCLES + cycles} calls")
    result.checks["nearest_labeled vs brute force"] = _check_nearest(dep, data, seed)

    factor = probe.factor()
    result.notes.append(f"label-storm: host factor {factor:.3f} over {len(probe.samples)} probes")
    lookups, nearests, ingests = ([t * factor for t in ts] for ts in (lookups, nearests, ingests))
    if lookups:
        pct, value = tail([v * 1e3 for v in lookups])
        result.metrics["lookup_p50_ms"] = (p50(lookups) * 1e3, "ms")
        result.metrics["lookup_tail_ms"] = (value, "ms")
        # Labels per lookup over the median lookup time: a throughput that a
        # few slow calls do not swing.
        result.metrics["labels_per_s"] = (
            ratio(labels_returned / len(lookups), p50(lookups)), "1/s")
        result.notes.append(f"label-storm: lookup tail = p{pct:g} of {len(lookups)} calls")
        result.layers["storm.lookup_p90_ms"] = (float(np.percentile(lookups, 90)) * 1e3, "ms")
    if nearests:
        result.metrics["nearest_p50_ms"] = (p50(nearests) * 1e3, "ms")
    if ingests:
        result.metrics["ingest_p50_ms"] = (p50(ingests) * 1e3, "ms")

    if trace:
        agg = tracer.aggregate()
        counts = agg["counts"]
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        layers = {
            "storm.fairds.lookup_batch_ms": per_call_ms(agg, "fairds.lookup_batch"),
            "storm.fairds.distribution_ms": per_call_ms(agg, "fairds.distribution"),
            "storm.fairds.nearest_ms": per_call_ms(agg, "fairds.nearest"),
            "storm.fairds.ingest_ms": per_call_ms(agg, "fairds.ingest"),
            "storm.embedding.transform_ms": per_call_ms(agg, "embedding.transform"),
            "storm.clustering.predict_ms": per_call_ms(agg, "clustering.predict"),
            "storm.dataio.sampler_ms": per_call_ms(agg, "dataio.sampler", per="fairds.lookup_batch"),
            "storm.storage.find_ms": per_call_ms(agg, "storage.find"),
            "storm.storage.fetch_ms": per_call_ms(agg, "storage.fetch"),
            "storm.storage.get_ms": per_call_ms(agg, "storage.get"),
            "storm.storage.insert_ms": per_call_ms(agg, "storage.insert"),
            "storm.storage.index_query_ms": per_call_ms(agg, "storage.index_query"),
            "storm.storage.index_add_ms": per_call_ms(agg, "storage.index_add"),
        }
        result.layers.update({name: (value, "ms") for name, value in layers.items()})
        result.layers["storm.fairds.embed_cache_hit_ratio"] = (ratio(hits, hits + misses), "ratio")
        result.layers["storm.embedding.rows_per_cycle"] = (
            ratio(counts.get("embedding.rows", 0.0), len(cycle_s[True])), "count")
        result.layers["storm.storage.docs_scanned_per_label"] = (
            ratio(counts.get("storage.docs_scanned", 0.0), counts.get("fairds.labels_returned", 0.0)),
            "ratio")
        result.layers["storm.trace.overhead_pct"] = (
            overhead_pct(cycle_s[True], cycle_s[False]), "%")
        tracer.reset()
    dep.close()
    return result


def _check_nearest(dep, data, seed: int) -> tuple:
    """``nearest_labeled`` on a seeded subsample against a brute-force scan of
    every stored embedding: no hit may beat the true nearest, every hit must be
    a stored (label, distance) pair, and recall must reach ``MIN_RECALL``."""
    rng = np.random.default_rng([seed, 11])
    rows = rng.choice(data.nearest_rows.reshape(-1), CHECK_ROWS, replace=False)
    queries = data.query_images[rows]
    hits = dep.fairds.nearest_labeled(queries)
    docs = dep.fairds.collection.find()
    stored = np.array([d["embedding"] for d in docs], dtype=np.float64)
    labels = np.array([d["label"] for d in docs], dtype=np.float64)
    emb = np.asarray(dep.fairds.embedder.transform(queries), dtype=np.float64)
    sq = (emb ** 2).sum(1)[:, None] + (stored ** 2).sum(1)[None, :] - 2.0 * emb @ stored.T
    dist = np.sqrt(np.clip(sq, 0.0, None))
    exact = invalid = 0
    for i, (label, d) in enumerate(hits):
        tol = 1e-4 * max(1.0, d)
        best = dist[i].min()
        same = np.abs(dist[i] - d) <= tol
        if d < best - tol or label is None or not any(
                np.allclose(labels[j], label) for j in np.nonzero(same)[0]):
            invalid += 1
        exact += abs(d - best) <= tol
    recall = exact / len(hits)
    return (invalid == 0 and recall >= MIN_RECALL,
            f"recall {recall:.3f} (bar {MIN_RECALL}), {invalid} invalid of {len(hits)} rows")
