"""Seeded inputs of the fairDMS benchmark.

Everything a run feeds the program is built here, from ``--seed`` and the
workload name alone, before any timing starts.  The program only ever sees
these arrays; the op sequences (which rows each operation sends, in which
order) are fixed here too, so two commits run exactly the same operations and
end in the same store, Zoo and lookup-counter state.

Data comes from the repository's synthetic Bragg-peak generator under a
two-phase drift schedule: scans ``0 .. CHANGE_AT-1`` are phase 0 (the
historical regime), scans ``CHANGE_AT ..`` are phase 1 (the deformed sample).

Workloads differ only in how much the inputs repeat:

* ``distinct-rows`` draws queries from every generated row (tens of
  thousands), far more than fairDS's 4096-entry embedding cache holds;
* ``repeated-rows`` draws them from a fixed seeded subset of
  ``REPEAT_POOL`` rows, which fits in that cache after warm-up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from repro.datasets.bragg import BraggPeakDataset
from repro.datasets.drift import make_two_phase_schedule

N_SCANS = 32
CHANGE_AT = 24
#: Query pool size of the ``repeated-rows`` workload (fits the 4096-entry cache).
REPEAT_POOL = 1024
WORKLOADS = {"distinct-rows": None, "repeated-rows": REPEAT_POOL}

# label-storm: 24k stored rows (12 phase-0 scans x 2000), queries from 24 scans.
STORM_PEAKS = 2000
STORM_STORE_SCANS = 12
STORM_QUERY_SCANS = 24
STORM_DATASETS = 16
STORM_ROWS = 64
# model-update: 3k stored rows, 96-row updates from unseen phase-0 / phase-1 scans.
UPDATE_PEAKS = 250
UPDATE_STORE_SCANS = 12
UPDATE_ROWS = 96
#: One update cycle: three in-distribution updates, then one drifted update.
UPDATE_CYCLE = (0, 0, 0, 1)
# wire-serve: 1.4k stored rows, single-sample nearest and 32-sample lookups
# drawn from 17 unseen phase-0 scans of 1000 peaks each.
WIRE_PEAKS = 200
WIRE_QUERY_PEAKS = 1000
WIRE_STORE_SCANS = 7
WIRE_LOOKUP_ROWS = 32
WIRE_LOOKUP_SHARE = 0.10


def bragg(seed: int, peaks: int) -> BraggPeakDataset:
    schedule = make_two_phase_schedule(N_SCANS, CHANGE_AT, seed=seed)
    return BraggPeakDataset(schedule, peaks_per_scan=peaks, seed=seed)


def _pool(rng: np.random.Generator, n_rows: int, cap: Optional[int]) -> np.ndarray:
    """Row indices a workload may query: all rows, or a seeded subset."""
    if cap is None or cap >= n_rows:
        return np.arange(n_rows)
    return np.sort(rng.choice(n_rows, size=cap, replace=False))


def _digest(obj) -> str:
    h = hashlib.sha256()
    for f in fields(obj):
        value = getattr(obj, f.name)
        h.update(f.name.encode())
        for arr in value if isinstance(value, list) else [value]:
            arr = np.ascontiguousarray(arr)
            h.update(str(arr.dtype).encode() + str(arr.shape).encode())
            h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class StormInputs:
    store_images: np.ndarray
    store_labels: np.ndarray
    query_images: np.ndarray
    ingest_images: np.ndarray
    ingest_labels: np.ndarray
    #: Per cycle: ``(STORM_DATASETS, STORM_ROWS)`` query rows of the lookup.
    lookup_rows: np.ndarray
    #: Per cycle: ``STORM_ROWS`` query rows of the nearest-labeled call.
    nearest_rows: np.ndarray
    #: Per cycle: ``STORM_ROWS`` rows of the ingest pool.
    ingest_rows: np.ndarray

    def digest(self) -> str:
        return _digest(self)


def storm_inputs(seed: int, workload: str, cycles: int, peaks: int = STORM_PEAKS) -> StormInputs:
    data = bragg(seed, peaks)
    store_images, store_labels = data.stacked(range(STORM_STORE_SCANS))
    query_images, _ = data.stacked(range(STORM_QUERY_SCANS))
    ingest_images, ingest_labels = data.stacked(range(STORM_STORE_SCANS, STORM_QUERY_SCANS))
    rng = np.random.default_rng([seed, 1])
    cap = WORKLOADS[workload]
    queries = _pool(rng, len(query_images), cap)
    ingests = _pool(rng, len(ingest_images), cap)
    lookup = np.stack([
        np.stack([rng.choice(queries, STORM_ROWS, replace=False) for _ in range(STORM_DATASETS)])
        for _ in range(cycles)
    ])
    nearest = np.stack([rng.choice(queries, STORM_ROWS, replace=False) for _ in range(cycles)])
    ingest = np.stack([rng.choice(ingests, STORM_ROWS, replace=False) for _ in range(cycles)])
    return StormInputs(store_images, store_labels, query_images, ingest_images,
                       ingest_labels, lookup, nearest, ingest)


@dataclass
class UpdateInputs:
    store_images: np.ndarray
    store_labels: np.ndarray
    #: Update pools by input phase: ``[phase-0 rows, phase-1 rows]``.
    phase_images: List[np.ndarray]
    #: Drift-schedule phase of every pool row (checked by the tests).
    phase_of_rows: List[np.ndarray]
    #: Per update: the input phase, which is also its metric class.
    classes: np.ndarray
    #: Per update: ``UPDATE_ROWS`` rows of the pool named by ``classes``.
    rows: np.ndarray

    def digest(self) -> str:
        return _digest(self)


def update_inputs(seed: int, workload: str, cycles: int, peaks: int = UPDATE_PEAKS) -> UpdateInputs:
    data = bragg(seed, peaks)
    store_images, store_labels = data.stacked(range(UPDATE_STORE_SCANS))
    scan_sets = (range(UPDATE_STORE_SCANS, CHANGE_AT), range(CHANGE_AT, N_SCANS))
    rng = np.random.default_rng([seed, 2])
    cap = WORKLOADS[workload]
    phase_images, phase_of_rows, pools = [], [], []
    for scans in scan_sets:
        images, _ = data.stacked(scans)
        phase_images.append(images)
        phase_of_rows.append(np.concatenate([
            np.full(peaks, data.schedule.condition(s).phase) for s in scans
        ]))
        pools.append(_pool(rng, len(images), cap))
    classes = np.array(UPDATE_CYCLE * cycles, dtype=np.int64)
    rows = np.stack([rng.choice(pools[c], UPDATE_ROWS, replace=False) for c in classes])
    return UpdateInputs(store_images, store_labels, phase_images, phase_of_rows, classes, rows)


@dataclass
class WireInputs:
    store_images: np.ndarray
    store_labels: np.ndarray
    query_images: np.ndarray
    #: Per phase, per request: scheduled send offset (s) from the phase start.
    offsets: List[np.ndarray]
    #: Per phase, per request: 1 for ``lookup_labeled_data``, 0 for ``nearest_labeled``.
    is_lookup: List[np.ndarray]
    #: Per phase, per request: ``WIRE_LOOKUP_ROWS`` query rows (nearest sends the first).
    rows: List[np.ndarray]

    def digest(self) -> str:
        return _digest(self)


def wire_store(seed: int, peaks: int = WIRE_PEAKS) -> Tuple[np.ndarray, np.ndarray]:
    """The rows the ``wire-serve`` server is fitted on (built in the server)."""
    return bragg(seed, peaks).stacked(range(WIRE_STORE_SCANS))


def wire_inputs(seed: int, workload: str, phases: List[Tuple[float, int]],
                peaks: int = WIRE_PEAKS, query_peaks: int = WIRE_QUERY_PEAKS) -> WireInputs:
    """Open-loop phases, each ``(rate_per_s, n_requests)``: Poisson arrivals
    at that rate, a seeded 90/10 nearest/lookup mix, and every request's rows."""
    store_images, store_labels = wire_store(seed, peaks)
    query_images, _ = bragg(seed, query_peaks).stacked(range(WIRE_STORE_SCANS, CHANGE_AT))
    rng = np.random.default_rng([seed, 3])
    queries = _pool(rng, len(query_images), WORKLOADS[workload])
    offsets, is_lookup, rows = [], [], []
    for rate_per_s, n_requests in phases:
        gaps = rng.exponential(1.0 / rate_per_s, size=n_requests)
        offsets.append(np.cumsum(gaps) - gaps[0])
        is_lookup.append((rng.random(n_requests) < WIRE_LOOKUP_SHARE).astype(np.int64))
        rows.append(np.stack([
            rng.choice(queries, WIRE_LOOKUP_ROWS, replace=False) for _ in range(n_requests)
        ]))
    return WireInputs(store_images, store_labels, query_images, offsets, is_lookup, rows)
