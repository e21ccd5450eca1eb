"""Determinism of the benchmark's own input generator, and its statistics and
span arithmetic.  Small sizes keep these in the tier-1 suite's time budget."""

from __future__ import annotations

import time

import numpy as np
import pytest

import inputs
from measure import tail
from spans import Tracer


# Pools only differ between workloads once they exceed REPEAT_POOL rows, so
# ``peaks`` is a per-scan size that the workload test raises past it.
def _storm(seed, workload="distinct-rows", peaks=20):
    return inputs.storm_inputs(seed, workload, cycles=3, peaks=peaks)


def _update(seed, workload="distinct-rows", peaks=20):
    return inputs.update_inputs(seed, workload, cycles=2, peaks=peaks)


def _wire(seed, workload="distinct-rows", peaks=20):
    return inputs.wire_inputs(seed, workload, [(80.0, 20), (560.0, 40)], peaks=10,
                              query_peaks=3 * peaks)


@pytest.mark.parametrize("build", [_storm, _update, _wire])
def test_same_seed_gives_identical_inputs_and_ops(build):
    assert build(7).digest() == build(7).digest()


@pytest.mark.parametrize("build", [_storm, _update, _wire])
def test_other_seed_or_workload_changes_inputs(build):
    base = build(7).digest()
    assert build(8).digest() != base
    assert build(7, peaks=100).digest() != build(7, "repeated-rows", peaks=100).digest()


def test_update_classes_are_fixed_by_input_phase():
    data = _update(5)
    assert data.classes.tolist() == list(inputs.UPDATE_CYCLE) * 2
    for cls, rows in zip(data.classes, data.rows):
        assert set(data.phase_of_rows[cls][rows].tolist()) == {int(cls)}
    assert [set(p.tolist()) for p in data.phase_of_rows] == [{0}, {1}]


def test_repeated_rows_fit_the_embedding_cache_and_distinct_rows_do_not():
    def unique_rows(workload):
        return len(np.unique(inputs.storm_inputs(3, workload, cycles=40, peaks=100).lookup_rows))

    assert unique_rows("repeated-rows") <= inputs.REPEAT_POOL < unique_rows("distinct-rows")


def test_wire_schedule_is_a_poisson_phase_per_rate():
    data = _wire(4)
    assert [len(o) for o in data.offsets] == [20, 40]
    for offsets in data.offsets:
        assert offsets[0] == 0.0 and np.all(np.diff(offsets) >= 0)
    assert data.rows[1].shape == (40, inputs.WIRE_LOOKUP_ROWS)


@pytest.mark.parametrize("n, pct", [(1000, 75.0), (40, 75.0), (39, 50.0), (5, 50.0)])
def test_tail_uses_highest_percentile_with_ten_samples_beyond(n, pct):
    assert tail(list(range(n)))[0] == pct


def test_self_time_excludes_children_and_requests_are_shared():
    tracer = Tracer()
    tracer.enabled = True
    root = tracer.enter("op")
    child = tracer.enter("layer")
    assert tracer.enter("layer") is None  # re-entry folds into the open span
    time.sleep(0.02)
    tracer.exit(child)
    tracer.exit(root)
    (c_id, c_parent, c_req, _, c_start, c_end, c_self), (r_id, r_parent, r_req, _, r_start, r_end, r_self) = tracer.spans
    assert c_parent == r_id and r_parent is None and c_req == r_req == r_id
    assert c_self == pytest.approx(c_end - c_start)
    assert r_self == pytest.approx((r_end - r_start) - (c_end - c_start))
    agg = tracer.aggregate()
    assert agg["layer"]["calls"] == 1 and agg["op"]["calls"] == 1
