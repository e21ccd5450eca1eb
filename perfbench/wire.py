"""wire-serve: served lookups over TCP under an open loop.

A server process (:mod:`server`) runs the ``networked`` preset with a fixed
2-replica fleet and no autoscaler (its decisions depend on timing) over a
1.4k-row store.  This process is the load generator: one asyncio loop on two
connections sends seeded Poisson arrivals at two fixed offered rates, 90%
``nearest_labeled`` (one sample) and 10% ``lookup_labeled_data`` (32 samples,
~60 KB responses).  ``LO_RATE`` sits where batches hold one request and the
2 ms ``max_wait_ms`` dominates; ``HI_RATE`` is the busiest rate the server
sustains without a backlog even when the host is contended.  Each latency is
timed from the request's scheduled send time, so a stalled generator charges
the wait to the requests behind it, and the generator's own lateness is
reported.  Wire codec, admission and batch wait in ``net`` and ``serving``
do most of the work.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from inputs import wire_inputs
from measure import p50, tail
from scenario import Result, overhead_pct, per_call_ms, ratio
from spans import Tracer

HERE = Path(__file__).resolve().parent

#: Offered rates (requests/s).  Measured capacity of this request mix on a
#: 2-vCPU host is 430-870 requests/s depending on co-tenant load; ``HI_RATE``
#: is about two thirds of the low end, so the phase never saturates, and
#: ``LO_RATE`` about a tenth of the high end, where batches hold one request.
LO_RATE = 80.0
HI_RATE = 280.0
#: Share of the run budget spent at ``LO_RATE`` (the rest goes to ``HI_RATE``).
LO_SHARE = 0.6
#: Measurement passes per run (see :class:`Session`), and lo/hi block pairs
#: per pass.
PASSES = 3
ROUNDS = 1
WARMUP_REQUESTS = 60
#: Latency limit of ``served_goodput_per_s``; a failed request misses it.
LIMIT_MS = 25.0
#: A rate whose generator sent its p99 request later than this is flagged.
LATE_LIMIT_MS = 25.0
CALL_TIMEOUT_S = 20.0
CHECK_NEAREST = 24
CHECK_LOOKUP = 6


class _Server:
    """The server subprocess and its JSON-line command channel."""

    def __init__(self, seed: int, trace: bool, sink, cpus: Optional[set]):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)
        ready = self.send({"seed": seed, "trace": trace, "sink": sink})
        self.port = ready["port"]
        self.setup_s = ready["setup_s"]

    def send(self, obj) -> dict:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"wire-serve server exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.send({"cmd": "stop"})
            self.proc.wait(timeout=30)
        except (OSError, ValueError, RuntimeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


class _Phase:
    """Per-request outcome of one open-loop block."""

    def __init__(self, n: int):
        self.latency = np.full(n, np.nan)
        self.call = np.full(n, np.nan)
        self.lateness = np.zeros(n)
        self.ok = np.zeros(n, dtype=bool)
        self.first_due = self.last_done = 0.0
        self.responses: Dict[int, object] = {}


async def _drive(port: int, offsets, is_lookup, payloads, keep, seed: int) -> _Phase:
    from repro.net.client import AsyncNetworkClient

    loop = asyncio.get_running_loop()
    out = _Phase(len(offsets))
    clients = [AsyncNetworkClient("127.0.0.1", port, timeout_s=CALL_TIMEOUT_S,
                                  rng=random.Random(seed + k)) for k in range(2)]
    for client in clients:
        await client.connect()

    async def one(i: int, due: float) -> None:
        sent = loop.time()
        out.lateness[i] = sent - due
        op = "lookup_labeled_data" if is_lookup[i] else "nearest_labeled"
        try:
            response = await clients[i % 2].call(op, payloads[i])
        except Exception:  # counted as failed; misses every latency limit
            return
        done = loop.time()
        out.latency[i], out.call[i], out.ok[i] = done - due, done - sent, True
        out.last_done = max(out.last_done, done)
        if i in keep:
            out.responses[i] = response

    try:
        start = loop.time() + 0.05
        out.first_due = start
        tasks = []
        for i, offset in enumerate(offsets):
            due = start + float(offset)
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one(i, due)))
        await asyncio.gather(*tasks)
    finally:
        for client in clients:
            await client.close()
    return out


def _payloads(data, phase: int) -> List[np.ndarray]:
    rows, is_lookup = data.rows[phase], data.is_lookup[phase]
    return [data.query_images[r] if lookup else data.query_images[r[:1]][0]
            for r, lookup in zip(rows, is_lookup)]


class _Rate:
    """All blocks of one offered rate within a pass."""

    def __init__(self, blocks: List[Tuple[_Phase, np.ndarray]]):
        self.latency = np.concatenate([ph.latency for ph, _ in blocks])
        self.call = np.concatenate([ph.call for ph, _ in blocks])
        self.lateness = np.concatenate([ph.lateness for ph, _ in blocks])
        self.ok = np.concatenate([ph.ok for ph, _ in blocks])
        self.is_lookup = np.concatenate([lookup for _, lookup in blocks])
        self.wall_s = sum(ph.last_done - ph.first_due for ph, _ in blocks)

    def nearest_ms(self) -> np.ndarray:
        return self.latency[(self.is_lookup == 0) & self.ok] * 1e3


class Session:
    """The wire-serve scenario, measured in ``PASSES`` passes spread over the
    run (the caller runs the other scenarios between them).

    Co-tenant CPU contention on a shared host comes in episodes of tens of
    seconds that slow served requests up to three-fold.  Served latency is
    mostly waiting (batch window, thread wake-ups), not CPU work, so the host
    probe that normalises the in-process scenarios does not track it (it
    added noise when tried).  Contention only ever adds time, so each
    end-to-end metric is reported from the pass where it is best; both
    commits of a comparison get the same treatment.
    """

    def __init__(self, seed: int, workload: str, budget_s: float, tracer: Tracer, trace: bool):
        self.seed, self.tracer, self.trace = seed, tracer, trace
        blocks = PASSES * ROUNDS
        n_lo = max(1, round(LO_RATE * budget_s * LO_SHARE / blocks))
        n_hi = max(1, round(HI_RATE * budget_s * (1.0 - LO_SHARE) / blocks))
        self.data = wire_inputs(seed, workload,
                                [(LO_RATE, WARMUP_REQUESTS)] + [(LO_RATE, n_lo), (HI_RATE, n_hi)] * blocks)
        self.payloads = [_payloads(self.data, k) for k in range(len(self.data.offsets))]
        # Output checks sample the first hi block's responses.
        rng = np.random.default_rng([seed, 12])
        first_hi = self.data.is_lookup[2]
        nearest, lookups = np.nonzero(first_hi == 0)[0], np.nonzero(first_hi)[0]
        self.keep = set(rng.choice(nearest, min(CHECK_NEAREST, len(nearest)), replace=False).tolist())
        self.keep |= set(rng.choice(lookups, min(CHECK_LOOKUP, len(lookups)), replace=False).tolist())
        self.result = Result()
        self.passes: List[Tuple[_Rate, _Rate]] = []
        self.blocks: Dict[int, Tuple[_Phase, np.ndarray]] = {}
        self._next_block = 1
        # Server and generator each get a core of their own when there are
        # two, so the generator never queues behind server threads for a core;
        # left to the scheduler, served latency swings two- to three-fold.
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.split = len(self.cpus) >= 2
        sink = None if tracer.sink is None else str(tracer.sink.with_suffix(".server.jsonl"))
        self.server = _Server(seed, trace, sink, set(self.cpus[1:]) if self.split else None)
        self.result.setup_s = self.server.setup_s
        with self._own_core():
            self._phase(0)

    @contextlib.contextmanager
    def _own_core(self):
        if self.split:
            os.sched_setaffinity(0, {self.cpus[0]})
        try:
            yield
        finally:
            if self.split:
                os.sched_setaffinity(0, set(self.cpus))

    def _phase(self, k: int, kept=frozenset()) -> _Phase:
        return asyncio.run(_drive(self.server.port, self.data.offsets[k], self.data.is_lookup[k],
                                  self.payloads[k], kept, self.seed + 101 * k))

    def measure_pass(self) -> None:
        """``ROUNDS`` alternating lo/hi blocks."""
        with self._own_core():
            first = self._next_block
            for k in range(first, first + 2 * ROUNDS):
                ph = self._phase(k, self.keep if k == 2 else frozenset())
                self.blocks[k] = (ph, self.data.is_lookup[k])
                self.result.attempted += len(ph.ok)
                self.result.failed += int((~ph.ok).sum())
            self._next_block = first + 2 * ROUNDS
            ks = range(first, self._next_block)
            self.passes.append((_Rate([self.blocks[k] for k in ks if k % 2 == 1]),
                                _Rate([self.blocks[k] for k in ks if k % 2 == 0])))

    def finish(self) -> Result:
        from repro.net.protocol import encode

        result, data, server = self.result, self.data, self.server
        with self._own_core():
            responses = self.blocks[2][0].responses
            samples = [{"op": "lookup_labeled_data" if data.is_lookup[2][i] else "nearest_labeled",
                        "payload": encode(self.payloads[2][i]), "response": encode(responses[i])}
                       for i in sorted(responses)]
            checked = server.send({"cmd": "check", "samples": samples})
            missing = len(self.keep) - len(samples)
            result.checks["wire responses vs in-process handlers"] = (
                checked["mismatches"] == 0 and missing == 0,
                f"{checked['mismatches']} mismatched, {missing} unanswered of {len(self.keep)} "
                "sampled" + (f" ({checked['detail']})" if checked["detail"] else ""))
            _end_to_end(result, self.passes)
            if self.trace:
                self._traced_layers()
            result.rss_mb = server.send({"cmd": "stats"})["rss_mb"]
            if self.trace:
                result.layers["wire.server.rss_mb"] = (result.rss_mb, "MB")
        return result

    def _traced_layers(self) -> None:
        server, tracer = self.server, self.tracer
        server_agg, traced = {}, {}
        for k, name in ((1, "lo"), (2, "hi")):
            server.send({"cmd": "stats"})  # drop anything recorded untraced
            server.send({"cmd": "trace", "on": True})
            tracer.enabled = True
            ph = self._phase(k)
            tracer.enabled = False
            server.send({"cmd": "trace", "on": False})
            traced[name] = _Rate([(ph, self.data.is_lookup[k])])
            server_agg[name] = server.send({"cmd": "stats"})
            server_agg[name]["client"] = tracer.aggregate()
            tracer.reset()
        _layers(self.result, traced, server_agg, _Rate([self.blocks[2]]))

    def close(self) -> None:
        self.server.close()


#: Served metrics gated as end-to-end; the others are reported per layer,
#: ungated: on a shared 2-vCPU host their ten-run spread reached 0.25-0.46
#: when co-tenant contention covered all passes of a run.
GATED = ("served_lo_p50_ms", "served_goodput_per_s")


def _end_to_end(result: Result, passes: List[Tuple[_Rate, _Rate]]) -> None:
    """Each served metric from its best pass (lowest latency, highest goodput)."""
    served: Dict[str, float] = {}
    for name, index in (("lo", 0), ("hi", 1)):
        per_pass = [rates[index].nearest_ms() for rates in passes]
        per_pass = [values for values in per_pass if len(values)]
        p50s = [p50(values) for values in per_pass]
        if per_pass:
            tails = [tail(values) for values in per_pass]
            served[f"served_{name}_p50_ms"] = min(p50s)
            served[f"served_{name}_tail_ms"] = min(value for _, value in tails)
            served[f"served_{name}_p90_ms"] = min(float(np.percentile(v, 90)) for v in per_pass)
            result.notes.append(
                f"wire-serve: {name} per pass p50 " + ", ".join(f"{v:.2f}" for v in p50s)
                + " ms; tail " + ", ".join(f"p{pct:g}={v:.2f}" for pct, v in tails)
                + f" ms of {', '.join(str(len(v)) for v in per_pass)} nearest_labeled requests")
        for j, p50_ms in enumerate(p50s):
            result.layers[f"wire.pass{j}.{name}_p50_ms"] = (p50_ms, "ms")
        late_ms = max(float(np.percentile(rates[index].lateness, 99)) * 1e3 for rates in passes)
        behind = late_ms > LATE_LIMIT_MS
        result.notes.append(f"wire-serve: {name} generator lateness p99 {late_ms:.2f} ms"
                            + (f" > {LATE_LIMIT_MS} ms: GENERATOR FELL BEHIND, run flagged"
                               if behind else ""))
        result.layers[f"wire.generator.lateness_{name}_ms"] = (late_ms, "ms")
        result.layers[f"wire.generator.behind_{name}"] = (float(behind), "flag")
    lookups = [hi.latency[(hi.is_lookup == 1) & hi.ok] * 1e3 for _, hi in passes]
    lookups = [values for values in lookups if len(values)]
    if lookups:
        served["served_lookup_p50_ms"] = min(p50(values) for values in lookups)
    goodputs = []
    for _, hi in passes:
        met = int((hi.ok & (hi.latency * 1e3 <= LIMIT_MS)).sum())
        if met and hi.wall_s > 0:
            goodputs.append((met / hi.wall_s, met, len(hi.ok)))
    if goodputs:
        best = max(goodputs)
        result.metrics["served_goodput_per_s"] = (best[0], "1/s")
        result.notes.append(f"wire-serve: goodput = {best[1]} of {best[2]} requests at "
                            f"{HI_RATE:g}/s within {LIMIT_MS:g} ms (best pass)")
    for name, value in served.items():
        if name in GATED:
            result.metrics[name] = (value, "ms")
        else:
            result.layers[f"wire.{name}"] = (value, "ms")


def _layers(result: Result, traced: Dict[str, _Rate], server_agg, untraced_hi: _Rate) -> None:
    for name in ("lo", "hi"):
        counts = server_agg[name]["agg"]["counts"]
        result.layers[f"wire.serving.queue_wait_{name}_ms"] = (
            ratio(counts.get("serving.queue_wait_s", 0.0), counts.get("serving.queued", 0.0)) * 1e3,
            "ms")
        result.layers[f"wire.serving.batch_size_{name}"] = (
            ratio(counts.get("serving.batch_payloads", 0.0), counts.get("serving.batches", 0.0)),
            "count")
    agg = server_agg["hi"]["agg"]
    both = [agg, server_agg["hi"]["client"]]
    counts = agg["counts"]

    def total(key: str, field: str) -> float:
        return sum(a.get(key, {}).get(field, 0.0) for a in both)

    result.layers["wire.net.encode_ms"] = (
        ratio(total("net.encode", "self_s") + total("net.encode_frame", "self_s"),
              total("net.encode_frame", "calls")) * 1e3, "ms")
    result.layers["wire.net.decode_ms"] = (
        ratio(total("net.decode", "self_s"), total("net.decode", "calls")) * 1e3, "ms")
    result.layers["wire.net.response_bytes"] = (
        ratio(counts.get("net.frame_bytes", 0.0), counts.get("net.frames", 0.0)), "bytes")
    hi = traced["hi"]
    calls = hi.call[hi.ok]
    server_ms = ratio(counts.get("net.server_s", 0.0), counts.get("net.dispatched", 0.0)) * 1e3
    result.layers["wire.net.client_call_ms"] = (
        (float(np.mean(calls)) * 1e3 - server_ms) if len(calls) else 0.0, "ms")
    result.layers["wire.serving.handler_ms"] = (per_call_ms(agg, "serving.handler"), "ms")
    result.layers["wire.serving.rejected"] = (
        sum(server_agg[n]["agg"]["counts"].get("serving.rejected", 0.0) for n in ("lo", "hi")),
        "count")
    for layer, span in (("fairds.nearest_ms", "fairds.nearest"),
                        ("fairds.lookup_batch_ms", "fairds.lookup_batch"),
                        ("storage.index_query_ms", "storage.index_query"),
                        ("storage.find_ms", "storage.find")):
        result.layers[f"wire.{layer}"] = (per_call_ms(agg, span), "ms")
    result.layers["wire.dataio.sampler_ms"] = (
        per_call_ms(agg, "dataio.sampler", per="fairds.lookup_batch"), "ms")
    result.layers["wire.trace.overhead_pct"] = (
        overhead_pct(list(hi.nearest_ms()), list(untraced_hi.nearest_ms())), "%")
