"""The ``wire-serve`` server process.

Started by :mod:`wire` as ``python3 perfbench/server.py``; it reads one JSON
config line (``seed``, ``trace``, ``sink``) on stdin, fits the ``networked`` preset
(fixed 2-replica fleet, no autoscaler) on the benchmark's generated store
``SETUPS`` times, serves the last one over TCP on an ephemeral port, and then
answers JSON-line commands on stdin until ``stop``:

* ``{"cmd": "trace", "on": bool}`` - switch span recording;
* ``{"cmd": "stats"}`` - span aggregates since the last ``stats`` (the spans
  themselves go to the ``sink`` file), peak RSS;
* ``{"cmd": "check", "samples": [...]}`` - compare wire responses with the
  in-process handlers' results;
* ``{"cmd": "stop"}`` - close the deployment and exit.

Replies go to stdout one JSON line each; everything else the program logs
goes to stderr.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def networked_spec():
    from repro.api.spec import preset

    spec = preset("networked")
    return dataclasses.replace(
        spec, network=dataclasses.replace(spec.network, replicas=2, autoscale=None)
    )


def check_samples(dep, samples) -> dict:
    """Each sample is ``{"op", "payload", "response"}`` in wire encoding.
    ``nearest_labeled`` responses must equal the in-process result for the
    same sample; ``lookup_labeled_data`` responses draw at random, so they must
    return the requested count of stored documents whose labels and payloads
    they carry, with the input distribution fairDS computes in process."""
    import numpy as np

    from repro.core.planes import nearest_hits_payload
    from repro.net.protocol import decode

    fairds = dep.fairds
    mismatches, detail = 0, []
    for i, sample in enumerate(samples):
        payload, response = decode(sample["payload"]), decode(sample["response"])
        try:
            if sample["op"] == "nearest_labeled":
                hits = fairds.nearest_labeled(np.stack([np.asarray(payload)]), threshold=None)
                want = nearest_hits_payload(hits)[0]
                ok = (want["within"] == response["within"]
                      and np.array_equal(want["label"], response["label"])
                      and np.isclose(want["distance"], response["distance"], rtol=1e-9))
            else:
                ids = list(response["doc_ids"])
                docs = [fairds.collection.get(doc_id) for doc_id in ids]
                stored = np.stack([np.asarray(p) for p in fairds.collection.fetch_payloads(ids)])
                want = fairds.dataset_distribution(payload).as_dict()
                ok = (len(ids) == len(payload)
                      and np.array_equal([d["label"] for d in docs], response["labels"])
                      and np.array_equal(stored, response["images"])
                      and np.allclose(want["pdf"], response["distribution"]["pdf"]))
            why = f"sample {i} ({sample['op']}) differs"
        except Exception as exc:  # a response that breaks the oracle is a mismatch
            ok, why = False, f"sample {i}: {type(exc).__name__}: {exc}"
        if not ok:
            mismatches += 1
            detail.append(why)
    return {"mismatches": mismatches, "detail": "; ".join(detail[:3])}


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    replies = sys.stdout
    sys.stdout = sys.stderr

    import inputs
    import spans
    from measure import HostProbe, peak_rss_mb
    from scenario import timed_setups

    from repro.api import Deployment

    def reply(obj) -> None:
        replies.write(json.dumps(obj) + "\n")
        replies.flush()

    config = json.loads(sys.stdin.readline())
    tracer = spans.Tracer(sink=config["sink"])
    if config["trace"]:
        spans.install(tracer)
    images, labels = inputs.wire_store(config["seed"])

    def build():
        dep = Deployment.from_spec(networked_spec())
        dep.fit(images, labels, train_initial_model=False)
        dep.serve_network()
        return dep

    dep, setup_s = timed_setups(build, lambda d: d.close(), HostProbe())
    reply({"port": dep.serve_network().address[1], "setup_s": setup_s})
    for line in sys.stdin:
        command = json.loads(line)
        cmd = command["cmd"]
        if cmd == "trace":
            tracer.enabled = bool(command["on"])
            reply({"ok": True})
        elif cmd == "stats":
            agg = tracer.aggregate()
            tracer.reset()
            reply({"agg": agg, "rss_mb": peak_rss_mb()})
        elif cmd == "check":
            reply(check_samples(dep, command["samples"]))
        elif cmd == "stop":
            break
    dep.close()
    reply({"ok": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
