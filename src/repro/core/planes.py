"""User-plane / system-plane orchestration of fairDMS (paper Fig. 5).

The paper separates fairDMS operations into a *user plane* (operations an end
user invokes directly: query data, request a model update) and a *system
plane* (background maintenance: retrain the embedding model, retrain the
clustering model, update the data store, update the model index).  In the
paper's deployment both planes run as funcX functions coordinated by Globus
Flows.  :class:`FairDMSService` keeps that split as a facade: every plane
function is a method that runs in the caller's thread (a serving worker, for
served micro-batches), so trace context and Ctrl-C reach it directly, and
each call is counted per ``"plane:function"``.  Concurrent fan-out and
background training go through the compute plane (:mod:`repro.compute`) and
the workflow engine (:class:`~repro.workflow.pipeline.Pipeline`).
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.fairdms import FairDMS, ModelUpdateReport
from repro.monitoring.triggers import ThresholdTrigger
from repro.serving import BatchingPolicy, ServingRuntime, ServingTelemetry


def lookup_payload(result) -> Dict[str, Any]:
    """The serving-payload dict of one :class:`~repro.core.fairds.LookupResult`
    — the wire shape shared by :meth:`FairDMSService.lookup_labeled_data` and
    the ``"lookup_labeled_data"`` serving operation (also when a model-less
    ``Deployment`` serves it straight off fairDS)."""
    return {
        "images": result.images,
        "labels": result.labels,
        "doc_ids": result.doc_ids,
        "distribution": result.input_distribution.as_dict(),
    }


def split_lookup_payloads(
    payloads: Sequence[Union[np.ndarray, Tuple[np.ndarray, Optional[int]]]],
) -> Tuple[List[np.ndarray], List[Optional[int]]]:
    """Unpack ``"lookup_labeled_data"`` serving payloads — each an images
    array, or an ``(images, n_samples)`` tuple — into parallel batch lists."""
    batches: List[np.ndarray] = []
    n_samples: List[Optional[int]] = []
    for payload in payloads:
        images, n = payload if isinstance(payload, tuple) else (payload, None)
        batches.append(images)
        n_samples.append(n)
    return batches, n_samples


def split_nearest_payloads(
    payloads: Sequence[Union[np.ndarray, Tuple[np.ndarray, Optional[float]]]],
) -> Tuple[List[np.ndarray], List[Optional[float]]]:
    """Unpack ``"nearest_labeled"`` serving payloads — each one sample, or a
    ``(sample, threshold)`` tuple — into parallel sample/threshold lists."""
    images: List[np.ndarray] = []
    thresholds: List[Optional[float]] = []
    for payload in payloads:
        image, threshold = payload if isinstance(payload, tuple) else (payload, None)
        images.append(np.asarray(image, dtype=np.float64))
        thresholds.append(None if threshold is None else float(threshold))
    return images, thresholds


def nearest_hits_payload(
    hits: Sequence[Tuple[Optional[np.ndarray], float]],
    thresholds: Optional[Sequence[Optional[float]]] = None,
) -> List[Dict[str, Any]]:
    """Wire shape of ``"nearest_labeled"`` results: one
    ``{"label", "distance", "within"}`` dict per sample, with each request's
    own threshold applied (``None`` accepts any distance).  The label of an
    out-of-threshold hit is withheld — the caller should fall back to
    conventional labeling, exactly the Fig. 9 branch."""
    if thresholds is None:
        thresholds = [None] * len(hits)
    out: List[Dict[str, Any]] = []
    for (label, distance), threshold in zip(hits, thresholds):
        within = label is not None and (threshold is None or distance < threshold)
        out.append({
            "label": label if within else None,
            "distance": float(distance),
            "within": bool(within),
        })
    return out


class FairDMSService:
    """Serves fairDMS through user-plane and system-plane functions.

    Every public plane method runs its fairDS/fairDMS operation directly in
    the caller's thread and counts the call under ``"plane:function"``; see
    :meth:`activity_summary`.  The counters are fixed-size (one entry per
    plane function), so a long-running server does not grow with traffic.

    Parameters
    ----------
    dms:
        The :class:`FairDMS` instance to serve.
    """

    USER_PLANE = "user"
    SYSTEM_PLANE = "system"

    def __init__(self, dms: FairDMS):
        self.dms = dms
        self._activity_lock = threading.Lock()
        #: ``"plane:function"`` -> [calls, cumulative seconds].
        self._activity: Dict[str, List[float]] = {}
        self._failures = 0
        # Serving runtimes wired to this service (weakly held, so an
        # abandoned runtime does not pin the service's telemetry forever).
        self._runtimes: "weakref.WeakSet[ServingRuntime]" = weakref.WeakSet()

    # -- plane functions -------------------------------------------------------------
    @contextmanager
    def _counted(self, plane: str, name: str) -> Iterator[None]:
        """Time the enclosed plane call and count it under
        ``"plane:function"``, whether it returns or raises."""
        start = time.perf_counter()
        failed = False
        try:
            yield
        except BaseException:
            failed = True
            raise
        finally:
            self._record(f"{plane}:{name}", time.perf_counter() - start, failed)

    def _record(self, key: str, seconds: float, failed: bool = False) -> None:
        with self._activity_lock:
            entry = self._activity.get(key)
            if entry is None:
                entry = self._activity[key] = [0, 0.0]
            entry[0] += 1
            entry[1] += seconds
            if failed:
                self._failures += 1

    def query_distribution(self, images: np.ndarray, label: str = "") -> Dict[str, Any]:
        """User plane: the cluster PDF of a dataset."""
        with self._counted(self.USER_PLANE, "query_distribution"):
            return self.dms.fairds.dataset_distribution(images, label=label).as_dict()

    def query_distribution_batch(self, batches: List[np.ndarray], label: str = "") -> List[Dict[str, Any]]:
        """User plane: cluster PDFs for a whole batch of datasets at once."""
        with self._counted(self.USER_PLANE, "query_distribution_batch"):
            dists = self.dms.fairds.dataset_distribution_batch(
                batches, labels=[label] * len(batches)
            )
            return [d.as_dict() for d in dists]

    def lookup_labeled_data(self, images: np.ndarray, n_samples: Optional[int] = None) -> Dict[str, Any]:
        """User plane: pseudo-label a dataset from the historical store."""
        with self._counted(self.USER_PLANE, "lookup_labeled_data"):
            return lookup_payload(self.dms.fairds.lookup(images, n_samples=n_samples))

    def lookup_labeled_data_batch(
        self,
        batches: List[np.ndarray],
        n_samples: Optional[Union[int, Sequence[Optional[int]]]] = None,
    ) -> List[Dict[str, Any]]:
        """User plane: pseudo-label several datasets in one batched call.

        Returns one payload per dataset, identical to issuing that many
        :meth:`lookup_labeled_data` calls in order.  ``n_samples`` may be one
        override applied to every dataset or a per-dataset sequence (``None``
        entries fall back to the dataset size), mirroring
        :meth:`repro.core.fairds.FairDS.lookup_batch`.
        """
        with self._counted(self.USER_PLANE, "lookup_labeled_data_batch"):
            results = self.dms.fairds.lookup_batch(batches, n_samples=n_samples)
            return [lookup_payload(r) for r in results]

    def nearest_labeled(
        self,
        images: np.ndarray,
        thresholds: Optional[Sequence[Optional[float]]] = None,
    ) -> List[Dict[str, Any]]:
        """User plane: the nearest labeled historical sample per query image.

        Returns one ``{"label", "distance", "within"}`` dict per row of
        ``images``; when ``thresholds`` gives a per-sample distance gate, the
        label of an out-of-threshold hit is withheld (``within=False``) so
        the caller falls back to conventional labeling.
        """
        with self._counted(self.USER_PLANE, "nearest_labeled"):
            hits = self.dms.fairds.nearest_labeled(images, threshold=None)
            return nearest_hits_payload(hits, thresholds)

    def certainty_batch(self, batches: List[np.ndarray]) -> List[float]:
        """System plane: cluster-assignment certainty of several datasets."""
        with self._counted(self.SYSTEM_PLANE, "certainty_batch"):
            return self.dms.fairds.certainty_batch(batches)

    def request_model_update(self, images: np.ndarray, label: str = "update") -> ModelUpdateReport:
        """User plane: the full fairDMS model-update operation.

        When the update's certainty check triggered a representation
        refresh, that refresh is also counted as system-plane activity —
        the paper's automatic background maintenance.
        """
        with self._counted(self.USER_PLANE, "update_model"):
            report = self.dms.update_model(images, label=label)
        if report.triggered_refresh:
            self._record(f"{self.SYSTEM_PLANE}:refresh_representations",
                         report.timings.get("system_refresh", 0.0))
        return report

    def ingest_labeled_data(self, images: np.ndarray, labels: np.ndarray) -> int:
        """System plane: add newly labeled data to the historical store."""
        with self._counted(self.SYSTEM_PLANE, "ingest_labeled_data"):
            return len(self.dms.fairds.ingest(images, labels))

    def refresh_representations(self) -> int:
        """System plane: retrain embedding + clustering and rebuild the store index."""
        with self._counted(self.SYSTEM_PLANE, "refresh_representations"):
            self.dms.fairds.refresh()
            return self.dms.fairds.store_size()

    # -- concurrent serving -----------------------------------------------------------------
    def serving_runtime(
        self,
        policy: Optional[BatchingPolicy] = None,
        num_workers: int = 2,
        certainty_trigger: Optional[ThresholdTrigger] = None,
        telemetry: Optional[ServingTelemetry] = None,
    ) -> ServingRuntime:
        """A micro-batching :class:`~repro.serving.runtime.ServingRuntime`
        serving this service's interactive single-request operations.

        Concurrent clients submit *single* requests; each flush lands on the
        corresponding ``*_batch`` plane function (counted once per
        micro-batch, not per request).  Payloads:

        * ``"query_distribution"`` — an images array; resolves to the
          distribution dict of :meth:`query_distribution` (user plane).
        * ``"lookup_labeled_data"`` — an images array, or an
          ``(images, n_samples)`` tuple to override the sample count;
          resolves to the payload dict of :meth:`lookup_labeled_data`
          (user plane).
        * ``"certainty"`` — an images array; resolves to the dataset's
          cluster-assignment certainty (percent).  Certainty monitoring is a
          *system-plane* function, so its micro-batches are logged as
          ``system:certainty_batch`` in :meth:`activity_summary`.

        When ``certainty_trigger`` is given, every certainty result is fed to
        ``certainty_trigger.observe_many`` in *arrival order* — even when
        worker threads complete batches out of order — so the trigger fires
        exactly as it would under serial, unbatched monitoring.

        The runtime is returned unstarted; use it as a context manager or
        call :meth:`~repro.serving.runtime.ServingRuntime.start` /
        :meth:`~repro.serving.runtime.ServingRuntime.shutdown` around the
        service's own lifetime.
        """
        runtime = ServingRuntime(
            self.serving_handlers(),
            policy=policy,
            num_workers=num_workers,
            telemetry=telemetry,
            observers=self.serving_observers(certainty_trigger),
        )
        self.wire_index_controls(runtime)
        return self.track_runtime(runtime)

    def serving_handlers(self) -> Dict[str, Callable[[List[Any]], Sequence[Any]]]:
        """The batch handlers :meth:`serving_runtime` wires, exposed so a
        facade can compose them with additional operations (e.g. the
        ``Deployment`` facade adds a hot-swappable ``"predict"``) into one
        :class:`~repro.serving.runtime.ServingRuntime`."""
        return {
            "query_distribution": lambda payloads: self.query_distribution_batch(list(payloads)),
            "lookup_labeled_data": self._serve_lookup_batch,
            "nearest_labeled": self._serve_nearest_batch,
            "certainty": lambda payloads: self.certainty_batch(list(payloads)),
        }

    def serving_observers(
        self, certainty_trigger: Optional[ThresholdTrigger] = None
    ) -> Dict[str, Callable[[List[Any]], Any]]:
        """Arrival-order observers matching :meth:`serving_handlers`."""
        observers: Dict[str, Callable[[List[Any]], Any]] = {}
        if certainty_trigger is not None:
            observers["certainty"] = certainty_trigger.observe_many
        return observers

    def track_runtime(self, runtime: ServingRuntime) -> ServingRuntime:
        """Register ``runtime`` as serving this service, so its completion
        counts surface in :meth:`activity_summary` (one telemetry source)."""
        self._runtimes.add(runtime)
        return runtime

    def _serve_lookup_batch(
        self, payloads: Sequence[Union[np.ndarray, Tuple[np.ndarray, Optional[int]]]]
    ) -> List[Dict[str, Any]]:
        """Batch handler for ``"lookup_labeled_data"`` serving requests."""
        batches, n_samples = split_lookup_payloads(payloads)
        return self.lookup_labeled_data_batch(batches, n_samples=n_samples)

    def _serve_nearest_batch(
        self, payloads: Sequence[Union[np.ndarray, Tuple[np.ndarray, Optional[float]]]]
    ) -> List[Dict[str, Any]]:
        """Batch handler for ``"nearest_labeled"`` serving requests: each
        payload is one sample, or a ``(sample, threshold)`` tuple.  The whole
        micro-batch resolves in a single index probe; thresholds apply
        per-request afterwards."""
        images, thresholds = split_nearest_payloads(payloads)
        return self.nearest_labeled(np.stack(images), thresholds=thresholds)

    def wire_index_controls(self, runtime: ServingRuntime) -> ServingRuntime:
        """Expose the vector index's live controls on ``runtime``: the
        ``n_probe`` retuning knob (when the fitted backend supports it) and
        an ``"index_scan"`` stats provider so per-partition scan counters
        appear in every telemetry snapshot."""
        fairds = self.dms.fairds
        caps = fairds.index_capabilities
        if caps is not None and caps.supports_n_probe:
            runtime.register_knob(
                "n_probe",
                fairds.set_index_n_probe,
                getter=lambda: fairds.index_n_probe,
            )
        runtime.register_stats_provider("index_scan", fairds.index_stats)
        return runtime

    # -- introspection ----------------------------------------------------------------------
    def activity_summary(self, include_serving: bool = True) -> Dict[str, int]:
        """Invocation counts per plane function, as ``{"plane:function": n}``.

        With ``include_serving`` (default), per-operation request counts of
        every serving runtime created by :meth:`serving_runtime` (or adopted
        via :meth:`track_runtime`) are folded in under ``"serving:<op>"``
        keys, so callers aggregating system health read one summary instead
        of walking runtimes themselves.  When the fitted index backend
        exposes scan statistics (e.g. the IVF index), its integer counters
        are folded in under ``"index:<stat>"`` keys from the single
        authoritative source — the index itself — so runtimes sharing one
        index are not double-counted.
        """
        with self._activity_lock:
            summary = {key: int(calls) for key, (calls, _) in self._activity.items()}
        if include_serving:
            for runtime in list(self._runtimes):
                for op, counts in runtime.telemetry_snapshot()["per_op"].items():
                    key = f"serving:{op}"
                    summary[key] = summary.get(key, 0) + counts["completed"]
        for stat, value in self.dms.fairds.index_stats().items():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                continue
            summary[f"index:{stat}"] = int(value)
        return summary

    def activity_seconds(self) -> Dict[str, float]:
        """Cumulative wall-clock seconds per ``"plane:function"``, over the
        same calls :meth:`activity_summary` counts."""
        with self._activity_lock:
            return {key: seconds for key, (_, seconds) in self._activity.items()}

    @property
    def failed_calls(self) -> int:
        """How many plane calls raised (each is also counted in
        :meth:`activity_summary`)."""
        with self._activity_lock:
            return self._failures
