"""fairDMS core: the FAIR data service (fairDS), model service (fairMS), and
the combined rapid-model-training workflow (fairDMS).

* :class:`~repro.core.fairds.FairDS` — embeds and clusters historical labeled
  data, stores it in the document database indexed by embedding/cluster, and
  answers pseudo-labeling queries: given new *unlabeled* data, return already
  labeled historical data with the same cluster probability distribution, or
  per-sample nearest labeled neighbours within a distance threshold.
* :class:`~repro.core.model_zoo.ModelZoo` — stores trained models together
  with the cluster PDF of their training dataset.
* :class:`~repro.core.fairms.FairMS` — ranks Zoo models against an input
  dataset's distribution by Jensen-Shannon divergence and recommends the best
  foundation model for fine-tuning (or training from scratch when nothing in
  the Zoo is close enough).
* :class:`~repro.core.fairdms.FairDMS` — ties everything together: detect
  degradation, pseudo-label, recommend, fine-tune, register the new model, and
  refresh the system plane when cluster-assignment certainty drops.
"""

from repro.core.distribution import DatasetDistribution
from repro.core.fairds import FairDS, LookupResult
from repro.core.model_zoo import ModelRecord, ModelZoo
from repro.core.fairms import FairMS, Recommendation
from repro.core.fairdms import FairDMS, ModelUpdateReport, UpdatePolicy
from repro.core.planes import FairDMSService

__all__ = [
    "FairDMSService",
    "DatasetDistribution",
    "FairDS",
    "LookupResult",
    "ModelRecord",
    "ModelZoo",
    "FairMS",
    "Recommendation",
    "FairDMS",
    "ModelUpdateReport",
    "UpdatePolicy",
]
