"""Tests for the component registry's storage/index backends and their protocols."""

import numpy as np
import pytest

from repro.api.registry import (
    available_components,
    create_component,
    create_from_spec,
    register_component,
    unregister_component,
)
from repro.storage import DocumentDB, FileStore, VectorIndex, ClusteredVectorIndex
from repro.storage.codecs import CompressedCodec
from repro.storage.registry import IndexBackend, StorageBackend
from repro.utils.errors import ConfigurationError


def test_builtin_backends_are_listed():
    assert {"file", "documentdb"} <= set(available_components("storage"))
    assert {"flat", "clustered"} <= set(available_components("index"))


def test_create_index_backends_by_name():
    flat = create_component("index", "flat", dim=3)
    assert isinstance(flat, VectorIndex)
    clustered = create_component("index", "clustered", centers=np.zeros((2, 3)), n_probe=2)
    assert isinstance(clustered, ClusteredVectorIndex)
    assert isinstance(flat, IndexBackend)
    assert isinstance(clustered, IndexBackend)


def test_create_storage_backends_by_name(tmp_path):
    store = create_component("storage", "file", root=str(tmp_path / "s"))
    assert isinstance(store, FileStore)
    db = create_component("storage", "documentdb", codec="blosc")
    assert isinstance(db, DocumentDB)
    assert isinstance(db.codec, CompressedCodec)
    assert isinstance(store, StorageBackend)
    assert isinstance(db, StorageBackend)


def test_documentdb_network_from_mapping():
    db = create_component("storage", "documentdb", network={"latency_s": 0.001})
    assert db.network.latency_s == pytest.approx(0.001)


def test_documentdb_storage_bytes_sums_collections():
    db = create_component("storage", "documentdb")
    assert db.storage_bytes() == 0
    db.collection("a").insert_one({"k": 1}, payload=np.zeros(8))
    db.collection("b").insert_one({"k": 2}, payload=np.zeros(8))
    assert db.storage_bytes() == sum(s["payload_bytes"] for s in db.stats().values())
    assert db.storage_bytes() > 0


def test_unknown_backend_and_kind_raise():
    with pytest.raises(ConfigurationError, match="available"):
        create_component("index", "nope")
    with pytest.raises(ConfigurationError, match="unknown component kind"):
        create_component("bogus-kind", "flat")
    with pytest.raises(ConfigurationError, match="unknown component kind"):
        available_components("bogus-kind")


def test_register_custom_backend_decorator_and_duplicates():
    try:

        @register_component("index", "unit-test-backend")
        class TinyIndex:
            def __init__(self, dim=1):
                self.dim = dim

            def __len__(self):
                return 0

            def query(self, vector, k=1):
                return []

            def query_batch(self, vectors, k=1):
                return []

        created = create_component("index", "unit-test-backend", dim=7)
        assert isinstance(created, TinyIndex) and created.dim == 7
        assert isinstance(created, IndexBackend)
        with pytest.raises(ConfigurationError):
            register_component("index", "unit-test-backend", TinyIndex)

        class OtherIndex(TinyIndex):
            pass

        register_component("index", "unit-test-backend", OtherIndex, overwrite=True)
        assert isinstance(create_component("index", "unit-test-backend"), OtherIndex)
    finally:
        # Don't leak the temporary backend into the process-wide registry.
        assert unregister_component("index", "unit-test-backend")
    assert "unit-test-backend" not in available_components("index")
    assert not unregister_component("index", "unit-test-backend")


def test_create_from_config():
    index = create_from_spec({"kind": "index", "name": "flat", "params": {"dim": 4}})
    assert isinstance(index, VectorIndex) and index.dim == 4
    db = create_from_spec({"kind": "storage", "name": "documentdb", "params": {"codec": "blosc"}})
    assert isinstance(db, DocumentDB) and isinstance(db.codec, CompressedCodec)
    with pytest.raises(ConfigurationError):
        create_from_spec({"name": "flat"})


# ---------------------------------------------------------------------------------
# The unified package-wide component registry (repro.api.registry)
# ---------------------------------------------------------------------------------
def test_unified_registry_covers_every_component_kind():
    from repro.api.registry import available_components, component_kinds

    assert component_kinds() == [
        "embedder", "clustering", "storage", "index", "model", "trigger", "policy",
        "executor",
    ]
    assert {"pca", "autoencoder", "contrastive", "byol"} <= set(available_components("embedder"))
    assert "kmeans" in available_components("clustering")
    assert {"file", "documentdb"} <= set(available_components("storage"))
    assert {"flat", "clustered", "mmap"} <= set(available_components("index"))
    assert {"braggnn", "cookienetae", "tomogan"} <= set(available_components("model"))
    assert {"threshold", "certainty"} <= set(available_components("trigger"))
    assert {"batching", "update"} <= set(available_components("policy"))
    assert set(available_components("executor")) == {"inline", "thread", "process"}


def test_unified_registry_unknown_kind_and_name():
    from repro.api.registry import available_components, create_component

    with pytest.raises(ConfigurationError, match="unknown component kind"):
        available_components("bogus")
    with pytest.raises(ConfigurationError, match="available"):
        create_component("trigger", "nope")


def test_custom_embedder_registration_reaches_the_unified_registry():
    from repro.api.registry import create_component, is_registered, unregister_component
    from repro.embedding import Embedder, get_embedder, register_embedder

    class NullEmbedder(Embedder):
        name = "unit-test-null"

        def fit(self, x, **kwargs):
            return self

        def transform(self, x):
            return self.flatten(x)[:, : self.embedding_dim]

    try:
        register_embedder(NullEmbedder)
        assert is_registered("embedder", "unit-test-null")
        assert isinstance(get_embedder("unit-test-null", embedding_dim=2), NullEmbedder)
        assert isinstance(
            create_component("embedder", "unit-test-null", embedding_dim=2), NullEmbedder
        )
    finally:
        unregister_component("embedder", "unit-test-null")
        from repro.embedding.base import _EMBEDDERS

        _EMBEDDERS.pop("unit-test-null", None)
