"""Artifacts written with a ``"backend"`` field still load and serve.

Snapshots and manifests used to record a serving array namespace
(always ``"numpy"``) in ``ProgrammedArray.metadata`` and in the
``FleetConfig``/``PipelineConfig`` manifest configs.  The field is
gone from the configs; a cache written in that older form must load,
and its served answers must equal the offline engine on the loaded
artifact bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from repro.fleet import (
    FleetConfig,
    FleetService,
    ProgrammedFleet,
    fleet_key,
    program_fleet,
)
from repro.pipeline import (
    PipelineArtifact,
    PipelineService,
    offline_engine,
    pipeline_key,
)
from repro.runtime.cache import ArtifactCache
from repro.serve import CrossbarService
from repro.serve.artifact import (
    ProgramConfig,
    ProgrammedArray,
    artifact_key,
    program_array,
)
from repro.serve.engine import InferenceEngine


def _add_backend_fields(root) -> int:
    """Rewrite every cached JSON document in the older on-disk form."""
    rewritten = 0
    for path in sorted(root.rglob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for field in ("config", "metadata"):
            if isinstance(doc.get(field), dict):
                doc[field]["backend"] = "numpy"
                rewritten += 1
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return rewritten


def test_programmed_array_with_backend_metadata_serves(tmp_path):
    config = ProgramConfig(scheme="old", image_size=7, n_train=100, seed=2)
    cache = ArtifactCache(tmp_path)
    key = program_array(config).save(cache, artifact_key(config))
    assert _add_backend_fields(tmp_path) == 1

    loaded = ProgrammedArray.load(cache, key)
    assert loaded.metadata["backend"] == "numpy"
    x = np.random.default_rng(0).random((6, loaded.n_logical))
    expected = InferenceEngine.from_artifact(loaded).forward(x)
    with CrossbarService(loaded) as service:
        served = np.stack(
            [service.submit(row).result(timeout=30.0) for row in x]
        )
    assert np.array_equal(served, expected)


def test_fleet_manifest_with_backend_field_serves(tmp_path):
    config = FleetConfig(n_rows=20, cols=4, tile_rows=8, seed=7, n_probes=4)
    w = np.random.default_rng(1).uniform(-1, 1, (20, 4))
    cache = ArtifactCache(tmp_path)
    key = program_fleet(config, w).save(cache, fleet_key(config, w))
    # The manifest plus one metadata block per shard.
    assert _add_backend_fields(tmp_path) == 4

    loaded = ProgrammedFleet.load(cache, key)
    assert loaded.config == config
    x = np.random.default_rng(2).random((5, 20))
    expected = InferenceEngine(loaded.build_tiled()).forward(x)
    with FleetService(loaded) as service:
        assert np.array_equal(service.forward(x, timeout=30.0), expected)


def test_pipeline_manifest_with_backend_field_serves(
    tmp_path, mlp_config, mlp_artifact
):
    cache = ArtifactCache(tmp_path)
    key = mlp_artifact.save(cache, pipeline_key(mlp_config))
    assert _add_backend_fields(tmp_path) > mlp_artifact.n_layers

    loaded = PipelineArtifact.load(cache, key)
    assert loaded.config == mlp_config
    x = mlp_config.dataset().x_test[:8]
    expected = offline_engine(loaded).forward(x)
    with PipelineService(loaded) as service:
        assert np.array_equal(service.forward(x, timeout=30.0), expected)
