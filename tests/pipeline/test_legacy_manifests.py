"""Artifacts written with retired fields still load and serve.

Snapshots and manifests used to record a serving array namespace
(always ``"numpy"``) in ``ProgrammedArray.metadata`` and in the
``FleetConfig``/``PipelineConfig`` manifest configs, and every
snapshot's crossbar config (``metadata["crossbar"]``, fleet shards and
pipeline layers included) carried a ``"nodal_solver"``.  Both fields
are gone; a cache written in that older form must load, and its served
answers must equal the offline engine on the loaded artifact bit for
bit.  ``CrossbarService`` keeps its ``nodal_solver`` keyword for older
callers, but only ``None`` and ``"lu"`` pass it.

Each older form also serves through the CLI's one front door,
``repro serve --artifact KEY --stdin``, which picks the service from
the stored manifest (a single-array snapshot has no ``kind`` key).

Snapshots and manifests pinned to the retired ``"fixed_point"`` read
mode fail loudly instead: a snapshot refuses to serve without an
``ir_mode`` override, and a fleet or pipeline manifest refuses to load.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.cli import main
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


def _write_older_form(root, nodal_solver=None) -> int:
    """Rewrite every cached JSON document in the older on-disk form.

    Adds the ``"backend"`` field to every config and metadata block and
    pins ``nodal_solver`` in every snapshot's crossbar config.
    """
    rewritten = 0
    for path in sorted(root.rglob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for field in ("config", "metadata"):
            if isinstance(doc.get(field), dict):
                doc[field]["backend"] = "numpy"
                rewritten += 1
        crossbar = (doc.get("metadata") or {}).get("crossbar")
        if isinstance(crossbar, dict):
            crossbar["nodal_solver"] = nodal_solver
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return rewritten


def _cli_served(root, key: str, x, capsys, monkeypatch) -> np.ndarray:
    """Scores of ``repro serve --artifact key --stdin`` for rows ``x``."""
    lines = "\n".join(",".join(repr(float(v)) for v in row) for row in x)
    monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
    capsys.readouterr()
    argv = ["serve", "--cache-dir", str(root), "--artifact", key, "--stdin"]
    assert main(argv) == 0
    answers = [
        json.loads(text)
        for text in capsys.readouterr().out.splitlines() if text
    ]
    return np.array([answer["scores"] for answer in answers])


def _pin_ir_mode(root, ir_mode: str) -> int:
    """Pin ``ir_mode`` in every cached snapshot and manifest config."""
    pinned = 0
    for path in sorted(root.rglob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for block in (doc, doc.get("config")):
            if isinstance(block, dict) and "ir_mode" in block:
                block["ir_mode"] = ir_mode
                pinned += 1
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return pinned


def test_programmed_array_with_backend_metadata_serves(
    tmp_path, capsys, monkeypatch
):
    config = ProgramConfig(scheme="old", image_size=7, n_train=100, seed=2)
    cache = ArtifactCache(tmp_path)
    key = program_array(config).save(cache, artifact_key(config))
    assert _write_older_form(tmp_path) == 1
    assert "kind" not in cache.get_json(key)

    loaded = ProgrammedArray.load(cache, key)
    assert loaded.metadata["backend"] == "numpy"
    x = np.random.default_rng(0).random((6, loaded.n_logical))
    expected = InferenceEngine.from_artifact(loaded).forward(x)
    with CrossbarService(loaded) as service:
        served = np.stack(
            [service.submit(row).result(timeout=30.0) for row in x]
        )
    assert np.array_equal(served, expected)
    assert np.array_equal(
        _cli_served(tmp_path, key, x, capsys, monkeypatch), expected
    )


def test_fleet_manifest_with_backend_field_serves(
    tmp_path, capsys, monkeypatch
):
    config = FleetConfig(n_rows=20, cols=4, tile_rows=8, seed=7, n_probes=4)
    w = np.random.default_rng(1).uniform(-1, 1, (20, 4))
    cache = ArtifactCache(tmp_path)
    key = program_fleet(config, w).save(cache, fleet_key(config, w))
    # The manifest plus one metadata block per shard.
    assert _write_older_form(tmp_path) == 4

    loaded = ProgrammedFleet.load(cache, key)
    assert loaded.config == config
    x = np.random.default_rng(2).random((5, 20))
    expected = InferenceEngine(loaded.build_tiled()).forward(x)
    with FleetService(loaded) as service:
        assert np.array_equal(service.forward(x, timeout=30.0), expected)
    assert np.array_equal(
        _cli_served(tmp_path, key, x, capsys, monkeypatch), expected
    )


def test_pipeline_manifest_with_backend_field_serves(
    tmp_path, mlp_config, mlp_artifact, capsys, monkeypatch
):
    cache = ArtifactCache(tmp_path)
    key = mlp_artifact.save(cache, pipeline_key(mlp_config))
    assert _write_older_form(tmp_path) > mlp_artifact.n_layers

    loaded = PipelineArtifact.load(cache, key)
    assert loaded.config == mlp_config
    x = mlp_config.dataset().x_test[:8]
    expected = offline_engine(loaded).forward(x)
    with PipelineService(loaded) as service:
        assert np.array_equal(service.forward(x, timeout=30.0), expected)
    assert np.array_equal(
        _cli_served(tmp_path, key, x, capsys, monkeypatch), expected
    )


def test_programmed_array_with_pinned_cg_serves_through_lu(tmp_path):
    # A pinned "cg" (or "schur") answers the same circuit through lu.
    config = ProgramConfig(scheme="old", image_size=7, n_train=100, seed=2)
    cache = ArtifactCache(tmp_path)
    key = program_array(config).save(cache, artifact_key(config))
    _write_older_form(tmp_path, nodal_solver="cg")

    loaded = ProgrammedArray.load(cache, key)
    assert loaded.metadata["crossbar"]["nodal_solver"] == "cg"
    x = np.random.default_rng(0).random((6, loaded.n_logical))
    expected = InferenceEngine.from_artifact(
        loaded, ir_mode="nodal"
    ).forward(x)
    with CrossbarService(loaded, ir_mode="nodal") as service:
        served = np.stack(
            [service.submit(row).result(timeout=30.0) for row in x]
        )
    assert np.array_equal(served, expected)


def test_crossbar_service_rejects_retired_nodal_solvers():
    artifact = program_array(
        ProgramConfig(scheme="old", image_size=7, n_train=100, seed=2)
    )
    for solver in ("cg", "schur"):
        with pytest.raises(ValueError, match="nodal_solver"):
            CrossbarService(artifact, nodal_solver=solver)
    with CrossbarService(artifact, nodal_solver="lu") as service:
        x = np.random.default_rng(0).random(artifact.n_logical)
        assert np.array_equal(
            service.predict(x, timeout=30.0),
            InferenceEngine.from_artifact(artifact).forward(x),
        )


def test_programmed_array_pinned_to_fixed_point_needs_an_override(tmp_path):
    config = ProgramConfig(scheme="old", image_size=7, n_train=100, seed=2)
    cache = ArtifactCache(tmp_path)
    key = program_array(config).save(cache, artifact_key(config))
    assert _pin_ir_mode(tmp_path, "fixed_point") == 1

    loaded = ProgrammedArray.load(cache, key)
    assert loaded.ir_mode == "fixed_point"
    with pytest.raises(ValueError, match="removed.*--ir-mode nodal"):
        CrossbarService(loaded)
    x = np.random.default_rng(0).random((6, loaded.n_logical))
    with CrossbarService(loaded, ir_mode="nodal") as service:
        served = np.stack(
            [service.submit(row).result(timeout=30.0) for row in x]
        )
        assert np.array_equal(served, service.engine.forward(x))


def test_fleet_manifest_pinned_to_fixed_point_fails_at_load(tmp_path):
    config = FleetConfig(n_rows=20, cols=4, tile_rows=8, seed=7, n_probes=4)
    w = np.random.default_rng(1).uniform(-1, 1, (20, 4))
    cache = ArtifactCache(tmp_path)
    key = program_fleet(config, w).save(cache, fleet_key(config, w))
    # The manifest config plus one snapshot per shard.
    assert _pin_ir_mode(tmp_path, "fixed_point") == 4
    with pytest.raises(ValueError, match="removed.*--ir-mode nodal"):
        ProgrammedFleet.load(cache, key)


def test_pipeline_manifest_pinned_to_fixed_point_fails_at_load(
    tmp_path, mlp_config, mlp_artifact
):
    cache = ArtifactCache(tmp_path)
    key = mlp_artifact.save(cache, pipeline_key(mlp_config))
    assert _pin_ir_mode(tmp_path, "fixed_point") > mlp_artifact.n_layers
    with pytest.raises(ValueError, match="removed.*--ir-mode nodal"):
        PipelineArtifact.load(cache, key)
