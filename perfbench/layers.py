"""Which entry points the traced run wraps, and the per-layer metrics.

Span names are ``"<layer group>:<entry point>"``.  A group's busy time
is inclusive (outermost span of the group on its stack); its self time
excludes the child spans of other groups.  Busy times add up across
threads and worker processes, so a busy layer can exceed wall time.
"""

from __future__ import annotations

import numpy as np

from perfbench.spans import Tracer, summarize

__all__ = ["PER_LAYER", "install", "per_layer_metrics"]


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _read_group(self, x, ir_mode="ideal", *args, **kwargs) -> str:
    # Crossbar.read takes the ideal path whenever the wires are ideal.
    mode = "ideal" if self.config.r_wire == 0 else ir_mode
    return f"xbar.read.{mode}:read"


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point (import-time binding included)."""
    from repro.circuits.adc import ADC
    from repro.circuits.sensing import CurrentSense
    import repro.core.amp as amp
    import repro.core.cld as cld
    import repro.core.old as old
    import repro.core.pretest as pretest
    import repro.core.self_tuning as self_tuning
    import repro.core.vat as vat
    import repro.runtime.executor as executor
    import repro.xbar.nodal as nodal
    from repro.fleet.router import FleetRouter, ShardGroup
    from repro.fleet.service import FleetService
    from repro.pipeline.engine import PipelineEngine
    from repro.runtime.telemetry import RunLog
    from repro.serve.engine import InferenceEngine
    from repro.serve.health import DriftMonitor
    from repro.serve.service import CrossbarService
    from repro.xbar.crossbar import Crossbar
    from repro.xbar.tiling import TiledPair

    p = tracer.patch
    p(FleetRouter, "submit", "fleet.router:scatter")
    p(ShardGroup, "submit", "fleet.router:shard_submit")
    p(FleetService, "submit", "fleet.service:submit")
    p(TiledPair, "reduce_partials", "xbar.tiling.reduce:reduce_partials")
    p(RunLog, "record_request", "runtime.telemetry:record_request")
    p(RunLog, "serve_summary", "runtime.telemetry:serve_summary")
    p(Crossbar, "read", _read_group, count=lambda self, x, *a, **k: _rows(x))
    p(nodal, "splu", "xbar.nodal.factor:splu")
    for method in ("read", "read_batch", "solve", "solve_batch"):
        p(nodal.CrossbarNetwork, method, f"xbar.nodal.solve:{method}")
    p(vat, "train_vat", "core.vat:train_vat")
    p(self_tuning, "tune_gamma", "core.self_tuning:tune_gamma")
    p(self_tuning, "injected_rate", "core.self_tuning:injected_rate")
    p(cld, "train_cld", "core.cld:train_cld")
    p(pretest, "pretest_pair", "core.pretest:pretest_pair")
    p(pretest, "pretest_array", "core.pretest:pretest_array")
    p(amp, "run_amp", "core.amp:run_amp")
    p(old, "program_pair_open_loop", "core.program:program_pair_open_loop")
    p(old, "program_pair_physical", "core.program:program_pair_physical")
    p(CrossbarService, "remap", "serve.health.remap:remap")
    p(DriftMonitor, "discrepancy", "serve.health.probe:discrepancy")
    p(executor, "map_trials", "runtime.executor:map_trials",
      count=lambda fn, trials, *a, **k: int(trials))
    p(executor, "map_trials_batched", "runtime.executor:map_trials_batched",
      count=lambda fn, trials, *a, **k: int(trials))
    p(executor, "parallel_map", "runtime.executor:parallel_map",
      count=lambda fn, items, *a, **k: len(items)
      if hasattr(items, "__len__") else 1)
    p(ADC, "quantize", "circuits.adc:quantize")
    p(ADC, "codes", "circuits.adc:codes")
    p(CurrentSense, "sense", "circuits.sense:sense")
    p(InferenceEngine, "forward", "serve.engine:forward",
      count=lambda self, x, *a, **k: _rows(x))
    p(PipelineEngine, "submit", "pipeline.engine:submit")
    # The recall chain runs in future callbacks on lane worker threads;
    # these methods are where each lane completion re-enters the layer.
    for method in ("submit_recall", "_recall_iterate", "_recall_pos",
                   "_recall_neg", "_on_stage"):
        p(PipelineEngine, method, f"pipeline.engine:{method}")


# name -> (unit, better); the order is the order printed.
PER_LAYER: dict[str, tuple[str, str]] = {}


def _layer(name: str, unit: str, better: str = "lower") -> None:
    PER_LAYER[name] = (unit, better)


_layer("fleet.router.submits_per_query", "ratio")
_layer("fleet.router.scatter_busy_s", "s")
_layer("fleet.router.scatter_self_s", "s")
_layer("xbar.tiling.reduce_calls", "count")
_layer("xbar.tiling.reduce_busy_s", "s")
_layer("xbar.tiling.reduce_self_s", "s")
_layer("runtime.telemetry.records", "count")
_layer("runtime.telemetry.busy_s", "s")
_layer("runtime.telemetry.self_s", "s")
_layer("py.gc.collections_gen2", "count")
_layer("py.gc.pause_s", "s")
_layer("py.gc.max_pause_ms", "ms")
for _mode in ("ideal", "fixed_point", "nodal"):
    _layer(f"xbar.read.{_mode}.calls", "count")
    _layer(f"xbar.read.{_mode}.busy_s", "s")
    _layer(f"xbar.read.{_mode}.self_s", "s")
_layer("xbar.read.rows_per_call", "rows", "higher")
_layer("xbar.nodal.factorizations", "count")
_layer("xbar.nodal.factor_busy_s", "s")
_layer("xbar.nodal.factor_self_s", "s")
_layer("xbar.nodal.solve_busy_s", "s")
_layer("xbar.nodal.solve_self_s", "s")
for _core in ("vat", "self_tuning", "cld", "pretest", "amp", "program"):
    _layer(f"core.{_core}.busy_s", "s")
    _layer(f"core.{_core}.self_s", "s")
_layer("serve.health.remap_busy_s", "s")
_layer("serve.health.remap_self_s", "s")
_layer("serve.health.repair_ms", "ms")
_layer("serve.health.probe_replays", "count")
_layer("runtime.executor.calls", "count")
_layer("runtime.executor.trials", "count", "higher")
_layer("runtime.executor.busy_s", "s")
_layer("runtime.executor.self_s", "s")
for _circuit in ("adc", "sense"):
    _layer(f"circuits.{_circuit}.busy_s", "s")
    _layer(f"circuits.{_circuit}.self_s", "s")
_layer("serve.engine.calls", "count")
_layer("serve.engine.rows_per_call", "rows", "higher")
_layer("serve.engine.busy_s", "s")
_layer("serve.engine.self_s", "s")
_layer("serve.scheduler.batches", "count")
_layer("serve.scheduler.batch_size_mean", "rows", "higher")
_layer("serve.scheduler.queue_wait_p50_ms", "ms")
_layer("serve.scheduler.queue_wait_p99_ms", "ms")
_layer("pipeline.engine.lane_submits_per_query", "ratio")
_layer("pipeline.engine.recall_iterations_mean", "count")
_layer("pipeline.engine.busy_s", "s")
_layer("pipeline.engine.self_s", "s")
_layer("py.import_s", "s")
_layer("host.calib_ms", "ms")
_layer("trace.spans", "count")
_layer("trace.overhead_pct", "%")


def _match(name: str, key: str) -> bool:
    if key.endswith(":"):
        return name.startswith(key)
    return name == key


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer,
    batch_sizes,
    queue_waits,
    extra: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric; layers a workload skips read 0.

    Args:
        tracer: The traced run's spans (worker spans merged).
        batch_sizes, queue_waits: ``batch_size`` and ``queue_s`` (in
            seconds) of the served workload's ``RunLog`` request
            records.
        extra: Figures measured outside the spans (GC, imports, host
            calibration, overhead, workload-specific ones); they win
            over the span-derived values.
    """
    spans = tracer.spans
    groups, names = summarize(spans)

    def busy(group: str) -> float:
        return groups.get(group, {}).get("busy_s", 0.0)

    def self_s(group: str) -> float:
        return groups.get(group, {}).get("self_s", 0.0)

    def calls(key: str) -> int:
        """Calls of one span name, or of a whole group (``"group:"``)."""
        return sum(v["calls"] for k, v in names.items() if _match(k, key))

    def units(key: str) -> int:
        return sum(v["units"] for k, v in names.items() if _match(k, key))

    m: dict[str, float] = {}
    m["fleet.router.submits_per_query"] = _ratio(
        calls("fleet.router:shard_submit"), calls("fleet.router:scatter")
    )
    m["fleet.router.scatter_busy_s"] = busy("fleet.router")
    m["fleet.router.scatter_self_s"] = self_s("fleet.router")
    m["xbar.tiling.reduce_calls"] = calls("xbar.tiling.reduce:")
    m["xbar.tiling.reduce_busy_s"] = busy("xbar.tiling.reduce")
    m["xbar.tiling.reduce_self_s"] = self_s("xbar.tiling.reduce")
    m["runtime.telemetry.records"] = calls("runtime.telemetry:record_request")
    m["runtime.telemetry.busy_s"] = busy("runtime.telemetry")
    m["runtime.telemetry.self_s"] = self_s("runtime.telemetry")
    for mode in ("ideal", "fixed_point", "nodal"):
        m[f"xbar.read.{mode}.calls"] = calls(f"xbar.read.{mode}:")
        m[f"xbar.read.{mode}.busy_s"] = busy(f"xbar.read.{mode}")
        m[f"xbar.read.{mode}.self_s"] = self_s(f"xbar.read.{mode}")
    reads = [f"xbar.read.{mode}:" for mode in ("ideal", "fixed_point", "nodal")]
    m["xbar.read.rows_per_call"] = _ratio(
        sum(units(r) for r in reads), sum(calls(r) for r in reads)
    )
    m["xbar.nodal.factorizations"] = calls("xbar.nodal.factor:")
    m["xbar.nodal.factor_busy_s"] = busy("xbar.nodal.factor")
    m["xbar.nodal.factor_self_s"] = self_s("xbar.nodal.factor")
    m["xbar.nodal.solve_busy_s"] = busy("xbar.nodal.solve")
    m["xbar.nodal.solve_self_s"] = self_s("xbar.nodal.solve")
    for core in ("vat", "self_tuning", "cld", "pretest", "amp", "program"):
        m[f"core.{core}.busy_s"] = busy(f"core.{core}")
        m[f"core.{core}.self_s"] = self_s(f"core.{core}")
    m["serve.health.remap_busy_s"] = busy("serve.health.remap")
    m["serve.health.remap_self_s"] = self_s("serve.health.remap")
    m["serve.health.repair_ms"] = 0.0
    m["serve.health.probe_replays"] = calls("serve.health.probe:")
    m["runtime.executor.calls"] = calls("runtime.executor:")
    m["runtime.executor.trials"] = units("runtime.executor:")
    m["runtime.executor.busy_s"] = busy("runtime.executor")
    m["runtime.executor.self_s"] = self_s("runtime.executor")
    for circuit in ("adc", "sense"):
        m[f"circuits.{circuit}.busy_s"] = busy(f"circuits.{circuit}")
        m[f"circuits.{circuit}.self_s"] = self_s(f"circuits.{circuit}")
    m["serve.engine.calls"] = calls("serve.engine:")
    m["serve.engine.rows_per_call"] = _ratio(
        units("serve.engine:"), calls("serve.engine:")
    )
    m["serve.engine.busy_s"] = busy("serve.engine")
    m["serve.engine.self_s"] = self_s("serve.engine")
    m.update(scheduler_metrics(batch_sizes, queue_waits))
    m["pipeline.engine.lane_submits_per_query"] = _ratio(
        calls("fleet.service:submit"), calls("pipeline.engine:submit")
    )
    m["pipeline.engine.recall_iterations_mean"] = 0.0
    m["pipeline.engine.busy_s"] = busy("pipeline.engine")
    m["pipeline.engine.self_s"] = self_s("pipeline.engine")
    m["trace.spans"] = len(spans)
    m.update(extra)
    return {name: float(m.get(name, 0.0)) for name in PER_LAYER}


def scheduler_metrics(batch_sizes, queue_waits) -> dict[str, float]:
    """Batching and queue wait, read from ``RunLog`` request records.

    A batch of ``b`` answered requests leaves ``b`` records that each
    carry ``batch_size == b``, so the batch count is the sum of
    ``1 / batch_size``.
    """
    if not len(batch_sizes):
        return {}
    sizes = np.asarray(batch_sizes, dtype=float)
    waits = np.asarray(queue_waits, dtype=float) * 1e3
    batches = float(np.sum(1.0 / sizes))
    return {
        "serve.scheduler.batches": round(batches),
        "serve.scheduler.batch_size_mean": len(sizes) / batches,
        "serve.scheduler.queue_wait_p50_ms": float(np.percentile(waits, 50)),
        "serve.scheduler.queue_wait_p99_ms": float(np.percentile(waits, 99)),
    }
