"""Command-line interface for the Vortex reproduction.

Usage::

    python -m repro report                 # regenerate the evaluation
    python -m repro report --experiments fig2 fig3
    python -m repro report --paper-scale --image-size 28
    python -m repro report --jobs 8 --cache-dir ~/.cache/repro
    python -m repro quickstart             # end-to-end Vortex demo
    python -m repro lint src               # determinism contract check
    python -m repro program --cache-dir C  # program + snapshot an array
    python -m repro serve --cache-dir C --artifact KEY --stdin
    python -m repro fleet program --cache-dir C --image-size 14
    python -m repro fleet serve --cache-dir C --fleet KEY --stdin
    python -m repro fleet status --cache-dir C --fleet KEY
    python -m repro cache stats --cache-dir C
    python -m repro cache prune --cache-dir C --max-size-mb 100

The report subcommand regenerates the paper's tables/figures at the
chosen scale and prints (or writes) the combined text report.
``--jobs`` fans Monte-Carlo trials out over worker processes without
changing a single number (the report text is byte-identical at any
worker count); ``--cache-dir`` persists experiment artifacts so
unchanged experiments are skipped on re-runs; a timing summary goes to
stderr and ``--run-log`` saves the full structured log as JSON.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.experiments.common import ExperimentScale
from repro.experiments.report import EXPERIMENT_RUNNERS, generate_report
from repro.lint.cli import add_lint_arguments, run_lint
from repro.runtime import RunLog, RuntimeConfig, use_run_log, use_runtime

__all__ = ["main", "build_parser"]


def _write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text, creating missing parent directories."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")


_IR_MODE_CHOICES = ("ideal", "reference", "fixed_point", "nodal")


def _add_programming_options(
    parser: argparse.ArgumentParser,
    image_size_default: int = 7,
    sigma_default: float = 0.3,
) -> None:
    """Options shared by ``repro program`` and ``repro fleet program``.

    Both subcommands build the same (dataset, training, fabric) recipe;
    only their geometry extras (redundancy vs. tile rows) differ, so
    the shared surface lives here and cannot drift apart.
    """
    parser.add_argument(
        "--cache-dir", type=str, required=True,
        help="artifact cache directory the snapshot is stored in",
    )
    parser.add_argument(
        "--image-size", type=int, choices=(7, 14, 28),
        default=image_size_default,
    )
    parser.add_argument("--n-train", type=int, default=300)
    parser.add_argument("--sigma", type=float, default=sigma_default)
    parser.add_argument("--r-wire", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--ir-mode", choices=_IR_MODE_CHOICES, default="ideal",
    )


def _add_serving_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``repro serve`` and ``repro fleet serve``."""
    io_mode = parser.add_mutually_exclusive_group(required=True)
    io_mode.add_argument(
        "--stdin", action="store_true",
        help="read one CSV feature vector per line, answer JSON lines",
    )
    io_mode.add_argument(
        "--port", type=int, default=None,
        help="serve HTTP on this port (POST /predict, GET /stats)",
    )
    parser.add_argument(
        "--ir-mode", choices=_IR_MODE_CHOICES, default=None,
        help="override the snapshot's read model",
    )
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--max-queue", type=int, default=128)
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-request deadline in milliseconds",
    )
    parser.add_argument("--drift-threshold", type=float, default=0.1)
    parser.add_argument("--check-every", type=int, default=5)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    import repro

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Vortex (DAC'15) reproduction: regenerate the paper's "
            "evaluation or run the end-to-end demo."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro.__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="regenerate the paper's tables and figures"
    )
    report.add_argument(
        "--experiments",
        nargs="+",
        choices=sorted(EXPERIMENT_RUNNERS),
        default=None,
        help="subset of experiments (default: all)",
    )
    report.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's sample counts (much slower)",
    )
    report.add_argument(
        "--image-size",
        type=int,
        choices=(7, 14, 28),
        default=14,
        help="benchmark resolution (28 = the paper's 784-row crossbar)",
    )
    report.add_argument(
        "--output",
        type=str,
        default=None,
        help="write the report to a file instead of stdout",
    )
    report.add_argument(
        "--seed", type=int, default=None, help="override the master seed"
    )
    report.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for Monte-Carlo fan-out (0 = one per "
            "CPU); results are bit-identical at any value"
        ),
    )
    report.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="persist experiment artifacts here and reuse them on re-runs",
    )
    report.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the artifact cache even when --cache-dir is set",
    )
    report.add_argument(
        "--run-log",
        type=str,
        default=None,
        help="write the structured telemetry run log to this JSON file",
    )

    quick = sub.add_parser(
        "quickstart", help="run the end-to-end Vortex pipeline demo"
    )
    quick.add_argument("--sigma", type=float, default=0.6)
    quick.add_argument("--image-size", type=int, choices=(7, 14, 28),
                       default=14)
    quick.add_argument("--seed", type=int, default=42)

    lint = sub.add_parser(
        "lint",
        help=(
            "check the determinism/picklability/cache contracts "
            "(rules REP001-REP005 and REP007-REP009, see docs/linting.md)"
        ),
    )
    add_lint_arguments(lint)

    program = sub.add_parser(
        "program",
        help=(
            "train, program and snapshot a crossbar into the artifact "
            "cache (prints the artifact key)"
        ),
    )
    _add_programming_options(program, image_size_default=7,
                             sigma_default=0.3)
    program.add_argument(
        "--scheme", choices=("vortex", "old", "cld"), default="vortex"
    )
    program.add_argument("--redundancy", type=int, default=8)

    serve = sub.add_parser(
        "serve",
        help="serve inference requests from a programmed-array artifact",
    )
    serve.add_argument(
        "--cache-dir", type=str, required=True,
        help="artifact cache directory holding the snapshot",
    )
    serve.add_argument(
        "--artifact", type=str, required=True,
        help="artifact key printed by `repro program`",
    )
    _add_serving_options(serve)

    fleet = sub.add_parser(
        "fleet",
        help=(
            "shard a large layer across tiles and serve it with "
            "replicated, drift-managed scatter-gather routing"
        ),
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fprogram = fleet_sub.add_parser(
        "program",
        help=(
            "train, shard-program and snapshot a fleet into the "
            "artifact cache (prints the fleet key)"
        ),
    )
    _add_programming_options(fprogram, image_size_default=14,
                             sigma_default=0.15)
    fprogram.add_argument(
        "--tile-rows", type=int, default=49,
        help="rows per shard (the last shard may be smaller)",
    )
    fprogram.add_argument("--n-probes", type=int, default=16)

    fserve = fleet_sub.add_parser(
        "serve", help="serve inference requests from a fleet snapshot"
    )
    fserve.add_argument(
        "--cache-dir", type=str, required=True,
        help="artifact cache directory holding the fleet",
    )
    fserve.add_argument(
        "--fleet", type=str, required=True,
        help="fleet key printed by `repro fleet program`",
    )
    fserve.add_argument(
        "--replicas", type=int, default=2,
        help="serving copies per shard",
    )
    _add_serving_options(fserve)

    fstatus = fleet_sub.add_parser(
        "status",
        help="print the per-shard replica inventory of a fleet snapshot",
    )
    fstatus.add_argument("--cache-dir", type=str, required=True)
    fstatus.add_argument("--fleet", type=str, required=True)
    fstatus.add_argument("--replicas", type=int, default=2)

    pipeline = sub.add_parser(
        "pipeline",
        help=(
            "program and serve multi-layer inference pipelines "
            "(MLP classification, BSB associative recall)"
        ),
    )
    pipeline_sub = pipeline.add_subparsers(
        dest="pipeline_command", required=True
    )

    pprogram = pipeline_sub.add_parser(
        "program",
        help=(
            "train, layer-program and snapshot a pipeline into the "
            "artifact cache (prints the pipeline key)"
        ),
    )
    _add_programming_options(pprogram, image_size_default=7,
                             sigma_default=0.15)
    pprogram.add_argument(
        "--kind", choices=("mlp", "bsb"), default="mlp",
        help="workload: two-layer classifier or associative recall",
    )
    pprogram.add_argument(
        "--hidden", type=int, default=32,
        help="MLP hidden-layer width",
    )
    pprogram.add_argument(
        "--epochs", type=int, default=200,
        help="MLP training epochs",
    )
    pprogram.add_argument(
        "--n-prototypes", type=int, default=4,
        help="stored BSB patterns (one per digit class)",
    )
    pprogram.add_argument(
        "--tile-rows", type=int, default=32,
        help="rows per shard in every layer's fleet",
    )
    pprogram.add_argument("--n-probes", type=int, default=16)

    pserve = pipeline_sub.add_parser(
        "serve", help="serve inference requests from a pipeline snapshot"
    )
    pserve.add_argument(
        "--cache-dir", type=str, required=True,
        help="artifact cache directory holding the pipeline",
    )
    pserve.add_argument(
        "--pipeline", type=str, required=True,
        help="pipeline key printed by `repro pipeline program`",
    )
    pserve.add_argument(
        "--replicas", type=int, default=1,
        help="serving copies per shard, in every layer",
    )
    _add_serving_options(pserve)

    peval = pipeline_sub.add_parser(
        "eval",
        help=(
            "evaluate a pipeline snapshot end to end: served accuracy "
            "(MLP) or recall success rate (BSB), checked bit-for-bit "
            "against the offline reference"
        ),
    )
    peval.add_argument("--cache-dir", type=str, required=True)
    peval.add_argument(
        "--pipeline", type=str, required=True,
        help="pipeline key printed by `repro pipeline program`",
    )
    peval.add_argument("--replicas", type=int, default=1)
    peval.add_argument(
        "--ir-mode", choices=_IR_MODE_CHOICES, default=None,
        help="override the snapshot's read model",
    )
    peval.add_argument(
        "--n-test", type=int, default=200,
        help="test queries served (MLP)",
    )
    peval.add_argument(
        "--flip-fraction", type=float, default=0.1,
        help="noise level of the BSB recall probes",
    )
    peval.add_argument(
        "--probes-per-prototype", type=int, default=8,
        help="noisy probes recalled per stored BSB pattern",
    )

    cache = sub.add_parser(
        "cache", help="inspect or prune the artifact cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser(
        "stats", help="print cache size and composition as JSON"
    )
    stats.add_argument("--cache-dir", type=str, required=True)
    prune = cache_sub.add_parser(
        "prune", help="evict oldest artifacts down to a size cap"
    )
    prune.add_argument("--cache-dir", type=str, required=True)
    prune.add_argument(
        "--max-size-mb", type=float, required=True,
        help="target cache size in megabytes",
    )
    return parser


def _run_report(args: argparse.Namespace) -> int:
    scale = (
        ExperimentScale.paper()
        if args.paper_scale
        else ExperimentScale.quick()
    )
    if args.seed is not None:
        import dataclasses

        scale = dataclasses.replace(scale, seed=args.seed)
    experiments = tuple(args.experiments) if args.experiments else None
    runtime = RuntimeConfig(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    log = RunLog()
    with use_runtime(runtime), use_run_log(log):
        text = generate_report(scale, args.image_size, experiments)
    if args.output:
        _write_text(args.output, text)
        print(f"report written to {args.output}")
    else:
        print(text)
    # Wall times are nondeterministic, so they go to stderr / JSON and
    # never into the report body.
    print(log.render_timing(), file=sys.stderr)
    if args.run_log:
        _write_text(args.run_log, log.to_json())
        print(f"run log written to {args.run_log}", file=sys.stderr)
    return 0


def _run_quickstart(args: argparse.Namespace) -> int:
    from repro import (
        CrossbarConfig,
        HardwareSpec,
        VariationConfig,
        WeightScaler,
        build_pair,
        make_dataset,
        run_vortex,
    )

    dataset = make_dataset(n_train=1500, n_test=800, seed=7)
    if args.image_size != 28:
        dataset = dataset.undersampled(args.image_size)
    spec = HardwareSpec(
        variation=VariationConfig(sigma=args.sigma),
        crossbar=CrossbarConfig(rows=dataset.n_features, cols=10,
                                r_wire=0.0),
    )
    rng = np.random.default_rng(args.seed)
    pair = build_pair(spec, WeightScaler(1.0), rng,
                      rows=dataset.n_features + 16)
    result = run_vortex(pair, dataset.x_train, dataset.y_train,
                        n_classes=10, rng=rng)
    print(f"pre-test sigma estimate : {result.sigma_pretest:.3f}")
    print(f"effective sigma post-AMP: {result.sigma_effective:.3f}")
    print(f"self-tuned gamma        : {result.gamma:.2f}")
    print(f"training rate (software): {result.training_rate:.3f}")
    rate = result.test_rate(pair, dataset.x_test, dataset.y_test)
    print(f"test rate (hardware)    : {rate:.3f}")
    return 0


def _run_program(args: argparse.Namespace) -> int:
    import json

    from repro.runtime.cache import ArtifactCache
    from repro.serve import (
        ProgramConfig,
        ProgrammedArray,
        artifact_key,
        program_array,
    )

    config = ProgramConfig(
        scheme=args.scheme,
        image_size=args.image_size,
        n_train=args.n_train,
        sigma=args.sigma,
        r_wire=args.r_wire,
        redundancy=args.redundancy,
        seed=args.seed,
        ir_mode=args.ir_mode,
    )
    cache = ArtifactCache(args.cache_dir)
    key = artifact_key(config)
    try:
        artifact = ProgrammedArray.load(cache, key)
        status = "cached"
    except KeyError:
        artifact = program_array(config)
        artifact.save(cache, key)
        status = "programmed"
    summary = {
        "key": key,
        "status": status,
        "scheme": artifact.scheme,
        "shape": list(artifact.g_pos.shape),
        "logical_rows": artifact.n_logical,
        "training_rate": artifact.metadata.get("training_rate"),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _service_options(
    args: argparse.Namespace, max_queue: int = 128
) -> dict:
    """Service keywords from the serving flags ``args`` carries.

    Subcommands without them (``fleet status``, ``pipeline eval``) get
    the service's own drift policy, a 32-query batch, ``max_queue``
    and no deadline.
    """
    from repro.serve import DriftPolicy

    policy = None
    if hasattr(args, "drift_threshold"):
        policy = DriftPolicy(
            threshold=args.drift_threshold,
            check_every=args.check_every,
        )
    deadline = getattr(args, "deadline_ms", None)
    return dict(
        ir_mode=getattr(args, "ir_mode", None),
        policy=policy,
        max_batch=getattr(args, "max_batch", 32),
        max_queue=getattr(args, "max_queue", max_queue),
        default_deadline_s=None if deadline is None else deadline / 1e3,
    )


def _serve(service, args: argparse.Namespace) -> int:
    """Answer queries on stdin or HTTP, then close the service."""
    with service:
        if args.stdin:
            return _serve_stdin(service)
        return _serve_http(service, args.port)


def _build_service(args: argparse.Namespace):
    from repro.runtime.cache import ArtifactCache
    from repro.serve import CrossbarService, ProgrammedArray

    artifact = ProgrammedArray.load(
        ArtifactCache(args.cache_dir), args.artifact
    )
    return CrossbarService(artifact, **_service_options(args))


def _serve_stdin(service) -> int:
    """One CSV feature vector per stdin line -> one JSON line out."""
    import json

    from repro.serve import DeadlineExceededError, ServeOverloadedError

    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            x = np.array(
                [float(v) for v in line.replace(",", " ").split()]
            )
            scores = service.predict(x)
        except ServeOverloadedError as exc:
            print(json.dumps(
                {"error": "overloaded",
                 "retry_after_s": exc.retry_after_s}
            ))
            continue
        except DeadlineExceededError:
            print(json.dumps({"error": "deadline_exceeded"}))
            continue
        except ValueError:
            # Unparseable, or not one query of the service's width.
            print(json.dumps({"error": "bad request"}))
            continue
        print(json.dumps({
            "prediction": int(np.argmax(scores)),
            "scores": [float(s) for s in scores],
        }))
    print(
        json.dumps(service.stats(), sort_keys=True), file=sys.stderr
    )
    return 0


def _http_server(service, port: int):
    """Minimal stdlib HTTP front end (POST /predict, GET /stats)."""
    import json
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    from repro.serve import DeadlineExceededError, ServeOverloadedError

    class Handler(BaseHTTPRequestHandler):
        def _send(self, code: int, payload: dict,
                  headers: dict | None = None) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            self._send(200, service.stats())

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            if self.path != "/predict":
                self._send(404, {"error": "not found"})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:
                    raise ValueError(f"Content-Length {length}")
                doc = json.loads(self.rfile.read(length))
                inputs = np.asarray(doc["inputs"], dtype=float)
            except (KeyError, TypeError, ValueError):
                self._send(400, {"error": "bad request"})
                return
            try:
                futures = [service.submit(x) for x in np.atleast_2d(inputs)]
                scores = [f.result() for f in futures]
            except ServeOverloadedError as exc:
                self._send(
                    503, {"error": "overloaded"},
                    {"Retry-After": f"{exc.retry_after_s:.3f}"},
                )
                return
            except DeadlineExceededError:
                self._send(504, {"error": "deadline_exceeded"})
                return
            except ValueError:
                # A query of the wrong width.
                self._send(400, {"error": "bad request"})
                return
            self._send(200, {
                "predictions": [int(np.argmax(s)) for s in scores],
            })

        def log_message(self, fmt: str, *log_args) -> None:
            print(f"serve: {fmt % log_args}", file=sys.stderr)

    return ThreadingHTTPServer(("127.0.0.1", port), Handler)


def _serve_http(service, port: int) -> int:
    server = _http_server(service, port)
    print(
        f"serving on http://127.0.0.1:{server.server_address[1]} "
        "(POST /predict, GET /stats; Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    return _serve(_build_service(args), args)


def _run_fleet_program(args: argparse.Namespace) -> int:
    import json

    from repro.core.old import train_old
    from repro.data import make_dataset
    from repro.fleet import (
        FleetConfig,
        ProgrammedFleet,
        fleet_key,
        program_fleet,
    )
    from repro.runtime.cache import ArtifactCache

    dataset = make_dataset(
        n_train=args.n_train, n_test=64, seed=args.seed
    )
    if args.image_size != 28:
        dataset = dataset.undersampled(args.image_size)
    outcome = train_old(dataset.x_train, dataset.y_train, n_classes=10)
    config = FleetConfig(
        n_rows=dataset.n_features,
        cols=10,
        tile_rows=args.tile_rows,
        sigma=args.sigma,
        r_wire=args.r_wire,
        seed=args.seed,
        ir_mode=args.ir_mode,
        n_probes=args.n_probes,
    )
    cache = ArtifactCache(args.cache_dir)
    key = fleet_key(config, outcome.weights)
    try:
        fleet = ProgrammedFleet.load(cache, key)
        status = "cached"
    except KeyError:
        fleet = program_fleet(
            config, outcome.weights, probes=dataset.x_train[: args.n_probes]
        )
        fleet.save(cache, key)
        status = "programmed"
    print(json.dumps({
        "key": key,
        "status": status,
        "n_shards": fleet.n_shards,
        "shape": list(fleet.shape),
        "tile_rows": config.tile_rows,
        "training_rate": outcome.training_rate,
    }, indent=2, sort_keys=True))
    return 0


def _build_fleet_service(args: argparse.Namespace):
    from repro.fleet import FleetService, ProgrammedFleet
    from repro.runtime.cache import ArtifactCache

    fleet = ProgrammedFleet.load(ArtifactCache(args.cache_dir), args.fleet)
    return FleetService(
        fleet, replicas=args.replicas, **_service_options(args)
    )


def _run_fleet(args: argparse.Namespace) -> int:
    import json

    if args.fleet_command == "program":
        return _run_fleet_program(args)
    service = _build_fleet_service(args)
    if args.fleet_command == "serve":
        return _serve(service, args)
    with service:
        print(json.dumps(service.status(), indent=2, sort_keys=True))
    return 0


def _run_pipeline_program(args: argparse.Namespace) -> int:
    import json

    from repro.pipeline import (
        PipelineArtifact,
        PipelineConfig,
        pipeline_key,
        program_pipeline,
    )
    from repro.runtime.cache import ArtifactCache

    config = PipelineConfig(
        kind=args.kind,
        image_size=args.image_size,
        n_train=args.n_train,
        hidden=args.hidden,
        epochs=args.epochs,
        n_prototypes=args.n_prototypes,
        sigma=args.sigma,
        r_wire=args.r_wire,
        tile_rows=args.tile_rows,
        seed=args.seed,
        ir_mode=args.ir_mode,
        n_probes=args.n_probes,
    )
    cache = ArtifactCache(args.cache_dir)
    key = pipeline_key(config)
    try:
        artifact = PipelineArtifact.load(cache, key)
        status = "cached"
    except KeyError:
        artifact = program_pipeline(config, cache=cache)
        status = "programmed"
    print(json.dumps({
        "key": key,
        "status": status,
        "kind": config.kind,
        "n_layers": artifact.n_layers,
        "shapes": [list(shape) for shape in artifact.shapes],
        "scales": artifact.scales,
        "hidden_gain": artifact.hidden_gain,
        "ir_mode": config.ir_mode,
    }, indent=2, sort_keys=True))
    return 0


def _build_pipeline_service(args: argparse.Namespace):
    from repro.pipeline import PipelineArtifact, PipelineService
    from repro.runtime.cache import ArtifactCache

    artifact = PipelineArtifact.load(
        ArtifactCache(args.cache_dir), args.pipeline
    )
    return PipelineService(
        artifact,
        replicas=args.replicas,
        **_service_options(args, max_queue=256),
    )


def _run_pipeline_eval(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.nn.bsb import noisy_probe
    from repro.pipeline import offline_engine

    with _build_pipeline_service(args) as service:
        artifact = service.artifact
        config = artifact.config
        reference = offline_engine(artifact, ir_mode=args.ir_mode)
        dataset = config.dataset()
        if config.kind == "mlp":
            x = dataset.x_test[: args.n_test]
            y = dataset.y_test[: args.n_test]
            start = time.perf_counter()
            served = service.forward(x, timeout=120.0)
            elapsed = time.perf_counter() - start
            offline = reference.forward(x)
            weights = artifact.mlp_weights()
            result = {
                "kind": "mlp",
                "n_test": int(len(y)),
                "accuracy": float(
                    np.mean(np.argmax(served, axis=1) == y)
                ),
                "software_accuracy": weights.accuracy(x, y),
                "bit_identical": bool(np.array_equal(served, offline)),
                "queries_per_second": (
                    len(y) / elapsed if elapsed > 0 else 0.0
                ),
            }
        else:
            protos = artifact.prototypes
            rng = np.random.default_rng(config.seed + 1)
            probes = np.stack([
                noisy_probe(p, args.flip_fraction, rng)
                for p in protos
                for _ in range(args.probes_per_prototype)
            ])
            sources = np.repeat(
                np.arange(protos.shape[0]), args.probes_per_prototype
            )
            start = time.perf_counter()
            served = service.forward(probes, timeout=300.0)
            elapsed = time.perf_counter() - start
            offline = reference.forward(probes)
            signs = np.sign(served)
            agreements = (
                signs[:, None, :] == protos[None, :, :]
            ).mean(axis=2)
            own = agreements[np.arange(len(probes)), sources]
            hits = (own >= 0.95) & (
                own >= agreements.max(axis=1) - 1e-12
            )
            result = {
                "kind": "bsb",
                "n_probes": int(len(probes)),
                "flip_fraction": args.flip_fraction,
                "recall_success_rate": float(np.mean(hits)),
                "bit_identical": bool(np.array_equal(served, offline)),
                "recall": service.engine.recall_stats(),
                "probes_per_second": (
                    len(probes) / elapsed if elapsed > 0 else 0.0
                ),
            }
        result["ir_mode"] = (
            args.ir_mode if args.ir_mode is not None else config.ir_mode
        )
        result["deadline_misses"] = service.status()["deadline_misses"]
        print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _run_pipeline(args: argparse.Namespace) -> int:
    if args.pipeline_command == "program":
        return _run_pipeline_program(args)
    if args.pipeline_command == "eval":
        return _run_pipeline_eval(args)
    return _serve(_build_pipeline_service(args), args)


def _run_cache(args: argparse.Namespace) -> int:
    import json

    from repro.runtime.cache import ArtifactCache

    cache = ArtifactCache(args.cache_dir)
    if args.cache_command == "stats":
        result = cache.stats()
    else:
        result = cache.prune(args.max_size_mb)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return _run_report(args)
    if args.command == "quickstart":
        return _run_quickstart(args)
    if args.command == "lint":
        return run_lint(args)
    if args.command == "program":
        return _run_program(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "fleet":
        return _run_fleet(args)
    if args.command == "pipeline":
        return _run_pipeline(args)
    if args.command == "cache":
        return _run_cache(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
