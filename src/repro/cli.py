"""Command-line interface for the Vortex reproduction.

Usage::

    python -m repro report                 # regenerate the evaluation
    python -m repro report --experiments fig2 fig3
    python -m repro report --paper-scale --image-size 28
    python -m repro report --jobs 8 --cache-dir ~/.cache/repro
    python -m repro quickstart             # end-to-end Vortex demo
    python -m repro program --cache-dir C  # program + snapshot an array
    python -m repro fleet program --cache-dir C --image-size 14
    python -m repro pipeline program --cache-dir C --kind bsb
    python -m repro serve --cache-dir C --artifact KEY --stdin
    python -m repro status --cache-dir C --artifact KEY
    python -m repro pipeline eval --cache-dir C --artifact KEY
    python -m repro cache stats --cache-dir C
    python -m repro cache prune --cache-dir C --max-size-mb 100

The report subcommand regenerates the paper's tables/figures at the
chosen scale and prints (or writes) the combined text report.
``--jobs`` fans Monte-Carlo trials out over worker processes without
changing a single number (the report text is byte-identical at any
worker count); ``--cache-dir`` persists experiment artifacts so
unchanged experiments are skipped on re-runs; a timing summary goes to
stderr and ``--run-log`` saves the full structured log as JSON.

The three ``program`` commands store a snapshot and print its key.
``serve`` and ``status`` open any snapshot by its stored manifest: a
single array, a sharded fleet (``--replicas`` copies) or a
multi-layer pipeline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.experiments.common import ExperimentScale
from repro.experiments.report import EXPERIMENT_RUNNERS, generate_report
from repro.runtime import RunLog, RuntimeConfig, use_run_log, use_runtime
from repro.runtime.cache import ArtifactCache
from repro.xbar.crossbar import IR_MODES, validate_ir_mode

__all__ = ["main", "build_parser"]


def _write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text, creating missing parent directories."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")


def _ir_mode(value: str) -> str:
    """``--ir-mode`` type: the shared read-mode check as a usage error."""
    try:
        return validate_ir_mode(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_programming_options(
    parser: argparse.ArgumentParser,
    image_size_default: int = 7,
    sigma_default: float = 0.3,
) -> None:
    """Options shared by the three ``program`` commands.

    All three build the same (dataset, training, fabric) recipe; only
    their extras (scheme and redundancy, tile rows, pipeline workload)
    differ, so the shared surface lives here and cannot drift apart.
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
        "--ir-mode", type=_ir_mode, choices=IR_MODES, default="ideal",
    )


def _add_snapshot_options(parser: argparse.ArgumentParser) -> None:
    """The snapshot a serving command opens, and its replica count."""
    parser.add_argument(
        "--cache-dir", type=str, required=True,
        help="artifact cache directory holding the snapshot",
    )
    parser.add_argument(
        "--artifact", type=str, required=True,
        help="snapshot key printed by a `program` command",
    )
    parser.add_argument(
        "--replicas", type=int, default=None,
        help=(
            "serving copies of a fleet or pipeline snapshot's layers "
            "(default: the service's own)"
        ),
    )


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
        "--experiments", nargs="+", choices=sorted(EXPERIMENT_RUNNERS),
        default=None, help="subset of experiments (default: all)",
    )
    report.add_argument(
        "--paper-scale", action="store_true",
        help="use the paper's sample counts (much slower)",
    )
    report.add_argument(
        "--image-size", type=int, choices=(7, 14, 28), default=14,
        help="benchmark resolution (28 = the paper's 784-row crossbar)",
    )
    report.add_argument(
        "--output", type=str, default=None,
        help="write the report to a file instead of stdout",
    )
    report.add_argument(
        "--seed", type=int, default=None, help="override the master seed"
    )
    report.add_argument(
        "--jobs", type=int, default=1,
        help=(
            "worker processes for Monte-Carlo fan-out (0 = one per "
            "CPU); results are bit-identical at any value"
        ),
    )
    report.add_argument(
        "--cache-dir", type=str, default=None,
        help="persist experiment artifacts here and reuse them on re-runs",
    )
    report.add_argument(
        "--no-cache", action="store_true",
        help="ignore the artifact cache even when --cache-dir is set",
    )
    report.add_argument(
        "--run-log", type=str, default=None,
        help="write the structured telemetry run log to this JSON file",
    )
    report.set_defaults(run=_run_report)

    quick = sub.add_parser(
        "quickstart", help="run the end-to-end Vortex pipeline demo"
    )
    quick.add_argument("--sigma", type=float, default=0.6)
    quick.add_argument("--image-size", type=int, choices=(7, 14, 28),
                       default=14)
    quick.add_argument("--seed", type=int, default=42)
    quick.set_defaults(run=_run_quickstart)

    program = sub.add_parser(
        "program", help="train, program and snapshot a crossbar (prints its key)"
    )
    _add_programming_options(program, image_size_default=7,
                             sigma_default=0.3)
    program.add_argument(
        "--scheme", choices=("vortex", "old", "cld"), default="vortex"
    )
    program.add_argument("--redundancy", type=int, default=8)
    program.set_defaults(run=_run_program)

    serve = sub.add_parser(
        "serve", help="serve queries from any snapshot: array, fleet or pipeline"
    )
    _add_snapshot_options(serve)
    io_mode = serve.add_mutually_exclusive_group(required=True)
    io_mode.add_argument(
        "--stdin", action="store_true",
        help="read one CSV feature vector per line, answer JSON lines",
    )
    io_mode.add_argument(
        "--port", type=int, default=None,
        help="serve HTTP on this port (POST /predict, GET /stats)",
    )
    serve.add_argument(
        "--ir-mode", type=_ir_mode, choices=IR_MODES, default=None,
        help="override the snapshot's read model",
    )
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument("--max-queue", type=int, default=128)
    serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-request deadline in milliseconds",
    )
    serve.add_argument("--drift-threshold", type=float, default=0.1)
    serve.add_argument("--check-every", type=int, default=5)
    serve.set_defaults(run=_run_serve)

    status = sub.add_parser(
        "status", help="print the hardware inventory of any snapshot"
    )
    _add_snapshot_options(status)
    status.set_defaults(run=_run_status)

    fleet = sub.add_parser(
        "fleet", help="shard a large layer across tiles for replicated serving"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fprogram = fleet_sub.add_parser(
        "program", help="train, shard-program and snapshot a fleet (prints its key)"
    )
    _add_programming_options(fprogram, image_size_default=14,
                             sigma_default=0.15)
    fprogram.add_argument(
        "--tile-rows", type=int, default=49,
        help="rows per shard (the last shard may be smaller)",
    )
    fprogram.add_argument("--n-probes", type=int, default=16)
    fprogram.set_defaults(run=_run_fleet_program)

    pipeline = sub.add_parser(
        "pipeline", help="program and evaluate multi-layer pipelines (MLP, BSB)"
    )
    pipeline_sub = pipeline.add_subparsers(dest="pipeline_command", required=True)

    pprogram = pipeline_sub.add_parser(
        "program", help="train, layer-program and snapshot a pipeline (prints its key)"
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
    pprogram.set_defaults(run=_run_pipeline_program)

    peval = pipeline_sub.add_parser(
        "eval",
        help=(
            "evaluate a pipeline snapshot end to end: served accuracy "
            "(MLP) or recall success rate (BSB), checked bit-for-bit "
            "against the offline reference"
        ),
    )
    _add_snapshot_options(peval)
    peval.add_argument(
        "--ir-mode", type=_ir_mode, choices=IR_MODES, default=None,
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
    peval.set_defaults(run=_run_pipeline_eval)

    cache = sub.add_parser(
        "cache", help="inspect or prune the artifact cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser(
        "stats", help="print cache size and composition as JSON"
    )
    stats.add_argument("--cache-dir", type=str, required=True)
    stats.set_defaults(run=_run_cache)
    prune = cache_sub.add_parser(
        "prune", help="evict oldest artifacts down to a size cap"
    )
    prune.add_argument("--cache-dir", type=str, required=True)
    prune.add_argument(
        "--max-size-mb", type=float, required=True,
        help="target cache size in megabytes",
    )
    prune.set_defaults(run=_run_cache)
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


class _UsageError(Exception):
    """A command line that names something it cannot use (exit 2)."""


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _recipe(args: argparse.Namespace) -> dict:
    """The shared programming options, as config keywords."""
    return dict(
        image_size=args.image_size, n_train=args.n_train, sigma=args.sigma,
        r_wire=args.r_wire, seed=args.seed, ir_mode=args.ir_mode,
    )


def _load_or_program(cache, key: str, snapshot_type, program):
    """The snapshot stored under ``key``; programmed and stored if absent.

    Returns the snapshot and ``"cached"`` or ``"programmed"``.
    """
    try:
        return snapshot_type.load(cache, key), "cached"
    except KeyError:
        snapshot = program()
        snapshot.save(cache, key)
        return snapshot, "programmed"


def _run_program(args: argparse.Namespace) -> int:
    from repro.serve import (
        ProgramConfig,
        ProgrammedArray,
        artifact_key,
        program_array,
    )

    config = ProgramConfig(
        scheme=args.scheme, redundancy=args.redundancy, **_recipe(args)
    )
    key = artifact_key(config)
    artifact, status = _load_or_program(
        ArtifactCache(args.cache_dir), key, ProgrammedArray,
        lambda: program_array(config),
    )
    _print_json({
        "key": key,
        "status": status,
        "scheme": artifact.scheme,
        "shape": list(artifact.g_pos.shape),
        "logical_rows": artifact.n_logical,
        "training_rate": artifact.metadata.get("training_rate"),
    })
    return 0


def _run_fleet_program(args: argparse.Namespace) -> int:
    from repro.core.old import train_old
    from repro.data import make_dataset
    from repro.fleet import (
        FleetConfig,
        ProgrammedFleet,
        fleet_key,
        program_fleet,
    )

    dataset = make_dataset(n_train=args.n_train, n_test=64, seed=args.seed)
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
    key = fleet_key(config, outcome.weights)
    fleet, status = _load_or_program(
        ArtifactCache(args.cache_dir), key, ProgrammedFleet,
        lambda: program_fleet(
            config, outcome.weights, probes=dataset.x_train[: args.n_probes]
        ),
    )
    _print_json({
        "key": key,
        "status": status,
        "n_shards": fleet.n_shards,
        "shape": list(fleet.shape),
        "tile_rows": config.tile_rows,
        "training_rate": outcome.training_rate,
    })
    return 0


def _run_pipeline_program(args: argparse.Namespace) -> int:
    from repro.pipeline import (
        PipelineArtifact,
        PipelineConfig,
        pipeline_key,
        program_pipeline,
    )

    config = PipelineConfig(
        kind=args.kind,
        hidden=args.hidden,
        epochs=args.epochs,
        n_prototypes=args.n_prototypes,
        tile_rows=args.tile_rows,
        n_probes=args.n_probes,
        **_recipe(args),
    )
    cache = ArtifactCache(args.cache_dir)
    key = pipeline_key(config)
    # program_pipeline memoises the trained software weights in the
    # cache and stores the artifact itself; the second save rewrites it.
    artifact, status = _load_or_program(
        cache, key, PipelineArtifact,
        lambda: program_pipeline(config, cache=cache),
    )
    _print_json({
        "key": key,
        "status": status,
        "kind": config.kind,
        "n_layers": artifact.n_layers,
        "shapes": [list(shape) for shape in artifact.shapes],
        "scales": artifact.scales,
        "hidden_gain": artifact.hidden_gain,
        "ir_mode": config.ir_mode,
    })
    return 0


def _service_options(args: argparse.Namespace) -> dict:
    """Service keywords from the serving flags ``args`` carries.

    A flag the subcommand does not have (``status`` and ``pipeline
    eval`` have few) or left unset leaves the service's own default.
    """
    from repro.serve import DriftPolicy

    options = {
        name: getattr(args, name)
        for name in ("replicas", "ir_mode", "max_batch", "max_queue")
        if getattr(args, name, None) is not None
    }
    if hasattr(args, "drift_threshold"):
        options["policy"] = DriftPolicy(
            threshold=args.drift_threshold,
            check_every=args.check_every,
        )
    if getattr(args, "deadline_ms", None) is not None:
        options["default_deadline_s"] = args.deadline_ms / 1e3
    return options


def _load_snapshot(snapshot_type, cache, key: str):
    """``snapshot_type.load``, with a missing snapshot a usage error."""
    try:
        return snapshot_type.load(cache, key)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None


def _open_service(args: argparse.Namespace):
    """The service for ``--artifact``, chosen by its stored manifest.

    A ``"fleet_manifest"`` opens as a :class:`FleetService`, a
    ``"pipeline_manifest"`` as a :class:`PipelineService`, and a
    snapshot without a ``kind`` (one programmed array) as a
    :class:`CrossbarService`.
    """
    from repro.fleet import FleetService, ProgrammedFleet
    from repro.pipeline import PipelineArtifact, PipelineService
    from repro.serve import CrossbarService, ProgrammedArray

    cache = ArtifactCache(args.cache_dir)
    doc = cache.get_json(args.artifact)
    if not isinstance(doc, dict):
        raise _UsageError(
            f"no snapshot under key {args.artifact!r} in {args.cache_dir}"
        )
    snapshot_type, service_type = {
        "fleet_manifest": (ProgrammedFleet, FleetService),
        "pipeline_manifest": (PipelineArtifact, PipelineService),
    }.get(doc.get("kind"), (ProgrammedArray, CrossbarService))
    options = _service_options(args)
    if service_type is CrossbarService and "replicas" in options:
        raise _UsageError(
            "--replicas needs a fleet or pipeline snapshot; "
            f"{args.artifact!r} is a single programmed array"
        )
    snapshot = _load_snapshot(snapshot_type, cache, args.artifact)
    return service_type(snapshot, **options)


def _run_serve(args: argparse.Namespace) -> int:
    """Answer queries on stdin or HTTP, then close the service."""
    with _open_service(args) as service:
        if args.stdin:
            return _serve_stdin(service)
        return _serve_http(service, args.port)


def _run_status(args: argparse.Namespace) -> int:
    with _open_service(args) as service:
        _print_json(service.status())
    return 0


def _refusal(exc: Exception) -> tuple[int, dict, dict] | None:
    """The answer to a query the service refused, or ``None``.

    Returns the HTTP status, the JSON body (all a stdin answer prints)
    and the extra HTTP headers.  ``None`` means ``exc`` is not a
    refusal and must propagate.  Every refusal is a ``ValueError`` (a
    malformed query) or a ``RuntimeError`` subclass.
    """
    from repro.fleet import NoLiveReplicaError
    from repro.serve import (
        DeadlineExceededError,
        ReplicaDeadError,
        ServeOverloadedError,
    )

    if isinstance(exc, ServeOverloadedError):
        retry = exc.retry_after_s
        return (
            503,
            {"error": "overloaded", "retry_after_s": retry},
            {"Retry-After": f"{retry:.3f}"},
        )
    if isinstance(exc, DeadlineExceededError):
        return 504, {"error": "deadline_exceeded"}, {}
    if isinstance(exc, (ReplicaDeadError, NoLiveReplicaError)):
        return 503, {"error": "unavailable"}, {}
    if isinstance(exc, ValueError):
        # Unparseable, or not one query of the service's width.
        return 400, {"error": "bad request"}, {}
    return None


def _serve_stdin(service) -> int:
    """One CSV feature vector per stdin line -> one JSON line out."""
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            x = np.array(
                [float(v) for v in line.replace(",", " ").split()]
            )
            scores = service.predict(x)
        except (RuntimeError, ValueError) as exc:
            refusal = _refusal(exc)
            if refusal is None:
                raise
            print(json.dumps(refusal[1]))
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
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

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
            except (RuntimeError, ValueError) as exc:
                refusal = _refusal(exc)
                if refusal is None:
                    raise
                self._send(*refusal)
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


def _run_pipeline_eval(args: argparse.Namespace) -> int:
    import time

    from repro.nn.bsb import noisy_probes, recalled
    from repro.pipeline import (
        PipelineArtifact,
        PipelineService,
        offline_engine,
    )

    artifact = _load_snapshot(
        PipelineArtifact, ArtifactCache(args.cache_dir), args.artifact
    )
    config = artifact.config
    if config.kind == "mlp":
        dataset = config.dataset()
        x = dataset.x_test[: args.n_test]
        y = dataset.y_test[: args.n_test]
    else:
        x, sources = noisy_probes(
            artifact.prototypes, args.flip_fraction,
            np.random.default_rng(config.seed + 1),
            args.probes_per_prototype,
        )
    with PipelineService(artifact, **_service_options(args)) as service:
        start = time.perf_counter()
        served = service.forward(x, timeout=300.0)
        elapsed = time.perf_counter() - start
        rate = len(x) / elapsed if elapsed > 0 else 0.0
        offline = offline_engine(artifact, ir_mode=args.ir_mode).forward(x)
        result = {
            "kind": config.kind,
            "bit_identical": bool(np.array_equal(served, offline)),
            "ir_mode": service.ir_mode,
            "deadline_misses": service.status()["deadline_misses"],
        }
        if config.kind == "mlp":
            result.update({
                "n_test": int(len(y)),
                "accuracy": float(
                    np.mean(np.argmax(served, axis=1) == y)
                ),
                "software_accuracy": artifact.mlp_weights().accuracy(x, y),
                "queries_per_second": rate,
            })
        else:
            result.update({
                "n_probes": int(len(x)),
                "flip_fraction": args.flip_fraction,
                "recall_success_rate": float(np.mean(
                    recalled(served, artifact.prototypes, sources)
                )),
                "recall": service.engine.recall_stats(),
                "probes_per_second": rate,
            })
    _print_json(result)
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    cache = ArtifactCache(args.cache_dir)
    if args.cache_command == "stats":
        _print_json(cache.stats())
    else:
        _print_json(cache.prune(args.max_size_mb))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
