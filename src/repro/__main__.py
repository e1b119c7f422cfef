"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro list                       # every paper artifact id
    python -m repro table1 --preset quick      # Table I rows
    python -m repro fig8 --seed 1              # backward-time study, seed 1
    python -m repro table4 --methods equal,mocograd
    python -m repro table1 --telemetry out.jsonl   # stream telemetry events
    python -m repro report out.jsonl               # pretty-print a saved run
    python -m repro serve --requests 512 --clients 8     # micro-batched inference demo

Flight recorder (see DESIGN.md, "Flight recorder")::

    python -m repro train --balancer mocograd --steps 200 \
        --profile trace.json --record-dynamics --telemetry run.jsonl
    python -m repro report run.jsonl --dynamics    # per-step GCD/λ sparklines
    python -m repro report run.jsonl --ops         # per-op forward/backward cost
    # open https://ui.perfetto.dev (or chrome://tracing) and load trace.json

Every artifact id runs its :data:`repro.experiments.REGISTRY` module,
the same code the benchmark harness runs to write
``benchmarks/results/<id>.txt``.  ``--preset`` and ``--seed`` reach every
artifact; ``--methods`` is accepted only by artifacts that compare
methods (tables, Fig. 5, 6, 8 and the conflict-stress ablation).
``--telemetry PATH`` installs a process-wide JSONL sink: every trainer
created during the run streams its tracing spans and metric snapshots
into it (schema in DESIGN.md, "Observability").
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import sys
import time

from . import obs
from .experiments import REGISTRY


def _run_artifact(identifier: str, **kwargs) -> str:
    """Run one registered paper artifact and render it as text."""
    module, _ = REGISTRY[identifier]
    return module.format_result(module.run(**kwargs))


def _run_serve(args) -> str:
    """Serving demo: micro-batched multi-scenario inference, instrumented."""
    import threading

    import numpy as np

    from .obs import Telemetry
    from .serve import ModelRegistry, Server, model_spec, save_model

    registry = ModelRegistry()
    scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    if not scenarios:
        raise SystemExit("--scenarios must name at least one scenario")
    if args.checkpoint:
        model = registry.load(args.checkpoint, name="served")
        spec = registry.spec("served")
        in_features = int(spec.get("config", {}).get("in_features", args.features))
    else:
        spec = model_spec(
            "mlp",
            architecture=args.arch,
            in_features=args.features,
            hidden=[32, 32],
            tasks=[f"task{i}" for i in range(args.tasks)],
            seed=args.seed,
        )
        model = registry.build(spec)
        in_features = args.features
        if args.save_checkpoint:
            path = save_model(model, args.save_checkpoint, spec)
            print(f"saved self-describing checkpoint to {path}")

    telemetry = Telemetry()
    rng = np.random.default_rng(args.seed)
    requests = [
        (rng.standard_normal((args.rows, in_features)), scenarios[i % len(scenarios)])
        for i in range(args.requests)
    ]
    config = {"max_batch_size": args.max_batch_size, "max_wait_ms": args.max_wait_ms}
    with Server({s: model for s in scenarios}, config, telemetry) as server:
        futures = [None] * len(requests)

        def client(start: int) -> None:
            for i in range(start, len(requests), args.clients):
                rows, scenario = requests[i]
                futures[i] = server.submit(rows, scenario)

        begin = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(t,)) for t in range(args.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for future in futures:
            future.result()
        elapsed = time.perf_counter() - begin
        stats = server.stats()

    total_rows = args.requests * args.rows
    lines = [
        f"served {args.requests} requests × {args.rows} rows "
        f"({len(scenarios)} scenarios, {args.clients} clients) in {elapsed * 1000.0:.1f} ms "
        f"— {total_rows / elapsed:,.0f} rows/s",
        f"batches: {stats['batches']['count']} "
        f"(mean {stats['batches']['mean_rows']:.1f} rows, "
        f"p99 {stats['batches']['p99_rows']:.0f})",
    ]
    for scenario, digest in stats["scenarios"].items():
        lines.append(
            f"  {scenario}: {digest['requests']} requests, "
            f"p50 ≤ {digest['p50_seconds'] * 1000.0:g} ms, "
            f"p99 ≤ {digest['p99_seconds'] * 1000.0:g} ms"
        )
    return "\n".join(lines)


def _run_train(args) -> str:
    """Flight-recorder demo run: synthetic MTL training, fully instrumented."""
    import resource

    from .core.balancer import available_balancers
    from .data import make_synthetic_mtl, make_synthetic_stream
    from .nn import OpProfile
    from .training import RunSpec, build_trainer

    if args.balancer not in available_balancers():
        raise SystemExit(
            f"unknown balancer {args.balancer!r}; available: {available_balancers()}"
        )
    # 80 samples/step: batch 64 over the ~80% train split, so one epoch
    # holds at least --steps batches.
    workload = dict(
        num_tasks=args.tasks,
        # Conflicting tasks (negative cosine) so there are dynamics worth
        # recording, clamped to the K-task feasibility bound.
        pairwise_cosine=max(-0.2, -0.9 / max(args.tasks - 1, 1)),
        seed=args.seed,
    )
    if args.streaming:
        benchmark = make_synthetic_stream(
            num_samples=max(64 * args.steps, 512),
            chunk_size=args.chunk_size,
            cache=args.cache_dir,
            **workload,
        )
    else:
        benchmark = make_synthetic_mtl(num_samples=max(80 * args.steps, 512), **workload)
    spec = RunSpec(
        method=args.balancer,
        grad_space=args.grad_space,
        epochs=1,
        batch_size=64,
        max_steps_per_epoch=args.steps,
        seed=args.seed,
    )
    trainer = build_trainer(
        benchmark, spec, profile=args.profile, record_dynamics=args.record_dynamics
    )
    # The flight recorder also profiles the engine op by op.
    ops = OpProfile() if args.profile else contextlib.nullcontext()
    with ops:
        trainer.fit(
            benchmark.train,
            spec.epochs,
            spec.batch_size,
            max_steps_per_epoch=spec.max_steps_per_epoch,
        )
    if args.profile:
        trainer.telemetry.emit({"type": "ops", "tid": trainer.telemetry.id, **ops.to_dict()})
    # The whole process's high-water mark, read once at the end of the run
    # (``ru_maxrss`` is in KiB on Linux, bytes on macOS).
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_rss_mb = peak_rss / (1024.0 * (1024.0 if sys.platform == "darwin" else 1.0))
    trainer.telemetry.gauge("process_peak_rss_mb").set(peak_rss_mb)
    trainer.telemetry.flush()
    lines = [
        f"trained {args.balancer} on {benchmark.name} — "
        f"{trainer.step_count} steps, K={args.tasks}",
        "final losses: "
        + ", ".join(
            f"{task.name}={loss:.4f}"
            for task, loss in zip(trainer.tasks, trainer.history.step_losses[-1])
        ),
        f"peak RSS: {peak_rss_mb:.1f} MiB",
    ]
    if args.streaming:
        telemetry = trainer.telemetry
        cache_hits = telemetry.counter("stream_cache_hits_total").value
        cache_misses = telemetry.counter("stream_cache_misses_total").value
        reused = telemetry.counter("stream_shard_reuse_total").value
        lines.append(
            f"streaming: chunk={args.chunk_size}, "
            f"cache hits={int(cache_hits)} misses={int(cache_misses)}, "
            f"shards reused={int(reused)}"
            + (f" (dir {args.cache_dir})" if args.cache_dir else "")
        )
    if trainer.profiler is not None:
        lines += ["", trainer.profiler.format_self_times(), "", obs.format_ops(ops.to_dict())]
        if args.profile:
            lines.append(
                f"\nwrote Chrome trace to {args.profile} — load it in "
                "chrome://tracing or https://ui.perfetto.dev"
            )
    if trainer.recorder is not None:
        recorder = trainer.recorder
        lines.append(
            f"recorded {len(recorder)} dynamics samples "
            f"({recorder.mode}, capacity {recorder.capacity}, seen {recorder.seen})"
        )
        if args.telemetry:
            lines.append(
                f"render them with: python -m repro report {args.telemetry} --dynamics"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of the MoCoGrad paper.",
    )
    parser.add_argument(
        "experiment", choices=list(REGISTRY) + ["list", "report", "serve", "train"]
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="telemetry JSONL file (required by the `report` subcommand)",
    )
    parser.add_argument("--preset", default="quick", choices=("quick", "full"))
    parser.add_argument(
        "--methods",
        default=None,
        help="comma-separated balancer names (default: the artifact's method list; "
        "only for artifacts that compare methods)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="RNG seed (artifacts, train, serve)"
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="stream telemetry events (spans, metrics) to this JSONL file",
    )
    parser.add_argument(
        "--dynamics",
        action="store_true",
        help="report: render per-step conflict-dynamics sparklines instead "
        "of the timing/conflict digest",
    )
    parser.add_argument(
        "--ops",
        action="store_true",
        help="report: render the per-op engine profile (calls, ms, bytes per "
        "autograd op) a --profile run records",
    )
    train = parser.add_argument_group("train subcommand (flight-recorder demo)")
    train.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="train: export a Chrome trace_event JSON timeline to PATH and "
        "record the per-op engine profile (render it with report --ops)",
    )
    train.add_argument(
        "--record-dynamics",
        action="store_true",
        help="train: record per-step conflict dynamics (stream with --telemetry)",
    )
    train.add_argument("--balancer", default="mocograd", help="train: balancer name")
    train.add_argument(
        "--grad-space",
        choices=("parameters", "features"),
        default="parameters",
        help="train: balance shared-parameter gradients (K×d) or "
        "shared-representation gradients (K×d_feat, one trunk backprop)",
    )
    train.add_argument(
        "--streaming",
        action="store_true",
        help="train: generate data through the streaming shard pipeline "
        "(bounded memory, one shard generated at a time) instead of eagerly",
    )
    train.add_argument(
        "--chunk-size",
        type=int,
        default=1024,
        metavar="N",
        help="train: rows per generated shard in --streaming mode",
    )
    train.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="train: mmap shard-cache directory for --streaming mode "
        "(write-once per shard; repeated runs reuse cached shards)",
    )
    train.add_argument("--steps", type=int, default=200, help="train: optimization steps")
    train.add_argument("--tasks", type=int, default=4, help="train/serve: task count K")
    serve = parser.add_argument_group("serve subcommand (micro-batched inference demo)")
    serve.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="serve: load the model from a self-describing checkpoint "
        "(written by repro.serve.save_model) instead of building one",
    )
    serve.add_argument(
        "--save-checkpoint",
        metavar="PATH",
        default=None,
        help="serve: write the freshly built model as a self-describing "
        "checkpoint before serving (demo of the save→load round trip)",
    )
    serve.add_argument(
        "--arch",
        default="hps",
        help="serve: architecture for the built model (see repro.arch.MLP_ARCHITECTURES)",
    )
    serve.add_argument(
        "--scenarios",
        default="ES,FR,NL,US",
        help="serve: comma-separated scenario keys routed to the model",
    )
    serve.add_argument("--requests", type=int, default=256, help="serve: request count")
    serve.add_argument("--rows", type=int, default=1, help="serve: rows per request")
    serve.add_argument("--clients", type=int, default=4, help="serve: client threads")
    serve.add_argument("--features", type=int, default=16, help="serve: input features")
    serve.add_argument(
        "--max-batch-size", type=int, default=64, help="serve: rows per coalesced batch"
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=2.0, help="serve: batch latency budget (ms)"
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        width = max(map(len, REGISTRY))
        for identifier, (_, label) in REGISTRY.items():
            print(f"{identifier:{width}s} {label}")
        return 0

    artifact = {}
    if args.experiment in REGISTRY:
        artifact = {"preset": args.preset, "seed": args.seed}
        if args.methods:
            run = REGISTRY[args.experiment][0].run
            if "methods" not in inspect.signature(run).parameters:
                parser.error(f"{args.experiment} does not take --methods")
            artifact["methods"] = tuple(args.methods.split(","))

    if args.experiment == "report":
        if not args.path:
            parser.error("report requires a telemetry JSONL path")
        try:
            events = obs.load_events(args.path)
        except OSError as exc:
            parser.error(f"cannot read telemetry file: {exc}")
        except ValueError as exc:
            parser.error(str(exc))
        if args.dynamics:
            print(obs.format_dynamics(obs.summarize_dynamics(events)))
        elif args.ops:
            print(obs.format_ops(obs.summarize_ops(events)))
        else:
            print(obs.format_report(obs.summarize_events(events)))
        return 0

    sink = None
    if args.telemetry:
        try:
            sink = obs.JsonlSink(args.telemetry)
        except OSError as exc:
            parser.error(f"cannot open telemetry file: {exc}")
        obs.configure_sinks([sink])
        sink.emit(
            {
                "type": "run",
                "experiment": args.experiment,
                "preset": args.preset,
                "seed": args.seed,
                "ts": time.time(),
            }
        )
    try:
        if args.experiment == "serve":
            print(_run_serve(args))
        elif args.experiment == "train":
            print(_run_train(args))
        else:
            print(_run_artifact(args.experiment, **artifact))
    finally:
        if sink is not None:
            obs.configure_sinks([])
            sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
