"""One workload in one fresh process: set-up, timed window, checks.

Run by ``perfbench/run.py`` with ``src`` on ``PYTHONPATH``::

    python3 perfbench/workloads.py --workload ali_param --seed 1 \
        --seconds 10 --trace 0 [--setup-only] [--size full|tiny] [--out DIR]

Prints one JSON object on its last stdout line: set-up phases, timed
measurements, check results and operation counts.  ``run.py`` turns the
results of several such processes into the benchmark's metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import repro.training.trainer as trainer_module
from repro.balancers import MoCoGrad
from repro.data.aliexpress import COUNTRIES
from repro.data.base import MULTI_INPUT
from repro.data.streams import make_aliexpress_stream, make_movielens_stream
from repro.nn.tensor import Tensor, inference_mode
from repro.arch.factory import build_tabular_model
from repro.serve import ModelRegistry, Server, model_spec, save_model
from repro.training import MTLTrainer

from hostref import host_ref_ms, speed
from spans import END, NAME, PARENT, START, TAG, Patches, SpanLog, self_times, union_seconds

WORKLOADS = ("ali_param", "ali_feat", "ml9", "serve_ali")

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` runs
#: every code path in a second or two for the benchmark's own tests.
SIZES = {
    "full": {
        "ali_records": 65536,
        "ali_warmup_steps": 48,
        "ml_records": 4096,
        "ml_chunk": 4096,
        "ml_users": 6000,
        "ml_movies": 4000,
        "ml_dim": 16,
        "ml_warmup_steps": 2,
        "serve_pool": 4096,
        "serve_warmup": 2048,
    },
    "tiny": {
        "ali_records": 4096,
        "ali_warmup_steps": 2,
        "ml_records": 512,
        "ml_chunk": 256,
        "ml_users": 120,
        "ml_movies": 180,
        "ml_dim": 8,
        "ml_warmup_steps": 1,
        "serve_pool": 256,
        "serve_warmup": 32,
    },
}

#: Nominal seconds one full-size epoch takes on the reference host (2
#: cores).  The epoch count is ``seconds / EPOCH_SECONDS`` — a constant
#: per ``--seconds``, so training work and ``val_loss`` are fixed for a
#: seed while the timed window lasts about ``--seconds``.
EPOCH_SECONDS = {"ali_param": 0.6, "ali_feat": 0.5, "ml9": 6.0}

ALI_BATCH, ML_BATCH = 256, 128
ML_GENRES = 9
#: Open-loop offered load (requests/s) and requests kept outstanding in
#: the saturation phase.
SERVE_RATE, SERVE_OUTSTANDING = 2000.0, 256
#: The saturation phase runs as this many closed-loop chunks with a
#: host reference timing after each; traced runs alternate untraced and
#: traced chunks.
SAT_CHUNKS = 4
#: Every SAMPLE_EVERY-th served response is kept for the equivalence check.
SAMPLE_EVERY = 37
EQUIVALENCE_TOL = 1e-12


def measured_setup(build, *args) -> tuple[dict, dict]:
    """Run a set-up between two reference timings (``phases["ref_ms"]``)."""
    before = host_ref_ms()
    state, phases = build(*args)
    phases["ref_ms"] = [before, host_ref_ms()]
    return state, phases


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(seconds: np.ndarray, q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e3 if len(seconds) else float("nan")


class GCWatch:
    """Counts garbage collections by generation, and their pauses."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_s = [0.0, 0.0, 0.0]
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            generation = info["generation"]
            self.collections[generation] += 1
            self.pause_s[generation] += time.perf_counter() - self._started

    def __enter__(self) -> "GCWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def summary(self) -> dict:
        return {"collections": self.collections, "pause_ms": [p * 1e3 for p in self.pause_s]}


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------
def build_training(name: str, seed: int, size: dict) -> tuple[dict, dict]:
    """Set-up of a training workload; returns (state, set-up seconds)."""
    phases = {}
    start = time.perf_counter()
    if name == "ml9":
        bench = make_movielens_stream(
            records_per_genre=size["ml_records"],
            chunk_size=size["ml_chunk"],
            num_users=size["ml_users"],
            num_movies=size["ml_movies"],
            embedding_dim=size["ml_dim"],
            seed=seed,
        )
        batch, warmup = ML_BATCH, size["ml_warmup_steps"]
    else:
        bench = make_aliexpress_stream("ES", num_records=size["ali_records"], seed=seed)
        batch, warmup = ALI_BATCH, size["ali_warmup_steps"]
    phases["data_s"] = time.perf_counter() - start

    mark = time.perf_counter()
    model = bench.build_model("hps")
    trainer = MTLTrainer(
        model,
        bench.tasks,
        MoCoGrad(seed=seed),
        mode=bench.mode,
        grad_space="features" if name == "ali_feat" else "parameters",
        optimizer="adam",
        seed=seed,
    )
    phases["model_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    trainer.fit(bench.train, epochs=1, batch_size=batch, max_steps_per_epoch=warmup, drop_last=True)
    phases["warmup_s"] = time.perf_counter() - mark
    phases["setup_s"] = time.perf_counter() - start
    return {"bench": bench, "model": model, "trainer": trainer, "batch": batch}, phases


def validation_loss(model, bench) -> float:
    """Mean over tasks of each task's own loss on the validation split."""
    losses = []
    with inference_mode():
        if bench.mode == MULTI_INPUT:
            for task in bench.tasks:
                val = bench.val[task.name]
                output = model.forward(val.inputs, task.name)
                losses.append(task.loss_fn(output, val.targets).item())
        else:
            outputs = model.forward_all(bench.val.inputs)
            for task in bench.tasks:
                losses.append(task.loss_fn(outputs[task.name], bench.val.targets[task.name]).item())
    return float(np.mean(losses))


class StepClock:
    """Wall time of every train step, into a preallocated array."""

    def __init__(self, trainer, capacity: int) -> None:
        self.walls = np.zeros(capacity)
        self.count = 0
        attr = "train_step_multi" if trainer.mode == MULTI_INPUT else "train_step_single"
        step, clock = getattr(trainer, attr), time.perf_counter

        def timed(*args):
            start = clock()
            try:
                return step(*args)
            finally:
                if self.count < len(self.walls):
                    self.walls[self.count] = clock() - start
                self.count += 1

        setattr(trainer, attr, timed)

    def recorded(self) -> np.ndarray:
        return self.walls[: min(self.count, len(self.walls))]


def install_training_trace(log: SpanLog, state: dict) -> Patches:
    """Wrap each layer's entry points that the trainer calls."""
    trainer, model, bench = state["trainer"], state["model"], state["bench"]
    patches = Patches()
    for attr in ("forward_all", "forward", "shared_features", "forward_heads"):
        patches.set(model, attr, log.wrap("arch.forward", getattr(model, attr)))
    for task in trainer.tasks:
        patches.set(task, "loss_fn", log.wrap("training.loss", task.loss_fn))
    patches.set(
        trainer_module, "backward_multi", log.wrap("nn.backward", trainer_module.backward_multi)
    )
    patches.set(Tensor, "backward", log.wrap("nn.trunk_backward", Tensor.backward))
    patches.set(trainer.balancer, "balance", log.wrap("core.balance", trainer.balancer.balance))
    patches.set(trainer.optimizer, "step", log.wrap("nn.optim", trainer.optimizer.step))
    datasets = bench.train.values() if isinstance(bench.train, dict) else [bench.train]
    for dataset in datasets:
        patches.set(dataset, "load_shard", log.wrap("data.shard", dataset.load_shard))
    attr = "train_step_multi" if trainer.mode == MULTI_INPUT else "train_step_single"
    step = log.wrap("training.step", getattr(trainer, attr))

    def tagged_step(*args):
        log.tag += 1
        return step(*args)

    patches.set(trainer, attr, tagged_step)
    return patches


TRAIN_LAYERS = ("arch.forward", "training.loss", "nn.backward", "nn.trunk_backward",
                "core.balance", "nn.optim")


def training_layers(spans: list[tuple], windows: list[tuple[float, float]]) -> dict:
    """Per-layer metrics from the spans of the traced epochs."""
    fit_wall = sum(end - start for start, end in windows)
    steps = [s for s in spans if s[NAME] == "training.step"]
    step_ids = {s[0] for s in steps}
    step_wall = sum(s[END] - s[START] for s in steps)
    own = self_times(spans)
    per_layer = {name: 0.0 for name in TRAIN_LAYERS}
    for span in spans:
        if span[NAME] in per_layer and span[PARENT] in step_ids:
            per_layer[span[NAME]] += span[END] - span[START]
    shards = [s for s in spans if s[NAME] == "data.shard"]
    count = max(len(steps), 1)
    covered = sum(
        union_seconds(
            [(s[START], s[END]) for s in spans if s[NAME] in TRAIN_LAYERS or s[NAME] == "data.shard"],
            lo, hi,
        )
        for lo, hi in windows
    )
    metrics = {
        "data.wait_share": (fit_wall - step_wall) / fit_wall,
        "data.shard_ms": float(np.median([s[END] - s[START] for s in shards])) * 1e3 if shards else 0.0,
        "data.shards": float(len(shards)),
        "arch.forward_ms": per_layer["arch.forward"] / count * 1e3,
        "training.loss_ms": per_layer["training.loss"] / count * 1e3,
        "nn.backward_ms": per_layer["nn.backward"] / count * 1e3,
        "nn.trunk_backward_ms": per_layer["nn.trunk_backward"] / count * 1e3,
        "core.balance_ms": per_layer["core.balance"] / count * 1e3,
        "nn.optim_ms": per_layer["nn.optim"] / count * 1e3,
        "training.self_ms": sum(own[i] for i in step_ids) / count * 1e3,
        "training.step_ms_p50": float(np.median([s[END] - s[START] for s in steps])) * 1e3 if steps else 0.0,
        "trace.unattributed_share": 1.0 - covered / fit_wall,
    }
    return metrics


def run_training(name: str, seed: int, seconds: float, trace: bool, size: dict,
                 setup_only: bool, out_dir: Path) -> dict:
    state, phases = measured_setup(build_training, name, seed, size)
    result = {"phases": phases}
    if setup_only:
        return result
    trainer, bench, batch = state["trainer"], state["bench"], state["batch"]
    tasks = ML_GENRES if bench.mode == MULTI_INPUT else 1
    epochs = max(2, round(seconds / EPOCH_SECONDS[name]))
    if trace and epochs % 2:
        epochs += 1
    warmup_steps = trainer.step_count
    clock = StepClock(trainer, capacity=epochs * 4096)
    log = SpanLog() if trace else None
    rates = {"untraced": [], "traced": []}
    windows = []
    gc.collect()
    refs = [host_ref_ms()]
    with GCWatch() as watch:
        for epoch in range(epochs):
            # Traced runs alternate untraced and traced epochs, so both rates
            # see the same host phases; the ratio is the tracing overhead.
            traced = trace and epoch % 2 == 1
            patches = install_training_trace(log, state) if traced else None
            first = trainer.step_count
            start = time.perf_counter()
            trainer.fit(bench.train, epochs=1, batch_size=batch, drop_last=True)
            end = time.perf_counter()
            if patches is not None:
                patches.restore()
                windows.append((start, end))
            refs.append(host_ref_ms())
            rows = (trainer.step_count - first) * batch * tasks
            rates["traced" if traced else "untraced"].append(rows / (end - start))

    losses = np.asarray(trainer.history.step_losses)
    nonfinite = int((~np.isfinite(losses)).any(axis=1).sum())
    loss_after = validation_loss(state["model"], bench)
    loss_before = validation_loss(bench.build_model("hps"), bench)
    walls = clock.recorded()
    result.update(
        at_ref={
            "rows_per_s": float(np.median(rates["untraced"])) / speed(refs, name),
            "latency_p50_ms": percentile_ms(walls, 50) * speed(refs, name),
        },
        ref_ms=refs,
        rows_per_s=float(np.median(rates["untraced"])),
        epoch_rates=rates["untraced"],
        latency_p50_ms=percentile_ms(walls, 50),
        latency_p90_ms=percentile_ms(walls, 90),
        latency_p99_ms=percentile_ms(walls, 99),
        steps=len(walls),
        gc=watch.summary(),
        val_loss=loss_after,
        val_loss_before=loss_before,
        peak_rss_mb=peak_rss_mb(),
        counts={"warmup_steps": warmup_steps, "timed_steps": trainer.step_count - warmup_steps,
                "nonfinite_steps": nonfinite},
        attempted=len(losses),
        failed=nonfinite,
        checks={
            "losses_finite": nonfinite == 0,
            "val_loss_decreased": loss_after < loss_before,
        },
    )
    if trace:
        layers = training_layers(log.within(windows), windows)
        layers["trace.overhead"] = float(np.median(rates["untraced"]) / np.median(rates["traced"]))
        result["layers"] = layers
        log.write_chrome_trace(out_dir / f"{name}.trace.json", {"workload": name, "seed": seed})
    return result


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
def build_serving(seed: int, size: dict, model_dir: Path) -> tuple[dict, dict]:
    """Request pools for the four scenarios and one served model.

    All four scenarios route to one shared model, so one batcher serves
    them.  With a model (and a batcher thread) per scenario, saturation
    capacity on the 2-core host fell into a second mode at about 60% of
    the first in 2 of 10 runs (NOTES.md, "Bounds and noise").
    """
    phases = {}
    start = time.perf_counter()
    benches = {
        country: make_aliexpress_stream(country, num_records=10 * size["serve_pool"], seed=seed)
        for country in COUNTRIES
    }
    pools = [np.ascontiguousarray(benches[c].test.inputs) for c in COUNTRIES]
    phases["data_s"] = time.perf_counter() - start

    mark = time.perf_counter()
    bench = benches[COUNTRIES[0]]
    spec = model_spec(
        "tabular",
        architecture="hps",
        field_sizes=[len(table) for table in bench.train.source.field_latents],
        embedding_dim=8,
        hidden=[32, 16],
        tasks=[task.name for task in bench.tasks],
        seed=seed,
    )
    path = save_model(build_tabular_model(**spec["config"]), model_dir / "aliexpress.npz", spec)
    phases["model_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    model = ModelRegistry().load(path)
    server = Server({country: model for country in COUNTRIES})
    phases["registry_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    state = {"benches": benches, "pools": pools, "model": model, "server": server}
    warm = LoadGenerator(state, np.random.default_rng([seed, 1]), size["serve_warmup"])
    warm.closed_loop(size["serve_warmup"], outstanding=64)
    phases["warmup_s"] = time.perf_counter() - mark
    phases["setup_s"] = time.perf_counter() - start
    return state, phases


class LoadGenerator:
    """Single-threaded request generator with preallocated bookkeeping.

    Per request it keeps only array slots — due time, scenario, pool row,
    completion time, failure flag — and hands the server's future one
    shared callback (the future itself is not kept).  Every
    ``SAMPLE_EVERY``-th response is copied for the equivalence check.
    """

    def __init__(self, state: dict, rng: np.random.Generator, capacity: int) -> None:
        self.server = state["server"]
        self.pools = state["pools"]
        self.capacity = capacity
        self.scenario = rng.integers(0, len(COUNTRIES), size=capacity).astype(np.int8)
        self.row = rng.integers(0, len(self.pools[0]), size=capacity).astype(np.int32)
        self.due = np.full(capacity, np.nan)
        self.sent = np.full(capacity, np.nan)
        self.done = np.full(capacity, np.nan)
        self.failed = np.zeros(capacity, dtype=bool)
        self.samples = np.full((capacity // SAMPLE_EVERY + 1, 2), np.nan)
        self.count = 0
        self._slots: threading.Semaphore | None = None

    def _on_done(self, future) -> None:
        index = future.bench_index
        self.done[index] = time.perf_counter()
        if future.exception() is not None:
            self.failed[index] = True
        elif index % SAMPLE_EVERY == 0:
            outputs = future.result()
            self.samples[index // SAMPLE_EVERY] = [
                outputs["CTR"].reshape(-1)[0], outputs["CTCVR"].reshape(-1)[0]
            ]
        if self._slots is not None:
            self._slots.release()

    def _send(self, index: int) -> None:
        scenario = self.scenario[index]
        self.sent[index] = time.perf_counter()
        try:
            future = self.server.submit(
                self.pools[scenario][self.row[index]], scenario=COUNTRIES[scenario]
            )
        except Exception:  # noqa: BLE001 — a refused request counts as failed
            self.failed[index] = True
            self.done[index] = np.inf
            if self._slots is not None:
                self._slots.release()
            return
        future.bench_index = index
        future.add_done_callback(self._on_done)

    def open_loop(self, rate: float, seconds: float, rng: np.random.Generator) -> slice:
        """Poisson arrivals at ``rate``; returns the slice of requests sent."""
        first = self.count
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
        offsets = np.cumsum(gaps)
        total = min(int(np.searchsorted(offsets, seconds)), self.capacity - first)
        base = time.perf_counter() + 0.005
        self.due[first : first + total] = base + offsets[:total]
        due, sleep, clock = self.due, time.sleep, time.perf_counter
        for index in range(first, first + total):
            wait = due[index] - clock()
            if wait > 0:
                sleep(wait)
            self._send(index)
        self.count = first + total
        self.drain(slice(first, self.count))
        return slice(first, self.count)

    def closed_loop(self, requests: int, outstanding: int, seconds: float | None = None) -> slice:
        """Keep ``outstanding`` requests in flight; stop after ``requests``
        or ``seconds``, whichever comes first."""
        first = self.count
        stop_at = time.perf_counter() + seconds if seconds is not None else np.inf
        last = min(first + requests, self.capacity)
        self._slots = threading.Semaphore(outstanding)
        index = first
        clock = time.perf_counter
        while index < last and clock() < stop_at:
            self._slots.acquire()
            self.due[index] = clock()
            self._send(index)
            index += 1
        self.count = index
        self.drain(slice(first, index))
        self._slots = None
        return slice(first, index)

    def drain(self, span: slice, timeout: float = 30.0) -> None:
        """Wait for the requests in ``span``; unanswered ones count as failed."""
        deadline = time.perf_counter() + timeout
        while np.isnan(self.done[span]).any() and time.perf_counter() < deadline:
            time.sleep(0.002)
        self.failed[span] |= np.isnan(self.done[span])

    def latencies(self, span: slice) -> np.ndarray:
        """Due time → completion, seconds; failed requests read as +inf."""
        latency = self.done[span] - self.due[span]
        latency[self.failed[span] | np.isnan(latency)] = np.inf
        return latency


def served_mismatch(server: Server, pools, scenario, row, samples) -> float:
    """Largest gap between kept responses and ``predict_sequential``."""
    worst = 0.0
    for s, r, kept in zip(scenario, row, samples):
        reference = server.predict_sequential(pools[s][r][None, :], scenario=COUNTRIES[s])
        expected = np.array([reference["CTR"].reshape(-1)[0], reference["CTCVR"].reshape(-1)[0]])
        gap = np.abs(kept - expected)
        worst = max(worst, float(np.max(np.where(np.isnan(gap), np.inf, gap))))
    return worst


def saturation_rate(gen: LoadGenerator, span: slice, window: float = 0.1) -> float:
    """Median completions per second over fixed windows of a closed-loop
    phase, leaving out the first and last window (ramp up, drain)."""
    done = gen.done[span]
    done = np.sort(done[~gen.failed[span]])
    edges = np.arange(done[0], done[-1], window)
    counts = np.histogram(done, bins=edges)[0][1:-1]
    if len(counts) == 0:
        return len(done) / max(done[-1] - done[0], 1e-9)
    return float(np.median(counts)) / window


def install_serving_trace(log: SpanLog, state: dict) -> Patches:
    patches = Patches()
    server = state["server"]
    patches.set(server, "submit", log.wrap("serve.submit", server.submit))
    model = state["model"]
    patches.set(
        model, "forward_all",
        log.wrap("serve.forward", model.forward_all, tag_fn=lambda args: len(args[0])),
    )
    return patches


def serving_layers(spans, windows: list[tuple[float, float]], late: np.ndarray) -> dict:
    forwards = [s for s in spans if s[NAME] == "serve.forward"]
    submits = [s for s in spans if s[NAME] == "serve.submit"]
    wall = sum(hi - lo for lo, hi in windows)
    busy = sum(union_seconds([(s[START], s[END]) for s in forwards], lo, hi) for lo, hi in windows)
    covered = sum(
        union_seconds([(s[START], s[END]) for s in forwards + submits], lo, hi) for lo, hi in windows
    )
    return {
        "serve.submit_us_p50": float(np.median([s[END] - s[START] for s in submits])) * 1e6,
        "serve.forward_ms_p50": float(np.median([s[END] - s[START] for s in forwards])) * 1e3,
        "serve.batch_rows_mean": float(np.mean([s[TAG] for s in forwards])),
        "serve.batches": float(len(forwards)),
        "serve.forward_busy_share": busy / wall,
        "serve.gen_late_ms_p99": percentile_ms(late, 99),
        "trace.unattributed_share": 1.0 - covered / wall,
    }


def run_serving(seed: int, seconds: float, trace: bool, size: dict, setup_only: bool,
                out_dir: Path, model_dir: Path) -> dict:
    state, phases = measured_setup(build_serving, seed, size, model_dir)
    result = {"phases": phases}
    server = state["server"]
    try:
        if setup_only:
            return result
        open_seconds = seconds * 0.6
        chunk_seconds = seconds * 0.4 / SAT_CHUNKS
        capacity = int(SERVE_RATE * open_seconds * 1.5) + int(100_000 * seconds * 0.4)
        gen = LoadGenerator(state, np.random.default_rng([seed, 2]), capacity)
        log = SpanLog() if trace else None
        gc.collect()
        patches = install_serving_trace(log, state) if trace else None
        with GCWatch() as open_gc:
            open_span = gen.open_loop(SERVE_RATE, open_seconds, np.random.default_rng([seed, 3]))
        if patches is not None:
            patches.restore()
        refs = [host_ref_ms()]
        rates = {"untraced": [], "traced": []}
        windows = []
        sat_first = gen.count
        gc.collect()
        with GCWatch() as sat_gc:
            for chunk in range(SAT_CHUNKS):
                traced = trace and chunk % 2 == 1
                patches = install_serving_trace(log, state) if traced else None
                start = time.perf_counter()
                span = gen.closed_loop(capacity, SERVE_OUTSTANDING, seconds=chunk_seconds)
                if patches is not None:
                    patches.restore()
                    windows.append((start, time.perf_counter()))
                refs.append(host_ref_ms())
                rate = saturation_rate(gen, span)
                rates["traced" if traced else "untraced"].append(rate)
        latency = gen.latencies(open_span)
        kept = np.arange(0, gen.count, SAMPLE_EVERY)
        kept = kept[~gen.failed[kept]]
        mismatch = served_mismatch(
            server, state["pools"], gen.scenario[kept], gen.row[kept], gen.samples[kept // SAMPLE_EVERY]
        )
        loss = float(np.mean([validation_loss(state["model"], state["benches"][c]) for c in COUNTRIES]))
        result.update(
            # Most of the open-loop p50 is the batcher's wall-clock wait
            # budget, which host speed does not change: it is not scaled.
            at_ref={
                "rows_per_s": float(np.median(rates["untraced"])) / speed(refs, "serve_ali"),
                "latency_p50_ms": percentile_ms(latency, 50),
            },
            ref_ms=refs,
            rows_per_s=float(np.median(rates["untraced"])),
            latency_p50_ms=percentile_ms(latency, 50),
            latency_p90_ms=percentile_ms(latency, 90),
            latency_p99_ms=percentile_ms(latency, 99),
            gc={"open_loop": open_gc.summary(), "saturation": sat_gc.summary()},
            val_loss=loss,
            peak_rss_mb=peak_rss_mb(),
            counts={
                "open_loop_sent": open_span.stop - open_span.start,
                "open_loop_failed": int(gen.failed[open_span].sum()),
                "saturation_sent": gen.count - sat_first,
                "saturation_failed": int(gen.failed[sat_first : gen.count].sum()),
                "checked_responses": len(kept),
            },
            attempted=gen.count,
            failed=int(gen.failed[: gen.count].sum()),
            checks={"served_matches_sequential": mismatch <= EQUIVALENCE_TOL, "max_mismatch": mismatch},
        )
        if trace:
            late = gen.sent[open_span] - gen.due[open_span]
            layers = serving_layers(log.within(windows), windows, late)
            layers["trace.overhead"] = float(np.median(rates["untraced"]) / np.median(rates["traced"]))
            result["layers"] = layers
            log.write_chrome_trace(out_dir / "serve_ali.trace.json", {"workload": "serve_ali", "seed": seed})
    finally:
        server.close()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, default=Path(__file__).resolve().parent.parent / ".perfbench_out")
    args = parser.parse_args(argv)
    size = SIZES[args.size]
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload == "serve_ali":
        model_dir = Path(tempfile.mkdtemp(prefix="models-", dir=args.out))
        try:
            result = run_serving(args.seed, args.seconds, bool(args.trace), size,
                                 args.setup_only, args.out, model_dir)
        finally:
            shutil.rmtree(model_dir, ignore_errors=True)
    else:
        result = run_training(args.workload, args.seed, args.seconds, bool(args.trace),
                              size, args.setup_only, args.out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
