"""Streaming shard pipeline benchmark: bounded memory at eager-or-better speed.

Times one full epoch (dataset construction + generation + batch
iteration) over the AliExpress generator at 20x its default row count in
two configurations, and writes ``BENCH_streaming.json`` at the
repository root:

- ``eager`` — the reference oracle: materialize every shard into one
  in-memory dataset, then stream batches from the concatenated arrays;
- ``streaming`` — chunked generation on the loader's thread, one shard
  at a time.

Streaming never pays eager's full-concat copy or its O(total_rows)
residency, so ``streaming`` must be at least as fast as ``eager`` even on
a single core.  A separate
tracemalloc probe checks the bounded-memory claim directly: the
streaming peak must stay flat (within ``MEMORY_GATE``) when the row
count grows 10x, while the eager peak grows with it.

A ``movielens_shard`` row times the MovieLens history sampler on one
4,096-row shard of a 6,000-user x 4,000-movie world (the end-to-end
``ml9`` workload's shard): the blocked per-user sampler against its
full-product reference in ``tests/reference/movielens.py``.  Both must
return bitwise equal histories.

A ``shard_reuse`` row counts ``generate_chunk`` calls over two epochs of
a two-shard AliExpress stream: the first epoch generates both shards,
and the second must reuse them from the dataset's shard LRU and generate
none.  It is a count, not a timing, so
it holds on any host.

Usage::

    PYTHONPATH=src python benchmarks/bench_streaming.py [--smoke] [--out PATH]

``--smoke`` shrinks the run for CI and exits non-zero if ``streaming`` is
slower than ``eager`` (speedup < 1.0), the streaming peak is not flat
across the 10x row-count step, or the MovieLens sampler is slower than
(or differs from) its reference, or the second epoch of the
``shard_reuse`` stream generates a shard.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
from benchlib import provenance
from tests.reference import movielens as reference

from repro.data import (
    AliExpressStream,
    DataLoader,
    StreamingDataset,
    as_stream,
    make_movielens_stream,
)

COUNTRY = "ES"
BATCH = 256
SEED = 0
#: Streaming peak memory at 10x rows may be at most this multiple of the
#: peak at 1x rows (the truly row-independent ideal is 1.0; slack covers
#: allocator jitter and the fixed world/calibration block).
MEMORY_GATE = 1.5
#: The ``movielens_shard`` world and shard: perfbench ``ml9``'s sizes.
ML_USERS, ML_MOVIES, ML_ROWS = 6000, 4000, 4096
#: Timed epoch configurations; ``eager`` is the reference.
MODES = ("eager", "streaming")


def build_dataset(rows: int, chunk: int) -> StreamingDataset:
    """Fresh AliExpress streaming dataset for one timed epoch."""
    return StreamingDataset(AliExpressStream(COUNTRY, rows, chunk, seed=SEED))


def consume(loader: DataLoader) -> int:
    """Drain one epoch, touching every batch; returns rows consumed."""
    rows = 0
    for _, targets in loader:
        ctr = targets["CTR"]
        rows += len(ctr)
        ctr.sum()  # force the batch arrays to actually be read
    return rows


def run_epoch(mode: str, rows: int, chunk: int) -> float:
    """Wall-clock seconds for one full epoch in ``mode``."""
    start = time.perf_counter()
    if mode == "eager":
        dataset = build_dataset(rows, chunk)
        stream = as_stream(dataset.materialize(), chunk)
    elif mode == "streaming":
        stream = build_dataset(rows, chunk)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    consumed = consume(DataLoader(stream, BATCH, seed=SEED))
    seconds = time.perf_counter() - start
    if consumed != rows:
        raise AssertionError(f"{mode}: consumed {consumed} of {rows} rows")
    return seconds


def peak_bytes(mode: str, rows: int, chunk: int) -> int:
    """tracemalloc peak across one epoch in ``mode``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run_epoch(mode, rows, chunk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def movielens_shard(repeats: int) -> dict:
    """Best-of-``repeats`` seconds of the reference and blocked samplers on one shard."""
    bench = make_movielens_stream(
        genres=("Crime",),
        records_per_genre=ML_ROWS,
        chunk_size=ML_ROWS,
        num_users=ML_USERS,
        num_movies=ML_MOVIES,
        val_records=1,
        test_records=1,
        seed=SEED,
    )
    world = bench.train["Crime"].source.world
    users = np.random.default_rng(SEED).integers(0, ML_USERS, size=ML_ROWS)
    samplers = {
        "oracle": lambda rng: reference.history_block(world, users, rng),
        "blocked": lambda rng: world.history_block(users, rng),
    }
    best, histories = {}, {}
    for _ in range(repeats):
        for name, sample in samplers.items():
            start = time.perf_counter()
            histories[name] = sample(np.random.default_rng(SEED))
            seconds = time.perf_counter() - start
            best[name] = min(best.get(name, seconds), seconds)
    return {
        "rows": ML_ROWS,
        "num_users": ML_USERS,
        "num_movies": ML_MOVIES,
        "oracle_seconds": best["oracle"],
        "seconds": best["blocked"],
        "speedup": best["oracle"] / best["blocked"],
        "bitwise_equal": histories["oracle"].tobytes() == histories["blocked"].tobytes(),
    }


def logged_generations(stream: StreamingDataset) -> list[int]:
    """Wrap ``stream``'s ``generate_chunk``; the list logs each index generated."""
    generate, calls = stream.source.generate_chunk, []

    def logged(index: int):
        calls.append(index)
        return generate(index)

    stream.source.generate_chunk = logged
    return calls


def shard_reuse(chunk: int) -> dict:
    """``generate_chunk`` calls per epoch over two epochs of a two-shard stream."""
    stream = build_dataset(2 * chunk, chunk)
    calls = logged_generations(stream)
    loader = DataLoader(stream, BATCH, seed=SEED)
    per_epoch = []
    for _ in range(2):
        before = len(calls)
        consume(loader)
        per_epoch.append(len(calls) - before)
    return {"shards": 2, "chunk_size": chunk, "generations_per_epoch": per_epoch}


def run(
    rows: int, chunk: int, repeats: int, memory_rows: int, memory_chunk: int
) -> dict:
    results, timings = [], {}
    # Best-of-``repeats``, with the modes interleaved round-robin so a
    # slow phase of the host (frequency scaling, a noisy neighbor on a
    # shared runner) skews both modes equally instead of one of them.
    for _ in range(repeats):
        for mode in MODES:
            seconds = run_epoch(mode, rows, chunk)
            timings[mode] = min(timings.get(mode, seconds), seconds)
    eager_seconds = timings["eager"]
    for mode in MODES:
        seconds = timings[mode]
        results.append(
            {
                "mode": mode,
                "seconds": seconds,
                "rows_per_sec": rows / seconds,
                "speedup": eager_seconds / seconds,
            }
        )

    # The probe uses its own (small, fixed) chunk size: boundedness means
    # the peak tracks the chunk, not the row count, so the chunk must stay
    # constant — and well below ``memory_rows`` — while rows grow 10x.
    streaming_base = peak_bytes("streaming", memory_rows, memory_chunk)
    streaming_10x = peak_bytes("streaming", memory_rows * 10, memory_chunk)
    eager_10x = peak_bytes("eager", memory_rows * 10, memory_chunk)
    memory = {
        "rows_base": memory_rows,
        "rows_10x": memory_rows * 10,
        "chunk_size": memory_chunk,
        "streaming_peak_base_bytes": streaming_base,
        "streaming_peak_10x_bytes": streaming_10x,
        "eager_peak_10x_bytes": eager_10x,
        "peak_ratio": streaming_10x / streaming_base,
        "eager_over_streaming_10x": eager_10x / streaming_10x,
    }
    return {
        "benchmark": "streaming",
        "workload": {
            "generator": "aliexpress",
            "country": COUNTRY,
            "rows": rows,
            "chunk_size": chunk,
            "batch": BATCH,
            "repeats": repeats,
            "memory_rows": [memory_rows, memory_rows * 10],
            "memory_chunk": memory_chunk,
        },
        **provenance(),
        "results": results,
        "memory": memory,
        "movielens_shard": movielens_shard(repeats),
        "shard_reuse": shard_reuse(memory_chunk),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short CI run; fail (exit 1) if streaming is slower than eager, "
        "peak memory grows with rows, or a second epoch over a two-shard "
        "stream generates a shard",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_streaming.json",
        help="output JSON path (default: <repo root>/BENCH_streaming.json)",
    )
    args = parser.parse_args(argv)

    # Both presets time 20x the generator's default 4000 rows and probe
    # memory at 4000 vs 40 000 (the 10x acceptance bar) — a full epoch is
    # ~25 ms, so even the smoke run affords the real workload.
    rows, chunk, memory_rows, memory_chunk = 80_000, 8192, 4000, 1024
    repeats = 5 if args.smoke else 9
    report = run(rows, chunk, repeats, memory_rows, memory_chunk)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"{'mode':>12} {'seconds':>9} {'rows/sec':>10} {'vs eager':>9}")
    for row in report["results"]:
        print(
            f"{row['mode']:>12} {row['seconds']:>9.3f} "
            f"{row['rows_per_sec']:>10.0f} {row['speedup']:>8.2f}x"
        )
    memory = report["memory"]
    print(
        f"peak memory: streaming {memory['streaming_peak_base_bytes'] / 1e6:.1f} MB "
        f"@ {memory['rows_base']} rows -> "
        f"{memory['streaming_peak_10x_bytes'] / 1e6:.1f} MB @ {memory['rows_10x']} "
        f"({memory['peak_ratio']:.2f}x); eager @ {memory['rows_10x']} rows: "
        f"{memory['eager_peak_10x_bytes'] / 1e6:.1f} MB"
    )
    shard = report["movielens_shard"]
    print(
        f"movielens_shard: {shard['seconds'] * 1e3:.0f} ms vs reference "
        f"{shard['oracle_seconds'] * 1e3:.0f} ms ({shard['speedup']:.2f}x, "
        f"bitwise equal: {shard['bitwise_equal']})"
    )
    reuse = report["shard_reuse"]["generations_per_epoch"]
    print(f"shard_reuse: generations per epoch over a 2-shard stream: {reuse}")
    print(f"wrote {args.out}")

    if args.smoke:
        failures = []
        speedups = {row["mode"]: row["speedup"] for row in report["results"]}
        if speedups["streaming"] < 1.0:
            failures.append(f"streaming slower than eager ({speedups['streaming']:.2f}x)")
        if memory["peak_ratio"] > MEMORY_GATE:
            failures.append(
                f"streaming peak grew {memory['peak_ratio']:.2f}x across a 10x "
                f"row-count step (gate: {MEMORY_GATE}x)"
            )
        if shard["speedup"] < 1.0:
            failures.append(
                f"movielens_shard slower than its reference ({shard['speedup']:.2f}x)"
            )
        if not shard["bitwise_equal"]:
            failures.append("movielens_shard histories differ from the reference")
        first, second = reuse
        if first != 2 or second:
            failures.append(
                f"shard_reuse: epochs generated {first} and {second} "
                "shards (expected 2, then 0 from the shard LRU)"
            )
        if failures:
            print("FAIL: " + "; ".join(failures), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
