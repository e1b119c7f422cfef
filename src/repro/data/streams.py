"""Chunked streaming variants of the AliExpress / MovieLens / synthetic generators.

Each ``make_*_stream`` builder mirrors its eager sibling but returns a
:class:`~repro.data.base.Benchmark` whose training split is a
:class:`~repro.data.streaming.StreamingDataset`: rows are generated in
fixed-size shards on demand, each shard a pure function of
``shard_rng(stream_seed, shard_index)``, so any consumer (prefetch
thread, data-parallel worker, mmap cache writer) regenerates identical
bytes independently — at 10–100× the eager row counts with a flat memory
ceiling.

The eager builders stay byte-for-byte what they were (their seed-tuned
statistical tests depend on it); the streaming world is a *new* sampling
order over the same distributions:

- **world state** (latent tables, task directions, rotation matrices) is
  drawn once in the source constructor from
  ``default_rng([seed, salt])`` — sequence-seeded so it can never collide
  with a shard stream (`shard_rng` seeds are plain integers);
- **per-shard rows** come from the shard stream only;
- stream seeds for train/val/test (and per genre) derive from
  ``default_rng([seed, salt, split, ...]).integers(2**48)`` — distinct
  48-bit streams per split sharing one world, so validation rows can
  never alias training rows at any dataset size;
- the AliExpress **base-rate calibration** (the eager path's
  ``np.quantile`` over the full sample — a global statistic, inherently
  unchunkable) is replaced by quantiles over a fixed-size calibration
  sample drawn from its own salted stream.  Label distribution becomes
  *invariant to total_rows*: growing a stream 10× extends it without
  re-labeling the prefix.
"""

from __future__ import annotations

import hashlib
from functools import partial
from pathlib import Path

import numpy as np

from .aliexpress import (
    _COUNTRY_PROFILES,
    _FIELD_SIZES,
    _LATENT_DIM as _ALI_LATENT_DIM,
    _build_model as _ali_build_model,
    _sigmoid,
    _task_specs as _ali_task_specs,
    COUNTRIES,
)
from .base import MULTI_INPUT, SINGLE_INPUT, Benchmark
from .latent import correlated_task_matrix, task_directions
from .movielens import (
    GENRES,
    _World,
    _build_model as _ml_build_model,
    _task_specs as _ml_task_specs,
)
from .shardcache import ShardCache
from .streaming import ChunkedSource, StreamingDataset
from .synthetic import (
    _build_model as _syn_build_model,
    _task_specs as _syn_task_specs,
    uniform_conflict_gram,
)

__all__ = [
    "AliExpressStream",
    "MovieLensGenreStream",
    "SyntheticStream",
    "make_aliexpress_stream",
    "make_movielens_stream",
    "make_synthetic_stream",
]

_SPLITS = ("train", "val", "test")
#: Salt separating world-state RNG from stream-seed derivation.
_WORLD_SALT, _STREAM_SALT, _CALIBRATION_SALT = 1, 2, 3
#: AliExpress bias quantiles come from this many calibration rows.
_CALIBRATION_ROWS = 4096


def _stream_seed(*components: int) -> int:
    """A 48-bit shard-stream seed from integer components.

    Sequence-seeded generators (``default_rng([a, b, ...])``) occupy a
    different seed space than the plain-integer ``shard_rng`` streams, so
    deriving stream seeds this way keeps every (split, genre) stream and
    every world generator pairwise independent.
    """
    return int(np.random.default_rng(list(components)).integers(1 << 48))


def _coerce_cache(cache) -> ShardCache | None:
    if cache is None or isinstance(cache, ShardCache):
        return cache
    return ShardCache(Path(cache))


def _split_seed(base: int, split: str, *extra: int) -> int:
    if split not in _SPLITS:
        raise ValueError(f"split must be one of {_SPLITS}; got {split!r}")
    return _stream_seed(base, _STREAM_SALT, _SPLITS.index(split), *extra)


# ----------------------------------------------------------------------
# AliExpress
# ----------------------------------------------------------------------
class AliExpressStream(ChunkedSource):
    """Chunked AliExpress-style click logs (CTR / CTCVR funnel)."""

    def __init__(
        self,
        country: str,
        total_rows: int,
        chunk_size: int,
        relatedness: float = 0.35,
        seed: int = 0,
        split: str = "train",
    ) -> None:
        if country not in _COUNTRY_PROFILES:
            raise ValueError(f"country must be one of {COUNTRIES}")
        self.country = country
        self.total_rows = int(total_rows)
        self.chunk_size = int(chunk_size)
        self.relatedness = float(relatedness)
        self.base_seed = int(seed)
        self.split = split
        self.base_ctr, self.cvr_rate, offset = _COUNTRY_PROFILES[country]

        world_rng = np.random.default_rng([seed + offset, _WORLD_SALT])
        self.field_latents = [
            world_rng.normal(scale=1.0, size=(size, _ALI_LATENT_DIM))
            for size in _FIELD_SIZES
        ]
        self.directions = task_directions(2, _ALI_LATENT_DIM, relatedness, world_rng)

        # Fixed-size calibration sample: the eager path centers scores
        # with a quantile over ALL rows, which a chunked generator cannot
        # reproduce without materializing everything.  A dedicated
        # calibration stream pins the biases independent of total_rows.
        cal_rng = np.random.default_rng([seed + offset, _CALIBRATION_SALT])
        _, ctr_score, cvr_score = self._scores(_CALIBRATION_ROWS, cal_rng)
        self.ctr_bias = float(np.quantile(ctr_score, 1.0 - self.base_ctr))
        self.cvr_bias = float(np.quantile(cvr_score, 1.0 - self.cvr_rate))

        self.seed = _split_seed(seed + offset, split)

    def _scores(self, rows: int, rng: np.random.Generator):
        records = np.stack(
            [rng.integers(0, size, size=rows) for size in _FIELD_SIZES], axis=1
        )
        latents = sum(
            table[records[:, i]] for i, table in enumerate(self.field_latents)
        ) / np.sqrt(len(_FIELD_SIZES))
        ctr_score = latents @ self.directions[0] + 0.3 * rng.normal(size=rows)
        cvr_score = latents @ self.directions[1] + 0.3 * rng.normal(size=rows)
        return records, ctr_score, cvr_score

    def generate_chunk(self, index: int):
        rng = self.shard_generator(index)
        rows = self.shard_length(index)
        records, ctr_score, cvr_score = self._scores(rows, rng)
        clicks = (
            rng.random(rows) < _sigmoid(2.5 * (ctr_score - self.ctr_bias))
        ).astype(np.float64)
        conversions = (
            rng.random(rows) < _sigmoid(2.5 * (cvr_score - self.cvr_bias))
        ).astype(np.float64)
        return records, {"CTR": clicks, "CTCVR": conversions * clicks}

    def cache_key(self) -> str:
        return (
            f"aliexpress/{self.country}/rel{self.relatedness}"
            f"/rows{self.total_rows}/chunk{self.chunk_size}"
            f"/cal{_CALIBRATION_ROWS}/{self.split}"
        )


def make_aliexpress_stream(
    country: str = "ES",
    num_records: int = 4000,
    chunk_size: int = 1024,
    relatedness: float = 0.35,
    embedding_dim: int = 8,
    hidden: tuple[int, ...] = (32, 16),
    seed: int = 0,
    val_records: int | None = None,
    test_records: int | None = None,
    cache=None,
    prefetch_depth: int = 1,
    telemetry=None,
) -> Benchmark:
    """Streaming counterpart of :func:`~repro.data.aliexpress.make_aliexpress`.

    The train split streams; val/test are separate salted streams
    materialized eagerly (their size defaults to ``num_records // 10``
    and does *not* grow with the training row count, so evaluation
    memory stays fixed).  ``cache`` may be a
    :class:`~repro.data.shardcache.ShardCache` or a directory path.
    """
    cache = _coerce_cache(cache)
    val_records = max(num_records // 10, 1) if val_records is None else val_records
    test_records = max(num_records // 10, 1) if test_records is None else test_records

    def source(split: str, rows: int) -> AliExpressStream:
        return AliExpressStream(
            country, rows, chunk_size, relatedness, seed=seed, split=split
        )

    train = StreamingDataset(
        source("train", num_records),
        cache=cache,
        prefetch_depth=prefetch_depth,
        telemetry=telemetry,
    )
    val = StreamingDataset(source("val", val_records)).materialize()
    test = StreamingDataset(source("test", test_records)).materialize()

    stream_source = train.source
    return Benchmark(
        name=f"aliexpress-{country}-stream",
        mode=SINGLE_INPUT,
        tasks=_ali_task_specs(),
        train=train,
        val=val,
        test=test,
        build_model=partial(_ali_build_model, embedding_dim, hidden, seed),
        metadata={
            "country": country,
            "base_ctr": stream_source.base_ctr,
            "cvr_rate": stream_source.cvr_rate,
            "relatedness": relatedness,
            "streaming": True,
            "chunk_size": chunk_size,
        },
    )


# ----------------------------------------------------------------------
# MovieLens
# ----------------------------------------------------------------------
class MovieLensGenreStream(ChunkedSource):
    """Chunked per-genre rating records over a shared movie world."""

    def __init__(
        self,
        world: _World,
        genre: str,
        genre_index: int,
        total_rows: int,
        chunk_size: int,
        seed: int = 0,
        split: str = "train",
    ) -> None:
        self.world = world
        self.genre = genre
        self.total_rows = int(total_rows)
        self.chunk_size = int(chunk_size)
        self.base_seed = int(seed)
        self.split = split
        self.seed = _split_seed(seed, split, genre_index)

    def generate_chunk(self, index: int):
        rng = self.shard_generator(index)
        rows = self.shard_length(index)
        world = self.world
        users = rng.integers(0, world.num_users, size=rows)
        movies = rng.choice(world.pools[self.genre], size=rows)
        ratings = world.rating(users, movies, self.genre, rng)
        histories = world.history_block(users, rng)
        inputs = np.concatenate(
            [users[:, None], movies[:, None], histories], axis=1
        ).astype(np.int64)
        return inputs, ratings

    def cache_key(self) -> str:
        world = self.world
        shared = len(set(map(len, world.pools.values()))) == 1 and len(
            world.pools[self.genre]
        ) == world.num_movies
        return (
            f"movielens/{self.genre}/u{world.num_users}/m{world.num_movies}"
            f"/g{len(world.genres)}/rel{world.relatedness}/shared{int(shared)}"
            f"/rows{self.total_rows}/chunk{self.chunk_size}/{self.split}"
        )


def make_movielens_stream(
    genres: tuple[str, ...] = GENRES,
    records_per_genre: int = 600,
    chunk_size: int = 256,
    num_users: int = 120,
    num_movies: int = 180,
    relatedness: float = 0.3,
    embedding_dim: int = 8,
    out_features: int = 16,
    shared_movie_pool: bool = False,
    seed: int = 0,
    val_records: int | None = None,
    test_records: int | None = None,
    cache=None,
    prefetch_depth: int = 1,
    telemetry=None,
) -> Benchmark:
    """Streaming counterpart of :func:`~repro.data.movielens.make_movielens`.

    Multi-input: each genre's train split is its own
    :class:`StreamingDataset` over the shared world, with a per-genre
    shard stream (so ``parallel`` row identities stay disjoint across
    tasks just like distinct eager datasets).
    """
    unknown = set(genres) - set(GENRES)
    if unknown:
        raise ValueError(f"unknown genres: {sorted(unknown)}")
    cache = _coerce_cache(cache)
    val_records = max(records_per_genre // 10, 1) if val_records is None else val_records
    test_records = (
        max(records_per_genre // 10, 1) if test_records is None else test_records
    )

    world_rng = np.random.default_rng([seed, _WORLD_SALT])
    world = _World(
        num_users,
        num_movies,
        tuple(genres),
        relatedness,
        world_rng,
        shared_movie_pool=shared_movie_pool,
    )

    def source(genre: str, g: int, split: str, rows: int) -> MovieLensGenreStream:
        return MovieLensGenreStream(
            world, genre, g, rows, chunk_size, seed=seed, split=split
        )

    train, val, test = {}, {}, {}
    for g, genre in enumerate(genres):
        train[genre] = StreamingDataset(
            source(genre, g, "train", records_per_genre),
            cache=cache,
            prefetch_depth=prefetch_depth,
            telemetry=telemetry,
        )
        val[genre] = StreamingDataset(source(genre, g, "val", val_records)).materialize()
        test[genre] = StreamingDataset(
            source(genre, g, "test", test_records)
        ).materialize()

    return Benchmark(
        name="movielens-stream",
        mode=MULTI_INPUT,
        tasks=_ml_task_specs(tuple(genres)),
        train=train,
        val=val,
        test=test,
        build_model=partial(
            _ml_build_model, num_users, num_movies, embedding_dim, out_features, seed
        ),
        metadata={
            "genres": tuple(genres),
            "relatedness": relatedness,
            "streaming": True,
            "chunk_size": chunk_size,
        },
    )


# ----------------------------------------------------------------------
# Synthetic latent-factor benchmark
# ----------------------------------------------------------------------
class SyntheticStream(ChunkedSource):
    """Chunked K-task latent-factor rows with an exact conflict Gram."""

    def __init__(
        self,
        num_tasks: int,
        total_rows: int,
        chunk_size: int,
        in_features: int = 16,
        task_gram: np.ndarray | None = None,
        pairwise_cosine: float = 0.0,
        noise: float = 0.2,
        task_type: str = "regression",
        seed: int = 0,
        split: str = "train",
    ) -> None:
        if task_type not in ("regression", "classification"):
            raise ValueError("task_type must be 'regression' or 'classification'")
        if task_gram is None:
            task_gram = uniform_conflict_gram(num_tasks, pairwise_cosine)
        self.task_gram = np.asarray(task_gram, dtype=np.float64)
        if self.task_gram.shape != (num_tasks, num_tasks):
            raise ValueError("task_gram must be (K, K)")
        self.num_tasks = int(num_tasks)
        self.total_rows = int(total_rows)
        self.chunk_size = int(chunk_size)
        self.in_features = int(in_features)
        self.noise = float(noise)
        self.task_type = task_type
        self.base_seed = int(seed)
        self.split = split
        world_rng = np.random.default_rng([seed, _WORLD_SALT])
        self.directions = correlated_task_matrix(
            num_tasks, in_features, self.task_gram, world_rng
        )
        self.seed = _split_seed(seed, split)

    def generate_chunk(self, index: int):
        rng = self.shard_generator(index)
        rows = self.shard_length(index)
        inputs = rng.normal(size=(rows, self.in_features))
        scores = inputs @ self.directions.T
        targets: dict[str, np.ndarray] = {}
        for k in range(self.num_tasks):
            if self.task_type == "regression":
                targets[f"task{k}"] = scores[:, k] + self.noise * rng.normal(size=rows)
            else:
                probabilities = 1.0 / (1.0 + np.exp(-2.0 * scores[:, k]))
                targets[f"task{k}"] = (rng.random(rows) < probabilities).astype(
                    np.float64
                )
        return inputs, targets

    def cache_key(self) -> str:
        gram = np.round(self.task_gram, 9).tobytes()
        gram_id = hashlib.sha1(gram).hexdigest()[:12]
        return (
            f"synthetic/{self.task_type}/K{self.num_tasks}/f{self.in_features}"
            f"/gram{gram_id}/noise{self.noise}"
            f"/rows{self.total_rows}/chunk{self.chunk_size}/{self.split}"
        )


def make_synthetic_stream(
    num_tasks: int = 3,
    num_samples: int = 600,
    chunk_size: int = 256,
    in_features: int = 16,
    task_gram: np.ndarray | None = None,
    pairwise_cosine: float = 0.0,
    noise: float = 0.2,
    task_type: str = "regression",
    hidden: tuple[int, ...] = (24, 12),
    seed: int = 0,
    val_records: int | None = None,
    test_records: int | None = None,
    cache=None,
    prefetch_depth: int = 1,
    telemetry=None,
) -> Benchmark:
    """Streaming counterpart of :func:`~repro.data.synthetic.make_synthetic_mtl`."""
    cache = _coerce_cache(cache)
    val_records = max(num_samples // 10, 1) if val_records is None else val_records
    test_records = max(num_samples // 10, 1) if test_records is None else test_records

    def source(split: str, rows: int) -> SyntheticStream:
        return SyntheticStream(
            num_tasks,
            rows,
            chunk_size,
            in_features=in_features,
            task_gram=task_gram,
            pairwise_cosine=pairwise_cosine,
            noise=noise,
            task_type=task_type,
            seed=seed,
            split=split,
        )

    train_source = source("train", num_samples)
    train = StreamingDataset(
        train_source, cache=cache, prefetch_depth=prefetch_depth, telemetry=telemetry
    )
    val = StreamingDataset(source("val", val_records)).materialize()
    test = StreamingDataset(source("test", test_records)).materialize()

    return Benchmark(
        name=f"synthetic-{task_type}-stream",
        mode=SINGLE_INPUT,
        tasks=_syn_task_specs(task_type, num_tasks),
        train=train,
        val=val,
        test=test,
        build_model=partial(_syn_build_model, in_features, hidden, seed),
        metadata={
            "task_gram": train_source.task_gram,
            "noise": noise,
            "task_type": task_type,
            "directions": train_source.directions,
            "streaming": True,
            "chunk_size": chunk_size,
        },
    )
