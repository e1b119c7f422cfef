"""MovieLens histories: the blocked per-user sampler against its oracle.

``_World.history`` and ``_World.history_block`` score each unique user in
row blocks and never form the ``(U, M)`` affinity product.  The full-product
samplers they replaced live in ``tests/reference/movielens.py``; swapping
them in must reproduce every streamed shard, every val/test split and every
eager dataset byte for byte, and one shard must stay a few MiB.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data import make_movielens, make_movielens_stream
from repro.data.movielens import _SCORE_BLOCK, _SEQ_LEN, GENRES, _World
from tests.reference import movielens as reference

# (num_users, num_movies, records, chunk, shared_movie_pool)
STREAM_CONFIGS = {
    "tiny": (120, 180, 192, 64, False),
    "few-users": (3, 40, 150, 64, False),  # every shard repeats each user
    "shared-pool": (50, 90, 160, 48, True),
    "one-row-shards": (40, 60, 3, 1, False),
    "ml9-world": (6000, 4000, 160, 96, False),
}
EAGER_CONFIGS = {
    "default": {},
    "few-users": {"num_users": 4, "records_per_genre": 2 * _SCORE_BLOCK + 7},
    "many-users": {"num_users": 3 * _SCORE_BLOCK, "num_movies": 90},
    "shared-pool": {"shared_movie_pool": True, "records_per_genre": 150},
}


def stream_arrays(config, seed):
    """Every array a stream benchmark holds: train shards, val and test."""
    num_users, num_movies, records, chunk, shared = STREAM_CONFIGS[config]
    bench = make_movielens_stream(
        genres=GENRES[:2],
        records_per_genre=records,
        chunk_size=chunk,
        num_users=num_users,
        num_movies=num_movies,
        shared_movie_pool=shared,
        val_records=max(records // 10, 1),
        test_records=max(records // 10, 1),
        seed=seed,
    )
    arrays = []
    for genre in bench.metadata["genres"]:
        stream = bench.train[genre]
        for index in range(stream.num_shards):
            arrays.extend(stream.load_shard(index))
        for split in (bench.val, bench.test):
            arrays.extend((split[genre].inputs, split[genre].targets))
    return arrays


def eager_arrays(config, seed):
    bench = make_movielens(genres=GENRES[:3], seed=seed, **EAGER_CONFIGS[config])
    return [
        array
        for split in (bench.train, bench.val, bench.test)
        for dataset in split.values()
        for array in (dataset.inputs, dataset.targets)
    ]


def assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "config, seed",
    # The ml9-sized world runs one seed: its oracle multiplies 183 MiB a shard.
    [(config, seed) for config in sorted(STREAM_CONFIGS) if config != "ml9-world"
     for seed in (0, 1, 2)] + [("ml9-world", 1)],
)
def test_streamed_shards_and_splits_match_oracle(config, seed, monkeypatch):
    blocked = stream_arrays(config, seed)
    monkeypatch.setattr(_World, "history_block", reference.history_block)
    assert_bitwise_equal(blocked, stream_arrays(config, seed))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("config", sorted(EAGER_CONFIGS))
def test_eager_datasets_match_oracle(config, seed, monkeypatch):
    blocked = eager_arrays(config, seed)
    monkeypatch.setattr(_World, "history", reference.history)
    assert_bitwise_equal(blocked, eager_arrays(config, seed))


@pytest.mark.parametrize("rows", [1, 2, _SCORE_BLOCK, _SCORE_BLOCK + 1, 3 * _SCORE_BLOCK])
def test_block_probabilities_match_full_product(rows):
    """Every block, a one-user block included, rounds like the (U, M) product."""
    world = _World(4 * _SCORE_BLOCK, 70, GENRES, 0.3, np.random.default_rng(4))
    users = np.random.default_rng(5).permutation(world.num_users)[:rows]
    scores = (world.users @ world.movies.T)[users]
    want = np.exp(0.5 * (scores - scores.max(axis=1, keepdims=True)))
    want /= want.sum(axis=1, keepdims=True)
    got = np.concatenate([probs.copy() for _, probs in world._history_probs(users)])
    assert got.tobytes() == want.tobytes()


def test_duplicate_users_draw_like_distinct_rows():
    world = _World(5, 30, GENRES, 0.3, np.random.default_rng(2))
    users = np.array([3, 0, 3, 3, 1, 0, 4, 3])
    got = world.history_block(users, np.random.default_rng(9))
    want = reference.history_block(world, users, np.random.default_rng(9))
    assert got.tobytes() == want.tobytes()


class _TopDrawRng:
    """Stands in for a Generator whose every uniform draw is 1 - 2**-53."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)


def test_draw_above_last_cdf_value_returns_movie_zero():
    world = _World(400, 500, GENRES, 0.3, np.random.default_rng(0))
    users = np.arange(world.num_users)
    got = world.history_block(users, _TopDrawRng())
    assert got.tobytes() == reference.history_block(world, users, _TopDrawRng()).tobytes()
    # Users whose CDF rounds to just under 1 match no movie: the parent's
    # argmax over an all-False row returned 0, and so must the sampler.
    scores = world.users @ world.movies.T
    probs = np.exp(0.5 * (scores - scores.max(axis=1, keepdims=True)))
    probs /= probs.sum(axis=1, keepdims=True)
    short = np.cumsum(probs, axis=1)[:, -1] < 1.0 - 2.0**-53
    assert short.any()
    assert (got[short] == 0).all()
    assert got.shape == (world.num_users, _SEQ_LEN)


def test_shard_peak_memory_stays_a_few_mib():
    """One shard never holds the (U, M) product: 183 MiB at this world."""
    bench = make_movielens_stream(
        genres=GENRES[:1],
        records_per_genre=512,
        chunk_size=512,
        num_users=6000,
        num_movies=4000,
        val_records=1,
        test_records=1,
        seed=0,
    )
    source = bench.train[GENRES[0]].source
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        source.generate_chunk(0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The scoring buffer is _SCORE_BLOCK x 4,000 float64 (1 MiB at 32); the
    # full-product sampler peaked at 232 MiB here.
    assert peak < 8 * 2**20, f"shard peak {peak / 2**20:.1f} MiB"

