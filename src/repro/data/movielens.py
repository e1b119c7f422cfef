"""Synthetic MovieLens-style per-genre rating regression (Fig. 1/2, Table II).

The paper follows Hu et al. and treats rating regression for movies of each
selected genre as a separate task (9 genres ⇒ 9 tasks), trained with a
BST-style shared encoder.  Each genre has its own (user, movie) records, so
this is **multi-input** MTL.

Generator structure:

- global user and movie latent vectors;
- per-genre *taste rotations*: the rating of user u for movie m in genre g
  is ``μ_g + uᵀ R_g v + noise`` clipped to the 1–5 star range.  The
  rotations share a controlled common component (``relatedness``), which
  sets how much the genres conflict — the knob behind Fig. 1's degradation
  of task A when more genres join the run;
- behaviour sequences: each record carries the user's recent movie ids
  (biased toward movies the user rates highly), consumed by the BST
  encoder exactly as in the paper's MovieLens stack.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..arch.encoders import BSTEncoder
from ..arch.heads import LinearHead
from ..arch.hps import HardParameterSharing
from ..arch.mmoe import MMoE
from ..metrics.regression import mae, rmse
from ..nn.functional import mse_loss
from ..nn.tensor import Tensor
from .base import MULTI_INPUT, ArrayDataset, Benchmark, TaskSpec, train_val_test_split

__all__ = ["GENRES", "make_movielens"]

GENRES = (
    "Crime",
    "Documentary",
    "Fantasy",
    "FilmNoir",
    "Horror",
    "Mystery",
    "Thriller",
    "War",
    "Western",
)

_LATENT_DIM = 10
_SEQ_LEN = 4
#: Users scored together when drawing histories: one reused
#: ``(block, num_movies)`` float64 buffer, 1 MiB at 4,000 movies.  Shard
#: time is flat from 16 to 128 (6,000 x 4,000 world, 4,096-row shard).
_SCORE_BLOCK = 32


class _World:
    """Shared ground truth: users, movies, genre rotations."""

    def __init__(
        self,
        num_users: int,
        num_movies: int,
        genres: tuple[str, ...],
        relatedness: float,
        rng: np.random.Generator,
        shared_movie_pool: bool = False,
    ) -> None:
        self.num_users = num_users
        self.num_movies = num_movies
        self.genres = genres
        self.relatedness = float(relatedness)
        self.users = rng.normal(scale=1.0, size=(num_users, _LATENT_DIM))
        self.movies = rng.normal(scale=1.0, size=(num_movies, _LATENT_DIM))
        common = rng.normal(size=(_LATENT_DIM, _LATENT_DIM))
        self.rotations = {}
        self.biases = {}
        for genre in genres:
            unique = rng.normal(size=(_LATENT_DIM, _LATENT_DIM))
            blend = np.sqrt(relatedness) * common + np.sqrt(1.0 - relatedness) * unique
            # Orthogonalize so every genre's map preserves scale.
            q, _ = np.linalg.qr(blend)
            self.rotations[genre] = q
            self.biases[genre] = 3.0 + 0.4 * rng.normal()
        # Genre → movie pool: disjoint slices by default (like real genre
        # labels); a shared pool when the conflict analysis needs both
        # tasks to exercise the same embeddings (Fig. 2).
        if shared_movie_pool:
            self.pools = {genre: np.arange(num_movies) for genre in genres}
        else:
            per_genre = num_movies // len(genres)
            self.pools = {
                genre: np.arange(i * per_genre, (i + 1) * per_genre)
                for i, genre in enumerate(genres)
            }

    def rating(self, user: np.ndarray, movie: np.ndarray, genre: str, rng) -> np.ndarray:
        affinity = np.einsum(
            "nd,de,ne->n", self.users[user], self.rotations[genre], self.movies[movie]
        ) / np.sqrt(_LATENT_DIM)
        raw = self.biases[genre] + affinity + 0.3 * rng.normal(size=len(user))
        return np.clip(raw, 1.0, 5.0)

    def _history_probs(self, users: np.ndarray):
        """Yield ``(lo, probs)``: the history distribution of ``users[lo:lo + len(probs)]``.

        A softmax of half each user's affinity to every movie, computed
        :data:`_SCORE_BLOCK` users at a time in one reused ``(block, M)``
        buffer, so the full ``(U, M)`` product is never formed.  Each
        yielded block is overwritten by the next.
        """
        # With ``out=``, numpy 2.4 multiplies by a transposed view about 80x
        # slower than by a contiguous copy (32 x 10 @ 10 x 4,000).
        movies_t = np.ascontiguousarray(self.movies.T)
        buffer = np.empty((max(min(len(users), _SCORE_BLOCK), 2), self.num_movies))
        for lo in range(0, len(users), _SCORE_BLOCK):
            block = users[lo : lo + _SCORE_BLOCK]
            # A one-row product runs as a matrix-vector kernel that rounds
            # differently from the (U, M) product; score such a user twice.
            probs = buffer[: max(len(block), 2)]
            np.matmul(self.users[np.resize(block, len(probs))], movies_t, out=probs)
            probs -= probs.max(axis=1, keepdims=True)
            probs *= 0.5
            np.exp(probs, out=probs)
            probs /= probs.sum(axis=1, keepdims=True)
            yield lo, probs[: len(block)]

    def history(self, user: np.ndarray, rng) -> np.ndarray:
        """Recent movie ids per user, biased toward high-affinity movies.

        One ``rng.choice`` per row, in row order; each block of rows
        scores its unique users once.
        """
        histories = np.empty((len(user), _SEQ_LEN), dtype=np.int64)
        for start in range(0, len(user), _SCORE_BLOCK):
            unique, inverse = np.unique(user[start : start + _SCORE_BLOCK], return_inverse=True)
            [(_, probs)] = self._history_probs(unique)
            for row, index in enumerate(inverse, start=start):
                histories[row] = rng.choice(self.num_movies, size=_SEQ_LEN, p=probs[index])
        return histories

    def history_block(self, user: np.ndarray, rng) -> np.ndarray:
        """Vectorized :meth:`history` (same distribution, different draws).

        One inverse-CDF sample per (row, slot) instead of a per-row
        ``rng.choice`` loop — the chunked generators call this per shard,
        where the loop would dominate generation time.  Each unique user's
        CDF is built once and serves all of that user's rows; a draw above
        its last value (rounding leaves it just under 1) returns movie 0.
        """
        draws = rng.random((len(user), _SEQ_LEN))
        histories = np.empty((len(user), _SEQ_LEN), dtype=np.int64)
        unique, inverse = np.unique(user, return_inverse=True)
        order = np.argsort(inverse)
        bounds = np.searchsorted(inverse[order], np.arange(len(unique) + 1))
        for lo, cdf in self._history_probs(unique):
            np.cumsum(cdf, axis=1, out=cdf)
            for index, user_cdf in enumerate(cdf, start=lo):
                rows = order[bounds[index] : bounds[index + 1]]
                histories[rows] = np.searchsorted(user_cdf, draws[rows], side="left")
        histories[histories == self.num_movies] = 0
        return histories


def _task_specs(genres: tuple[str, ...]) -> list[TaskSpec]:
    """Per-genre MSE/RMSE/MAE regression tasks (eager + streaming)."""

    def rmse_metric(outputs: np.ndarray, targets: np.ndarray) -> float:
        return rmse(outputs, targets)

    def mae_metric(outputs: np.ndarray, targets: np.ndarray) -> float:
        return mae(outputs, targets)

    return [
        TaskSpec(
            genre,
            mse_loss,
            {"rmse": rmse_metric, "mae": mae_metric},
            {"rmse": False, "mae": False},
        )
        for genre in genres
    ]


def _build_model(
    num_users: int,
    num_movies: int,
    embedding_dim: int,
    out_features: int,
    seed: int,
    architecture: str,
    model_rng: np.random.Generator | None,
    tasks: tuple[str, ...],
):
    """The benchmark's model builder, bound to its knobs with ``partial``.

    Draws the genre heads before the encoder(s).
    """
    model_rng = model_rng or np.random.default_rng(seed)
    heads = {genre: LinearHead(out_features, 1, model_rng) for genre in tasks}

    def encoder() -> BSTEncoder:
        return BSTEncoder(
            num_users, num_movies, _SEQ_LEN, embedding_dim, out_features, model_rng
        )

    def gate_input(x) -> Tensor:
        scale = np.array([num_users, num_movies] + [num_movies] * _SEQ_LEN, dtype=np.float64)
        return Tensor(np.asarray(x, dtype=np.float64) / scale)

    if architecture == "hps":
        return HardParameterSharing(encoder(), heads)
    if architecture == "mmoe":
        return MMoE(
            encoder,
            num_experts=3,
            heads=heads,
            gate_in_features=2 + _SEQ_LEN,
            rng=model_rng,
            gate_input_fn=gate_input,
        )
    raise ValueError(f"movielens supports hps/mmoe; got {architecture!r}")


def make_movielens(
    genres: tuple[str, ...] = GENRES,
    records_per_genre: int = 600,
    num_users: int = 120,
    num_movies: int = 180,
    relatedness: float = 0.3,
    embedding_dim: int = 8,
    out_features: int = 16,
    shared_movie_pool: bool = False,
    seed: int = 0,
) -> Benchmark:
    """Build the multi-input per-genre rating-regression benchmark.

    ``genres`` may be any subset of :data:`GENRES` — Fig. 1/2 use the first
    three (tasks A, B, C in the paper's notation).  With
    ``shared_movie_pool=True`` all genres rate the same movies (used by the
    TCI–GCD analysis so both tasks exercise the same embedding rows).
    """
    unknown = set(genres) - set(GENRES)
    if unknown:
        raise ValueError(f"unknown genres: {sorted(unknown)}")
    rng = np.random.default_rng(seed)
    world = _World(
        num_users, num_movies, tuple(genres), relatedness, rng,
        shared_movie_pool=shared_movie_pool,
    )

    train, val, test = {}, {}, {}
    for genre in genres:
        users = rng.integers(0, num_users, size=records_per_genre)
        movies = rng.choice(world.pools[genre], size=records_per_genre)
        ratings = world.rating(users, movies, genre, rng)
        histories = world.history(users, rng)
        inputs = np.concatenate(
            [users[:, None], movies[:, None], histories], axis=1
        ).astype(np.int64)
        dataset = ArrayDataset(inputs, ratings)
        tr, va, te = train_val_test_split(records_per_genre, rng, 0.1, 0.1)
        train[genre] = dataset.subset(tr)
        val[genre] = dataset.subset(va)
        test[genre] = dataset.subset(te)

    return Benchmark(
        name="movielens",
        mode=MULTI_INPUT,
        tasks=_task_specs(tuple(genres)),
        train=train,
        val=val,
        test=test,
        build_model=partial(
            _build_model, num_users, num_movies, embedding_dim, out_features, seed
        ),
        metadata={"genres": tuple(genres), "relatedness": relatedness},
    )
