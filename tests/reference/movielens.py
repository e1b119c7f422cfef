"""Full-product history samplers of the MovieLens world.

:class:`repro.data.movielens._World` draws behaviour histories by scoring
each *unique* user of a request in row blocks.  The functions here are the
straightforward versions it replaced: they multiply every user by every
movie (the whole ``(U, M)`` affinity matrix) on each call and then index
the sampled rows.  They consume the generator identically, so the blocked
world must return bitwise equal histories for the same ``rng`` state.
"""

from __future__ import annotations

import numpy as np

from repro.data.movielens import _SEQ_LEN


def history(world, user: np.ndarray, rng) -> np.ndarray:
    """Eager histories: one ``rng.choice`` per row over the full product."""
    histories = np.empty((len(user), _SEQ_LEN), dtype=np.int64)
    scores = world.users @ world.movies.T  # (U, M) rough global affinity
    for row, u in enumerate(user):
        probs = np.exp(0.5 * (scores[u] - scores[u].max()))
        probs /= probs.sum()
        histories[row] = rng.choice(world.num_movies, size=_SEQ_LEN, p=probs)
    return histories


def history_block(world, user: np.ndarray, rng) -> np.ndarray:
    """Streamed histories: one inverse-CDF draw per (row, slot).

    Builds ``(rows, M)`` logits, probabilities and CDF from the full
    product and takes each draw with a full-width ``argmax``; a draw above
    the row's last CDF value matches nothing and so returns movie 0.
    """
    scores = world.users @ world.movies.T
    logits = 0.5 * (scores[user] - scores[user].max(axis=1, keepdims=True))
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)
    draws = rng.random((len(user), _SEQ_LEN))
    histories = np.empty((len(user), _SEQ_LEN), dtype=np.int64)
    for slot in range(_SEQ_LEN):
        histories[:, slot] = (cdf >= draws[:, slot : slot + 1]).argmax(axis=1)
    return histories
