"""``repro.data`` — six synthetic stand-ins for the paper's benchmarks.

See DESIGN.md for the substitution rationale of each generator.
"""

from .aliexpress import COUNTRIES, make_aliexpress, make_aliexpress_suite
from .base import (
    MULTI_INPUT,
    SINGLE_INPUT,
    ArrayDataset,
    Benchmark,
    TaskSpec,
    batch_count,
    batch_index_iter,
    shard_rng,
    train_val_test_split,
)
from .cityscapes import make_cityscapes
from .latent import correlated_task_matrix, orthogonal_complement_mix, task_directions
from .movielens import GENRES, make_movielens
from .nyuv2 import make_nyuv2
from .officehome import DOMAINS, make_officehome
from .qm9 import PROPERTIES, generate_molecule, make_qm9, molecule_properties
from .shardcache import ShardCache
from .streaming import (
    ChunkedSource,
    DataLoader,
    EagerSource,
    StreamingDataset,
    as_stream,
    num_shards,
    shard_row_range,
    streaming_batch_count,
)
from .streams import (
    AliExpressStream,
    MovieLensGenreStream,
    SyntheticStream,
    make_aliexpress_stream,
    make_movielens_stream,
    make_synthetic_stream,
)
from .synthetic import make_synthetic_mtl, uniform_conflict_gram

__all__ = [
    "TaskSpec",
    "ArrayDataset",
    "DataLoader",
    "Benchmark",
    "train_val_test_split",
    "batch_count",
    "batch_index_iter",
    "shard_rng",
    "SINGLE_INPUT",
    "MULTI_INPUT",
    "task_directions",
    "correlated_task_matrix",
    "orthogonal_complement_mix",
    "COUNTRIES",
    "make_aliexpress",
    "make_aliexpress_suite",
    "GENRES",
    "make_movielens",
    "PROPERTIES",
    "make_qm9",
    "generate_molecule",
    "molecule_properties",
    "make_nyuv2",
    "make_cityscapes",
    "DOMAINS",
    "make_officehome",
    "make_synthetic_mtl",
    "uniform_conflict_gram",
    "ShardCache",
    "ChunkedSource",
    "EagerSource",
    "StreamingDataset",
    "as_stream",
    "num_shards",
    "shard_row_range",
    "streaming_batch_count",
    "AliExpressStream",
    "MovieLensGenreStream",
    "SyntheticStream",
    "make_aliexpress_stream",
    "make_movielens_stream",
    "make_synthetic_stream",
]
