"""Synthetic QM9-style molecular-property regression (Table II).

The real QM9 holds ~130k small molecules with 11 regression targets of
wildly different physical scales; the paper consumes it with GCN shared
layers in a **multi-input** setting (each property task gets its own
molecule batches).

This generator builds random molecule-like graphs (networkx: random trees
plus a few ring-closing edges, capped degrees, categorical "atom types")
and computes 11 properties as graph invariants at different scales and
smoothness levels:

====  =============================  =========================================
id    property                       invariant
====  =============================  =========================================
mu    dipole-like moment             atom-type-weighted degree imbalance
alpha polarizability-like            sum of squared degrees
homo  frontier-orbital energy        largest adjacency eigenvalue (negated)
lumo  frontier-orbital energy        second-largest adjacency eigenvalue
gap   homo-lumo gap                  spectral gap of the adjacency
r2    electronic spatial extent      mean shortest-path distance squared
zpve  zero-point vibrational energy  number of edges (bond count)
u0    internal energy at 0 K         weighted atom-mass sum
u298  internal energy at 298 K       u0 plus degree-entropy correction
h298  enthalpy                       u0 plus ring count
g298  free energy                    u0 minus algebraic connectivity
====  =============================  =========================================

All targets are standardized over the generated pool, then per-task noise
is added — heterogeneous relatedness between invariants is what recreates
QM9's task-conflict structure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..arch.encoders import GCNEncoder
from ..arch.heads import LinearHead
from ..arch.hps import HardParameterSharing
from ..metrics.regression import mae, rmse
from ..nn.functional import mse_loss
from ..nn.graph import normalize_adjacency
from .base import MULTI_INPUT, ArrayDataset, Benchmark, TaskSpec

if TYPE_CHECKING:  # networkx loads inside the functions that build or read graphs
    import networkx as nx

__all__ = ["PROPERTIES", "make_qm9", "generate_molecule", "molecule_properties"]

PROPERTIES = ("mu", "alpha", "homo", "lumo", "gap", "r2", "zpve", "u0", "u298", "h298", "g298")

_NUM_ATOM_TYPES = 4  # H, C, N, O stand-ins
_ATOM_MASSES = np.array([1.0, 12.0, 14.0, 16.0])
_MAX_NODES = 12


def generate_molecule(rng: np.random.Generator, min_atoms: int = 4, max_atoms: int = _MAX_NODES) -> nx.Graph:
    """One random molecule-like graph: a bounded-degree tree + ring closures.

    Grown by random attachment with a valence cap of 4 on every node, then
    0–2 ring-closing edges added where the cap allows.
    """
    import networkx as nx

    n = int(rng.integers(min_atoms, max_atoms + 1))
    graph = nx.Graph()
    graph.add_node(0)
    for node in range(1, n):
        candidates = [v for v in graph.nodes if graph.degree[v] < 4]
        parent = int(candidates[rng.integers(0, len(candidates))])
        graph.add_node(node)
        graph.add_edge(parent, node)
    # Close a few rings where degree allows (valence cap 4).
    for _ in range(int(rng.integers(0, 3))):
        u, v = rng.integers(0, n, size=2)
        if u != v and not graph.has_edge(u, v):
            if graph.degree[u] < 4 and graph.degree[v] < 4:
                graph.add_edge(int(u), int(v))
    types = rng.integers(0, _NUM_ATOM_TYPES, size=n)
    for node in graph.nodes:
        graph.nodes[node]["atom_type"] = int(types[node])
    return graph


def molecule_properties(graph: nx.Graph) -> np.ndarray:
    """The 11 raw graph invariants described in the module docstring."""
    import networkx as nx

    n = graph.number_of_nodes()
    degrees = np.array([d for _, d in graph.degree()], dtype=np.float64)
    types = np.array([graph.nodes[v]["atom_type"] for v in graph.nodes])
    masses = _ATOM_MASSES[types]
    adjacency = nx.to_numpy_array(graph)
    eigenvalues = np.sort(np.linalg.eigvalsh(adjacency))
    laplacian = np.diag(degrees) - adjacency
    lap_eigs = np.sort(np.linalg.eigvalsh(laplacian))
    path_lengths = dict(nx.all_pairs_shortest_path_length(graph))
    mean_distance = np.mean(
        [length for src in path_lengths.values() for length in src.values()]
    )
    degree_probs = degrees / degrees.sum()
    entropy = -np.sum(degree_probs * np.log(degree_probs + 1e-12))
    rings = graph.number_of_edges() - n + nx.number_connected_components(graph)
    u0 = float(masses.sum())
    return np.array(
        [
            float(np.abs(masses - masses.mean()).mean() * degrees.std()),  # mu
            float((degrees**2).sum()),  # alpha
            -float(eigenvalues[-1]),  # homo
            float(eigenvalues[-2]) if n > 1 else 0.0,  # lumo
            float(eigenvalues[-1] - eigenvalues[-2]) if n > 1 else 0.0,  # gap
            float(mean_distance**2),  # r2
            float(graph.number_of_edges()),  # zpve
            u0,  # u0
            u0 + float(entropy),  # u298
            u0 + float(rings),  # h298
            u0 - float(lap_eigs[1]) if n > 1 else u0,  # g298
        ]
    )


def _pad_graphs(graphs: list[nx.Graph]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense padded batch: node features, normalized adjacency, node mask."""
    import networkx as nx

    batch = len(graphs)
    features = np.zeros((batch, _MAX_NODES, _NUM_ATOM_TYPES + 1))
    adjacency = np.zeros((batch, _MAX_NODES, _MAX_NODES))
    mask = np.zeros((batch, _MAX_NODES))
    for b, graph in enumerate(graphs):
        n = graph.number_of_nodes()
        adjacency[b, :n, :n] = nx.to_numpy_array(graph)
        for v in graph.nodes:
            features[b, v, graph.nodes[v]["atom_type"]] = 1.0
            features[b, v, -1] = graph.degree[v] / 4.0
        mask[b, :n] = 1.0
    return features, normalize_adjacency(adjacency), mask


def make_qm9(
    properties: tuple[str, ...] = PROPERTIES,
    molecules_per_task: int = 250,
    hidden: tuple[int, ...] = (24, 16),
    noise: float = 0.15,
    val_molecules: int = 40,
    test_molecules: int = 120,
    seed: int = 0,
) -> Benchmark:
    """Build the multi-input molecular-property benchmark.

    ``molecules_per_task`` is the *training* set size per property; the
    validation/test pools are sized independently (``val_molecules`` /
    ``test_molecules``) so evaluation noise stays small even in the
    scarce-training-data regimes where MTL's transfer advantage shows.
    """
    unknown = set(properties) - set(PROPERTIES)
    if unknown:
        raise ValueError(f"unknown properties: {sorted(unknown)}")
    rng = np.random.default_rng(seed)

    # One shared pool to fit the standardization, then disjoint per-task sets.
    pool = [generate_molecule(rng) for _ in range(400)]
    pool_targets = np.stack([molecule_properties(g) for g in pool])
    means = pool_targets.mean(axis=0)
    stds = np.maximum(pool_targets.std(axis=0), 1e-9)

    def _labelled_dataset(count: int, prop_index: int, with_noise: bool) -> ArrayDataset:
        graphs = [generate_molecule(rng) for _ in range(count)]
        raw = np.array([molecule_properties(g)[prop_index] for g in graphs])
        targets = (raw - means[prop_index]) / stds[prop_index]
        if with_noise:
            targets = targets + noise * rng.normal(size=len(targets))
        features, adjacency, mask = _pad_graphs(graphs)
        return ArrayDataset((features, adjacency, mask), targets)

    train, val, test = {}, {}, {}
    for prop in properties:
        prop_index = PROPERTIES.index(prop)
        train[prop] = _labelled_dataset(molecules_per_task, prop_index, with_noise=True)
        val[prop] = _labelled_dataset(val_molecules, prop_index, with_noise=False)
        test[prop] = _labelled_dataset(test_molecules, prop_index, with_noise=False)

    tasks = [
        TaskSpec(
            prop,
            mse_loss,
            {"mae": lambda o, t: mae(o, t), "rmse": lambda o, t: rmse(o, t)},
            {"mae": False, "rmse": False},
        )
        for prop in properties
    ]

    in_features = _NUM_ATOM_TYPES + 1

    def build_model(architecture: str, model_rng: np.random.Generator | None, tasks):
        if architecture != "hps":
            raise ValueError("qm9 reproduction uses the paper's GCN + HPS stack only")
        model_rng = model_rng or np.random.default_rng(seed)
        encoder = GCNEncoder(in_features, list(hidden), model_rng)
        heads = {prop: LinearHead(hidden[-1], 1, model_rng) for prop in tasks}
        return HardParameterSharing(encoder, heads)

    return Benchmark(
        name="qm9",
        mode=MULTI_INPUT,
        tasks=tasks,
        train=train,
        val=val,
        test=test,
        build_model=build_model,
        metadata={"properties": tuple(properties), "noise": noise},
    )
