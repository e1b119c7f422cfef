"""Tests for the six synthetic benchmark generators."""

import networkx as nx
import numpy as np
import pytest

from repro.data import (
    COUNTRIES,
    DOMAINS,
    GENRES,
    MULTI_INPUT,
    PROPERTIES,
    SINGLE_INPUT,
    generate_molecule,
    make_aliexpress,
    make_aliexpress_suite,
    make_cityscapes,
    make_movielens,
    make_nyuv2,
    make_officehome,
    make_qm9,
    molecule_properties,
)
from repro.data.cityscapes import NUM_CLASSES as CITY_CLASSES
from repro.data.cityscapes import render_street
from repro.data.nyuv2 import NUM_CLASSES as NYU_CLASSES
from repro.data.nyuv2 import render_scene


class TestAliExpress:
    def test_structure(self):
        bench = make_aliexpress("ES", num_records=300, seed=0)
        assert bench.mode == SINGLE_INPUT
        assert bench.task_names == ["CTR", "CTCVR"]
        assert len(bench.train) + len(bench.val) + len(bench.test) == 300

    def test_funnel_nesting(self):
        """CTCVR labels are a subset of CTR labels (conversion needs a click)."""
        bench = make_aliexpress("ES", num_records=500, seed=1)
        _, targets = bench.train.all()
        assert np.all(targets["CTCVR"] <= targets["CTR"])

    def test_base_rates_ordered(self):
        bench = make_aliexpress("US", num_records=2000, seed=0)
        _, targets = bench.train.all()
        ctr_rate = targets["CTR"].mean()
        ctcvr_rate = targets["CTCVR"].mean()
        assert 0.05 < ctcvr_rate < ctr_rate < 0.6

    def test_unknown_country(self):
        with pytest.raises(ValueError):
            make_aliexpress("DE")

    def test_suite_covers_four_countries(self):
        suite = make_aliexpress_suite(num_records=200)
        assert set(suite) == set(COUNTRIES)

    def test_deterministic(self):
        a = make_aliexpress("FR", num_records=200, seed=5)
        b = make_aliexpress("FR", num_records=200, seed=5)
        xa, ya = a.train.all()
        xb, yb = b.train.all()
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya["CTR"], yb["CTR"])

    def test_model_factories(self, rng):
        bench = make_aliexpress("NL", num_records=200)
        for arch in ("hps", "mmoe", "cgc", "ple"):
            model = bench.build_model(arch, rng)
            x, _ = bench.train.batch(np.arange(4))
            assert model.forward(x, "CTR").shape == (4,)
        with pytest.raises(ValueError):
            bench.build_model("mtan", rng)

    def test_stl_model_single_task(self, rng):
        bench = make_aliexpress("ES", num_records=200)
        model = bench.build_model("hps", rng, tasks=("CTCVR",))
        assert model.task_names == ["CTCVR"]


class TestMovieLens:
    def test_structure(self):
        bench = make_movielens(genres=GENRES[:3], records_per_genre=100, seed=0)
        assert bench.mode == MULTI_INPUT
        assert set(bench.train) == set(GENRES[:3])

    def test_ratings_in_star_range(self):
        bench = make_movielens(genres=GENRES[:2], records_per_genre=200)
        for genre in GENRES[:2]:
            _, ratings = bench.train[genre].all()
            assert ratings.min() >= 1.0
            assert ratings.max() <= 5.0

    def test_input_layout(self):
        bench = make_movielens(genres=GENRES[:1], records_per_genre=50)
        inputs, _ = bench.train[GENRES[0]].all()
        assert inputs.shape[1] == 6  # user + movie + 4 history
        assert inputs.dtype == np.int64

    def test_genre_pools_disjoint(self):
        bench = make_movielens(genres=GENRES[:3], records_per_genre=150, num_movies=90)
        movie_sets = []
        for genre in GENRES[:3]:
            inputs, _ = bench.train[genre].all()
            movie_sets.append(set(inputs[:, 1]))
        assert movie_sets[0].isdisjoint(movie_sets[1])
        assert movie_sets[1].isdisjoint(movie_sets[2])

    def test_unknown_genre(self):
        with pytest.raises(ValueError):
            make_movielens(genres=("Action",))

    def test_mmoe_architecture_supported(self, rng):
        bench = make_movielens(genres=GENRES[:2], records_per_genre=60)
        model = bench.build_model("mmoe", rng)
        x, _ = bench.train[GENRES[0]].batch(np.arange(3))
        assert model.forward(x, GENRES[0]).shape == (3,)


class TestQM9:
    def test_molecule_generation(self, rng):
        for _ in range(10):
            mol = generate_molecule(rng)
            assert nx.is_connected(mol)
            assert 4 <= mol.number_of_nodes() <= 12
            assert max(d for _, d in mol.degree()) <= 4

    def test_properties_vector(self, rng):
        props = molecule_properties(generate_molecule(rng))
        assert props.shape == (len(PROPERTIES),)
        assert np.all(np.isfinite(props))

    def test_ring_count_invariant(self, rng):
        mol = generate_molecule(rng)
        props = molecule_properties(mol)
        rings = mol.number_of_edges() - mol.number_of_nodes() + 1
        # h298 − u0 = ring count for connected graphs
        assert props[9] - props[7] == pytest.approx(rings)

    def test_benchmark_structure(self):
        bench = make_qm9(properties=PROPERTIES[:3], molecules_per_task=40)
        assert bench.mode == MULTI_INPUT
        inputs, targets = bench.train[PROPERTIES[0]].all()
        nodes, adjacency, mask = inputs
        assert nodes.shape[1:] == (12, 5)
        assert adjacency.shape[1:] == (12, 12)
        assert np.all(np.isfinite(targets))

    def test_targets_standardized(self):
        bench = make_qm9(properties=PROPERTIES[:2], molecules_per_task=150, seed=0)
        for prop in PROPERTIES[:2]:
            _, targets = bench.train[prop].all()
            assert abs(targets.mean()) < 1.0
            assert 0.2 < targets.std() < 3.0

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            make_qm9(properties=("bogus",))

    def test_only_hps(self, rng):
        bench = make_qm9(properties=PROPERTIES[:2], molecules_per_task=30)
        with pytest.raises(ValueError):
            bench.build_model("mmoe", rng)


class TestNYUv2:
    def test_render_consistency(self, rng):
        image, seg, depth, normals = render_scene(rng)
        assert image.shape == (3, 16, 16)
        assert seg.shape == (16, 16)
        assert depth.shape == (16, 16)
        assert normals.shape == (3, 16, 16)
        assert seg.min() >= 0 and seg.max() < NYU_CLASSES

    def test_normals_unit_length(self, rng):
        _, _, _, normals = render_scene(rng)
        norms = np.linalg.norm(normals, axis=0)
        np.testing.assert_allclose(norms, np.ones_like(norms), atol=1e-9)

    def test_floor_geometry(self, rng):
        """Floor pixels (class 1) have +y normals and closer depth at bottom."""
        _, seg, depth, normals = render_scene(rng)
        floor = seg == 1
        if floor.any():
            np.testing.assert_allclose(normals[1][floor], np.ones(floor.sum()))
        # Wall depth is the far plane.
        wall = seg == 0
        if wall.any():
            assert depth[wall].max() == pytest.approx(5.0)

    def test_benchmark_structure(self):
        bench = make_nyuv2(num_scenes=30)
        assert bench.mode == SINGLE_INPUT
        assert bench.task_names == ["segmentation", "depth", "normal"]
        x, targets = bench.train.all()
        assert x.shape[1:] == (3, 16, 16)
        assert set(targets) == {"segmentation", "depth", "normal"}


class TestCityScapes:
    def test_render_layout(self, rng):
        image, seg, depth = render_street(rng)
        assert seg.min() >= 0 and seg.max() < CITY_CLASSES
        # Sky at the top, far away.
        assert seg[0].min() == seg[0].max() == 1
        assert depth[0].max() == pytest.approx(50.0)
        # Road at the bottom.
        assert seg[-1].min() == seg[-1].max() == 0

    def test_depth_normalized_targets(self):
        bench = make_cityscapes(num_scenes=20)
        _, targets = bench.train.all()
        assert targets["depth"].max() <= 5.0 + 1e-9

    def test_all_architectures_buildable(self, rng):
        bench = make_cityscapes(num_scenes=20)
        x, _ = bench.train.batch(np.arange(2))
        for arch in ("hps", "mmoe", "cgc", "cross_stitch", "mtan"):
            model = bench.build_model(arch, rng)
            out = model.forward(x, "segmentation")
            assert out.shape == (2, CITY_CLASSES, 16, 16)
        with pytest.raises(ValueError):
            bench.build_model("bogus", rng)


class TestOfficeHome:
    def test_structure(self):
        bench = make_officehome(num_classes=5, samples_per_domain=60)
        assert bench.mode == MULTI_INPUT
        assert set(bench.train) == set(DOMAINS)

    def test_split_follows_paper(self):
        bench = make_officehome(num_classes=5, samples_per_domain=100)
        assert len(bench.train["Art"]) == 60
        assert len(bench.val["Art"]) == 20
        assert len(bench.test["Art"]) == 20

    def test_labels_in_range(self):
        bench = make_officehome(num_classes=7, samples_per_domain=50)
        for domain in DOMAINS:
            _, labels = bench.train[domain].all()
            assert labels.min() >= 0
            assert labels.max() < 7

    def test_domains_share_classes_but_differ_in_style(self):
        bench = make_officehome(num_classes=3, samples_per_domain=300, seed=0)
        means = {}
        for domain in DOMAINS:
            images, _ = bench.train[domain].all()
            means[domain] = images.mean()
        values = list(means.values())
        assert np.std(values) > 0.01  # styles shift the statistics

    def test_invalid_classes(self):
        with pytest.raises(ValueError):
            make_officehome(num_classes=1)
