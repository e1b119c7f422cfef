"""The serving fast path: ``inference_mode`` vs ``no_grad`` vs training."""

import threading

import numpy as np
import pytest

from repro.nn import Linear, ReLU, Sequential, Tensor, no_grad
from repro.nn.tensor import inference_mode, is_grad_enabled, is_inference_mode


@pytest.fixture
def model(rng):
    return Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 2, rng))


class TestSemantics:
    def test_flag_toggles_and_restores(self):
        assert not is_inference_mode()
        with inference_mode():
            assert is_inference_mode()
            with inference_mode():  # nesting is fine
                assert is_inference_mode()
            assert is_inference_mode()
        assert not is_inference_mode()

    def test_flag_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with inference_mode():
                raise RuntimeError("boom")
        assert not is_inference_mode()

    def test_outputs_carry_no_graph(self, model, rng):
        x = Tensor(rng.standard_normal((3, 4)))
        with inference_mode():
            out = model.forward(x)
        assert out.requires_grad is False
        assert out._prev == ()
        assert out._op == ""
        assert out.is_leaf
        assert out._ctx is None
        assert out.grad is None

    def test_matches_no_grad_bitwise(self, model, rng):
        x = rng.standard_normal((5, 4))
        with no_grad():
            expected = model.forward(Tensor(x)).data
        with inference_mode():
            actual = model.forward(Tensor(x)).data
        np.testing.assert_array_equal(actual, expected)

    def test_matches_training_forward_bitwise(self, model, rng):
        x = rng.standard_normal((5, 4))
        graph_out = model.forward(Tensor(x, requires_grad=True))
        assert graph_out.requires_grad  # the training forward does build a graph
        with inference_mode():
            fast = model.forward(Tensor(x)).data
        np.testing.assert_array_equal(fast, graph_out.data)

    def test_training_unaffected_after_exit(self, model, rng):
        with inference_mode():
            model.forward(Tensor(rng.standard_normal((2, 4))))
        x = Tensor(rng.standard_normal((2, 4)))
        out = model.forward(x)
        out.sum().backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).sum() > 0 for g in grads)

    def test_requires_grad_inputs_detached(self, rng):
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        with inference_mode():
            out = x @ w
        assert out.requires_grad is False
        assert out._prev == ()

    def test_fast_path_casts_non_float64_intermediates(self):
        # An op yielding a non-float64 array (e.g. int/float32 intermediates
        # from integer tabular inputs) must still get __init__'s float64
        # cast on the fast path, so serving dtype matches the graph path.
        t = Tensor(np.zeros((2, 3)))
        with inference_mode():
            out = t._make_child(np.ones((2, 3), dtype=np.float32), (t,), "test")
        assert out.data.dtype == np.float64


class TestThreadLocality:
    def test_flags_are_per_thread(self, model, rng):
        # A serving worker inside inference_mode must not flip the switches
        # for other threads of the same process.
        entered = threading.Event()
        release = threading.Event()
        errors = []

        def worker():
            try:
                with inference_mode():
                    entered.set()
                    assert release.wait(timeout=10)
                    assert is_inference_mode()
                    assert not is_grad_enabled()
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert entered.wait(timeout=10)
            # The caller thread still builds graphs mid-context.
            assert not is_inference_mode()
            assert is_grad_enabled()
            x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
            assert model.forward(x).requires_grad
        finally:
            release.set()
            thread.join(timeout=10)
        assert not errors

    def test_overlapping_contexts_on_two_threads_restore_cleanly(self):
        # Regression: with process-global flags, interleaved enter/exit from
        # two threads restored a stale snapshot and wedged the process in
        # inference mode.  Thread-local state makes the order irrelevant.
        barrier = threading.Barrier(2, timeout=10)
        errors = []

        def worker(hold: threading.Event, advance: threading.Event):
            try:
                barrier.wait()
                with inference_mode():
                    hold.set()
                    assert advance.wait(timeout=10)
                assert not is_inference_mode()
                assert is_grad_enabled()
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        a_in, a_go = threading.Event(), threading.Event()
        b_in, b_go = threading.Event(), threading.Event()
        a = threading.Thread(target=worker, args=(a_in, a_go))
        b = threading.Thread(target=worker, args=(b_in, b_go))
        a.start(), b.start()
        # Both enter, then A exits while B is still inside, then B exits.
        assert a_in.wait(timeout=10) and b_in.wait(timeout=10)
        a_go.set()
        a.join(timeout=10)
        b_go.set()
        b.join(timeout=10)
        assert not errors
        assert not is_inference_mode()
        assert is_grad_enabled()


class TestPerformance:
    def test_forward_not_slower_than_graph_forward(self, rng):
        # A smoke-level latency check (the real measurement lives in
        # benchmarks/bench_serve.py): median fast-path forward must not be
        # slower than the graph-building forward on a deep narrow model,
        # where per-op bookkeeping dominates BLAS time.
        import time

        model = Sequential(
            *[layer for _ in range(12) for layer in (Linear(16, 16, rng), ReLU())]
        )
        x = Tensor(rng.standard_normal((8, 16)))

        def median_seconds(fn, repeats=30):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return sorted(times)[len(times) // 2]

        def graph_forward():
            model.forward(Tensor(x.data, requires_grad=True))

        def fast_forward():
            with inference_mode():
                model.forward(x)

        graph_forward(), fast_forward()  # warm-up
        assert median_seconds(fast_forward) <= median_seconds(graph_forward) * 1.10
