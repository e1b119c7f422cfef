"""Reference implementations the equivalence suites and ratio benches use.

Each module keeps the straightforward version of a fast path that ships in
``src/``: the per-task backward loop (``trainer``), the per-pair balancer
loop kernels (``balancers``) and the per-parameter optimizer loop kernels
(``optim``).  None of them is reachable from the library; the tests
compare the production path against them and the benchmarks in
``benchmarks/`` divide by their timings.
"""
