"""Reference implementations the equivalence suites and ratio benches use.

Each module keeps the straightforward version of a fast path that ships in
``src/``: the per-task backward loop (``trainer``), the per-pair balancer
loop kernels (``balancers``), the per-parameter optimizer loop kernels
(``optim``), the full-product MovieLens history samplers
(``movielens``) and the composite graphs the fused ``repro.nn`` ops
replace (``nn``).  None of them is reachable from the library; the tests
compare the production path against them and the benchmarks in
``benchmarks/`` divide by their timings.
"""
