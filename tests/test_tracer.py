"""The API that the benchmark's span tracer (perfbench/spans.py) wraps.

The tracer wraps clusterlab functions by name from outside the package, so a
rename or a changed result type would silently leave a layer untraced.  This
test loads the tracer unchanged, runs one snake and one band expansion and
one mutation sequence under it, and checks that both snake spans carry work
counts, that `mutate_seq` goes through the wrapped `mutation.mutate`, and that
`uninstall` puts every original back.  A second test guards the names that
the benchmark reads without the tracer.
"""

import importlib.util
from pathlib import Path

import clusterlab
from clusterlab import algebra, mutation, snake, verify
from clusterlab.surface import ArcCrossing, builtin_genus1

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SNAKE_API = ("build_snake", "build_band", "trim_to_band", "expand", "expand_band")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_snake_api_and_uninstalls():
    spans = _load_spans()
    originals = {name: getattr(snake, name) for name in SNAKE_API}
    enumerate_masks = snake.MatchingGraph.__dict__["enumerate_masks"]
    mul, cases = algebra.LaurentPolynomial.__dict__["__mul__"], dict(verify.CASES)
    mutate = mutation.mutate
    T = builtin_genus1()

    tracer = spans.Tracer()
    tracer.install()
    try:
        for name in SNAKE_API:
            assert getattr(snake, name) is not originals[name], name
        assert snake.MatchingGraph.__dict__["enumerate_masks"] is not enumerate_masks
        S = snake.build_snake(T, ArcCrossing((4, 2, 1, 4)))
        arc = snake.expand(S)
        B = snake.build_band(T, T.boundary_loop())
        loop = snake.expand_band(B)
        mutation.mutate_seq(mutation.initial_seed(T.exchange_matrix()), (1, 2, 3))
        stats = tracer.spans.layer_stats()
    finally:
        tracer.uninstall()

    assert stats["snake.build"]["calls"] == 2
    assert stats["snake.build"]["work"] == len(S.tiles) + len(B.tiles) == 12
    assert stats["snake.expand"]["calls"] == 2
    assert stats["snake.expand"]["work"] == len(arc.terms) + len(loop.terms) > 0
    assert stats["mutation.mutate"]["calls"] == 3
    # the wrappers were also installed wherever clusterlab imported a name
    for module in (clusterlab, snake, verify):
        for name in SNAKE_API:
            assert vars(module).get(name, originals[name]) is originals[name], (module, name)
    assert snake.MatchingGraph.__dict__["enumerate_masks"] is enumerate_masks
    assert algebra.LaurentPolynomial.__dict__["__mul__"] is mul
    assert mutation.mutate is mutate
    assert verify.CASES == cases


def test_names_the_benchmark_reads_outside_the_tracer():
    # The benchmark also reads these names directly; deleting one would still
    # pass every other test here and break only the benchmark run.
    T = builtin_genus1()
    # perfbench/workloads.py, ArcSweep.check:
    #   len(snake.all_matchings_bruteforce(snake.build_snake(self.T, a)))
    assert len(snake.all_matchings_bruteforce(snake.build_snake(T, ArcCrossing((1, 3))))) > 0
    # perfbench/run.py, machine info: "kernel_backend": clusterlab.KERNEL_BACKEND
    assert isinstance(clusterlab.KERNEL_BACKEND, str)
    # perfbench/workloads.py, _fingerprint:
    #   repr(seed.B) and repr(tuple(y.exps for y in seed.coeffs))
    seed = mutation.initial_seed(T.exchange_matrix())
    assert seed.B == tuple(row[: seed.n] for row in seed.M)
    assert [y.exps for y in seed.coeffs] == [row[seed.n :] for row in seed.M]
