"""Tests of the benchmark's own tracer, instance budget and checks.

    python -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import importlib
import signal
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracer import END, NAME, PARENT, START, Tracer  # noqa: E402


@pytest.fixture
def toy():
    mod = types.ModuleType("toy_layers")

    def inner(x):
        time.sleep(0.002)
        return x + 1

    def outer(x):
        time.sleep(0.002)
        return mod.inner(mod.inner(x))

    def broken():
        raise RuntimeError("boom")

    mod.inner, mod.outer, mod.broken = inner, outer, broken
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_self_times_within_inclusive_time(toy):
    tracer = Tracer()
    tracer.wrap("toy_layers", "outer", "toy.outer")
    tracer.wrap("toy_layers", "inner", "toy.inner")
    with tracer.span("root"):
        assert toy.outer(1) == 3
        assert toy.inner(0) == 1
    assert tracer.restore() == []

    names = [s[NAME] for s in tracer.spans]
    assert names == ["root", "toy.outer", "toy.inner", "toy.inner", "toy.inner"]
    assert [s[PARENT] for s in tracer.spans] == [None, 0, 1, 1, 0]
    self_t = tracer.self_times()
    root = tracer.spans[0]
    inclusive = root[END] - root[START]
    assert all(t >= 0 for t in self_t)
    assert sum(self_t) <= inclusive + 1e-9
    assert sum(self_t) == pytest.approx(inclusive, abs=1e-9)
    outer = tracer.spans[1]
    children = sum(s[END] - s[START] for s in tracer.spans[2:4])
    assert self_t[1] == pytest.approx(outer[END] - outer[START] - children)


def test_exception_closes_span_and_propagates(toy):
    with Tracer() as tracer:
        tracer.wrap("toy_layers", "broken", "toy.broken")
        with pytest.raises(RuntimeError):
            toy.broken()
        assert tracer.spans[0][END] is not None
        assert tracer._stack == []


def test_restore_after_context_exit(toy):
    originals = (toy.inner, toy.outer)
    with Tracer() as tracer:
        tracer.wrap("toy_layers", "inner", "toy.inner")
        tracer.wrap("toy_layers", "outer", "toy.outer")
        assert toy.inner is not originals[0]
    assert (toy.inner, toy.outer) == originals


def test_unswap_module_is_shadowed_by_its_function():
    import mirrorbreak.unswap as shadowed

    assert isinstance(shadowed, types.FunctionType)
    assert isinstance(importlib.import_module("mirrorbreak.unswap"), types.ModuleType)


def test_benchmark_wraps_restore_and_record_every_layer():
    mb = importlib.import_module("mirrorbreak")
    wl = importlib.import_module("workloads")
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in run.WRAPPED}
    tracer = Tracer()
    for module_name, attr, name in run.WRAPPED:
        tracer.wrap(module_name, attr, name, run.INSPECT.get(name))
    try:
        inst = mb.generate(n=6, depth=12, peak_weight=0.5, obfuscation_swaps=2, seed=3)
        cfg = mb.ContractionConfig(epsilon=1e-8, tau=100, side_mode="adaptive", stall_limit=40)
        with tracer.span("driver.run"):
            result = mb.run(mb.parse_qasm(mb.serialize_qasm(inst.circuit)), cfg)
        mb.sample_output(result, 10, seed=0)
        wl.WORKLOADS["hidden-perm"].make(0, 0)
    finally:
        assert tracer.restore() == []
    for (m, a), original in originals.items():
        assert getattr(importlib.import_module(m), a) is original
    seen = {s[NAME] for s in tracer.spans}
    for name in ("chains.absorb_gate", "chains.compress", "unswap.unswap", "tensor.svd_truncate",
                 "chains.move_center", "unswap.truncation_rank", "routing.route_linear",
                 "chains.apply_to_zero", "chains.sample", "peaked.generate"):
        assert name in seen, name
    self_t = tracer.self_times()
    run_span = next(i for i, s in enumerate(tracer.spans) if s[NAME] == "driver.run")
    inside = [i for i, s in enumerate(tracer.spans) if _under(tracer.spans, i, run_span)]
    span = tracer.spans[run_span]
    assert sum(self_t[i] for i in inside) <= span[END] - span[START] + 1e-9


def _under(spans, i, root):
    while i is not None:
        if i == root:
            return True
        i = spans[i][PARENT]
    return False


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def test_budget_and_deadline_fail_instances_without_stopping_the_run(alarm):
    mb = importlib.import_module("mirrorbreak")
    wl = importlib.import_module("workloads")
    w = dataclasses.replace(wl.WORKLOADS["hidden-perm"], budget_s=0.002)
    inst = w.make(0, 0)
    far = time.perf_counter() + 100
    assert run.solve(mb, wl, w, inst, far, 1).failure == "timeout"
    assert run.solve(mb, wl, w, inst, time.perf_counter() - 1, 1).failure == "run_deadline"
    roomy = dataclasses.replace(w, budget_s=20.0)
    cut = run.solve(mb, wl, roomy, inst, time.perf_counter() + 0.002, 1)
    assert cut.failure == "run_deadline" and cut.wall == roomy.budget_s
    ok = run.solve(mb, wl, roomy, inst, far, 1)
    assert ok.failure is None and ok.signature
    failures = [{"reason": "timeout"}, {"reason": "run_deadline"}]
    assert run.is_correct(failures, [])


def test_an_instance_that_raises_makes_the_run_incorrect(alarm):
    mb = importlib.import_module("mirrorbreak")
    wl = importlib.import_module("workloads")
    w = wl.WORKLOADS["hidden-perm"]

    def broken_run(circuit, cfg):
        raise AssertionError("layer accounting bug")

    def stalled_run(circuit, cfg):
        raise mb.StallError(10**6, cfg.tau, [0.0])

    for fake_run, reason in ((broken_run, "error:AssertionError"), (stalled_run, "stall")):
        fake = types.SimpleNamespace(parse_qasm=mb.parse_qasm, run=fake_run,
                                     sample_output=mb.sample_output, StallError=mb.StallError)
        out = run.solve(fake, wl, w, w.make(0, 0), time.perf_counter() + 100, 1)
        assert out.failure.startswith(reason)
        assert not run.is_correct([{"reason": out.failure}], [])


def test_batch_keeps_fastest_solve_unless_an_instance_failed():
    passes = [[run.Outcome(0, 0, 2.0, 2.0), run.Outcome(1, 1, 20.0, 3.0, "timeout")],
              [run.Outcome(0, 0, 1.0, 1.0), run.Outcome(1, 1, 0.5, 0.5)]]
    ref = run.PROBE_REF_S
    values, extra = run.end_to_end(passes, setup_s=0.1, probe_p10s=[ref, 4 * ref])
    assert values["batch_s"][0] == 21.0 and values["cpu_s"][0] == 4.0
    assert values["batch_ref_s"][0] == pytest.approx(10.5)
    assert values["fail_ratio"][0] == 0.25
    assert values["solve_s.p50"][0] == 1.5 and extra["solve_s.samples"] == 4


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(19))) == (None, None)
    value, pct = run.tail(list(range(40)))
    assert value == 29 and pct == 75.0
    assert sum(1 for v in range(40) if v > value) == 10


def test_check_rejects_a_wrong_peak(alarm):
    mb = importlib.import_module("mirrorbreak")
    wl = importlib.import_module("workloads")
    w = wl.WORKLOADS["hidden-perm"]
    inst = w.make(0, 0)
    flipped = ("1" if inst.peak[0] == "0" else "0") + inst.peak[1:]
    out = run.solve(mb, wl, w, dataclasses.replace(inst, peak=flipped), time.perf_counter() + 100, 1)
    assert out.failure == "wrong_peak"
    assert not run.is_correct([{"reason": out.failure}], [])
    good = run.solve(mb, wl, w, inst, time.perf_counter() + 100, 1)
    assert good.failure is None and good.prob_err < wl.PROB_TOLERANCE
