#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the mirrorbreak pipeline.

    python3 perfbench/run.py --workload hidden-perm --seed 1 --seconds 50 --trace 0

Run from the repository root. For one workload it generates the instance set
from ``--seed``. Set-up (import, generation, one warm-up solve) is timed in
several fresh interpreters, so first-call costs stay in it, and reported as
their median. It then times ``parse_qasm -> run -> sample_output`` on every
instance from its QASM text, in a fixed number of passes over the whole set,
and keeps each instance's fastest solve. The set and the pass count are
sized so that the passes take about ``--seconds``. After every solve a fixed
probe kernel that does not call the program times the host's speed;
``batch_ref_s`` is ``batch_s`` scaled to a fixed host speed by the probe
times. Correctness checks run outside the timed
region. Each solve has a wall budget enforced with a timer signal; a solve
over it fails the instance with reason ``timeout``. A solve still running at
twice ``--seconds`` after measuring began fails with reason ``run_deadline``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` makes one untraced and two traced passes, reports the
per-layer metrics and each layer's share of the solve time, and checks that
tracing leaves the program's telemetry unchanged and that exact counts
repeat. Spans are written to ``.perfbench/spans-<workload>-<seed>.ndjson.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
is a fuller report: machine, failures with their reasons and generator
seeds, and metrics printed without a bound (``batch_s``, ``solve_s.p50``,
``solve_s.tail`` with its percentile and sample count, ``cpu_s``,
``fail_ratio``, ``peak_prob_err``). ``correct`` is false when any instance
fails for a reason other than ``timeout`` or ``run_deadline``: a wrong
answer, a failed check, ``StallError`` or any other exception.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from tracer import ATTRS, END, NAME, START, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 7
# solves still running at this many times --seconds after measuring began
# fail with reason run_deadline: a run that slowed down more than that much
# still ends, and at --seconds 50 inside 180 s
DEADLINE_FACTOR = 2.0
# failure reasons that mean the run's own limits cut a solve short; any other
# failure (a wrong answer, a failed check, StallError, any exception) makes
# the run incorrect
CUT_SHORT = frozenset({"timeout", "run_deadline"})

# Other tenants of the host change its speed for a minute at a time: the
# fastest solves of one fixed 8-instance set summed to 0.36-0.54 s in
# successive 20-s windows, and one seed's batch_s read 7.3 s in one run and
# 11.3 s in the next. Fastest-of-passes cannot remove that. The probe kernel
# below does the program's mix of work (small complex SVDs, an einsum, a
# Python loop) without calling the program; in the same windows the set's
# summed fastest solves over the probe's 10th-percentile time stayed within
# 360-395. batch_ref_s is batch_s times PROBE_REF_S over the geometric mean
# of that percentile in each pass: the batch time on a host where the probe
# takes PROBE_REF_S, about its time here when quiet. (Scaling each solve by
# its own pass before taking the fastest was tried and spread wider: the
# fastest then favours the passes whose probe read slow.)
PROBE_REF_S = 1.0e-3
PROBE_EVERY_S = 0.05  # one probe per this much solve time, and at least one


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = [rng.standard_normal((16, 24)) + 1j * rng.standard_normal((16, 24))
                     for _ in range(8)]
        self.times: list[float] = []

    def run(self, after_s: float) -> None:
        for _ in range(1 + int(after_s / PROBE_EVERY_S)):
            t = time.perf_counter()
            for a in self.mats:
                u, sv, vh = np.linalg.svd(a, full_matrices=False)
                np.einsum("ij,jk->ik", u * sv, vh)
            x = 0
            for i in range(3000):
                x += i * i % 7
            self.times.append(time.perf_counter() - t)

    def p10(self) -> float:
        return statistics.quantiles(self.times, n=10)[0]


# wrapped name -> span name. Names the driver imported are wrapped where the
# driver looks them up; chains and unswap call move_center/svd_truncate/
# truncation_rank through their own module namespaces.
WRAPPED = (
    ("mirrorbreak.driver", "absorb_gate", "chains.absorb_gate"),
    ("mirrorbreak.driver", "compress", "chains.compress"),
    ("mirrorbreak.driver", "unswap", "unswap.unswap"),
    ("mirrorbreak.driver", "route_linear", "routing.route_linear"),
    ("mirrorbreak.driver", "strip_transpilation_swaps", "routing.strip_transpilation_swaps"),
    ("mirrorbreak.driver", "reindex", "routing.reindex"),
    ("mirrorbreak.driver", "apply_to_zero", "chains.apply_to_zero"),
    ("mirrorbreak.driver", "sample", "chains.sample"),
    ("mirrorbreak.chains", "svd_truncate", "tensor.svd_truncate"),
    ("mirrorbreak.chains", "move_center", "chains.move_center"),
    ("mirrorbreak.unswap", "move_center", "chains.move_center"),
    ("mirrorbreak.unswap", "truncation_rank", "unswap.truncation_rank"),
    ("workloads", "generate", "peaked.generate"),
)

# counts that must repeat exactly between the two traced passes
EXACT_COUNTS = ("driver.layers", "unswap.accepted_swaps", "tensor.svd_truncate.calls",
                "chains.peak_elements")


class InstanceTimeout(BaseException):
    """Raised by the timer signal; a BaseException so no handler inside the
    program can swallow it."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


@dataclass
class Outcome:
    index: int
    seed: int
    wall: float  # a failed solve counts as at least the budget
    cpu: float
    failure: str | None = None
    prob_err: float | None = None
    signature: tuple = ()  # (phase, unitaries_consumed, elements) per trace record


# --------------------------------------------------------------------------
# solving
# --------------------------------------------------------------------------


def solve(mb, wl, w, inst, deadline: float, batch: int, tracer=None) -> Outcome:
    """Solve one instance under the workload's wall budget and check the
    result outside the timed region. A failed solve counts as missing any
    latency limit: its time is at least the budget."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        return Outcome(inst.index, inst.seed, w.budget_s, 0.0, "run_deadline")
    budget = min(w.budget_s, remaining)
    failure = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        with span("instance"):
            with span("circuit.parse_qasm"):
                circuit = mb.parse_qasm(inst.qasm)
            with span("driver.run"):
                result = mb.run(circuit, w.config)
            with span("driver.sample_output"):
                samples = mb.sample_output(result, w.shots, seed=inst.shot_seed)
    except InstanceTimeout:
        failure = "timeout" if budget == w.budget_s else "run_deadline"
    except mb.StallError:
        failure = "stall"
    except Exception as exc:  # any other exception fails this instance only
        failure = f"error:{type(exc).__name__}:{str(exc)[:200]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    out = Outcome(inst.index, inst.seed, time.perf_counter() - t0, time.process_time() - c0)
    if failure is not None:
        out.wall, out.failure = max(out.wall, w.budget_s), failure
        return out
    out.failure, out.prob_err = wl.check(inst, result, samples, w.shots, batch)
    out.signature = tuple((r.phase, r.unitaries_consumed, r.elements) for r in result.trace)
    return out


def run_pass(mb, wl, w, instances, deadline, tracer=None, probe=None) -> list[Outcome]:
    outs = []
    for inst in instances:
        if tracer is not None:
            tracer.instance = inst.index
        outs.append(solve(mb, wl, w, inst, deadline, len(instances), tracer))
        if probe is not None:
            probe.run(outs[-1].wall)
    return outs


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def tail(values):
    """Highest percentile of sorted ``values`` with at least ten samples
    beyond it, and that percentile; (None, None) below twenty samples, where
    that percentile would not lie above the median."""
    n = len(values)
    if n < 20:
        return None, None
    return values[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes, setup_s, probe_p10s):
    """``batch_s`` and ``cpu_s`` sum each instance's fastest solve over the
    passes; an instance that failed in any pass counts its slowest solve,
    which is at least the budget. ``batch_ref_s`` is ``batch_s`` at the
    reference host speed. ``solve_s`` pools every solve of every instance
    and pass."""
    fastest, cpus = [], []
    for attempts in zip(*passes):
        pick = max if any(o.failure for o in attempts) else min
        fastest.append(pick(o.wall for o in attempts))
        cpus.append(pick(o.cpu for o in attempts))
    speed = PROBE_REF_S / statistics.geometric_mean(probe_p10s)
    outs = [o for p in passes for o in p]
    solves = sorted(o.wall for o in outs)
    tail_value, tail_pct = tail(solves)
    failed = sum(1 for o in outs if o.failure)
    errs = [o.prob_err for o in outs if o.prob_err is not None]
    metrics = {
        "solve_s.p50": (statistics.median(solves), "s"),
        "solve_s.tail": (tail_value, "s"),
        "batch_s": (sum(fastest), "s"),
        "batch_ref_s": (sum(fastest) * speed, "s"),
        "cpu_s": (sum(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
        "fail_ratio": (failed / len(outs), "1"),
        "peak_prob_err": (max(errs) if errs else None, "1"),
    }
    extra = {"solve_s.tail_percentile": tail_pct, "solve_s.samples": len(solves),
             "passes": len(passes), "probe_p10_s": probe_p10s,
             "pass_s": [sum(o.wall for o in p) for p in passes]}
    return metrics, extra


def _svd_cost(rows: int, cols: int) -> tuple[float, float]:
    """Computed, not measured: flops of a thin complex SVD (about four real
    flops per complex one on the 6mk^2 + 20k^3 R-SVD count, m >= k) and the
    bytes of its input and thin outputs."""
    m, k = max(rows, cols), min(rows, cols)
    flops = 4.0 * (6.0 * m * k * k + 20.0 * k ** 3)
    nbytes = 16.0 * (rows * cols + rows * k + k * cols) + 8.0 * k
    return flops, nbytes


def layer_metrics(tracer, outs) -> dict:
    self_t = tracer.self_times()
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    selfs: dict[str, float] = {}
    for s, st in zip(tracer.spans, self_t):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (s[END] - s[START])
        selfs[name] = selfs.get(name, 0.0) + st

    def attrs(name):
        return [s[ATTRS] for s in tracer.spans if s[NAME] == name and s[ATTRS] is not None]

    svd = attrs("tensor.svd_truncate")  # (rows, cols, kept, discarded_weight)
    costs = [_svd_cost(r, c) for r, c, _, _ in svd]
    absorbs = attrs("chains.absorb_gate")  # (two_qubit, max_bond)
    unswaps = attrs("unswap.unswap")  # (accepted, elements_before, elements_after)
    done = [o for o in outs if o.failure is None]
    consumed_2q = sum(o.signature[-1][1] for o in done if o.signature)
    absorbed_2q = sum(1 for two, _ in absorbs if two)
    candidates = calls.get("unswap.truncation_rank", 0)
    accepted = sum(a for a, _, _ in unswaps)
    before = sum(b for _, b, _ in unswaps)

    def c(name):
        return calls.get(name, 0)

    m = {
        "chains.compress.calls": (c("chains.compress"), "count"),
        "chains.compress.self_s": (selfs.get("chains.compress", 0.0), "s"),
        "tensor.svd_truncate.calls": (c("tensor.svd_truncate"), "count"),
        "tensor.svd_truncate.busy_s": (busy.get("tensor.svd_truncate", 0.0), "s"),
        "tensor.svd_truncate.flop_est": (sum(f for f, _ in costs), "flop"),
        "tensor.svd_truncate.bytes_est": (sum(b for _, b in costs), "B"),
        "tensor.svd_truncate.kept_ratio": (
            sum(k for _, _, k, _ in svd) / max(1, sum(min(r, cc) for r, cc, _, _ in svd)), "1"),
        "tensor.svd_truncate.discarded_weight_sum": (sum(d for _, _, _, d in svd), "1"),
        "driver.absorb_useful_ratio": (consumed_2q / absorbed_2q if absorbed_2q else 1.0, "1"),
        "chains.absorb_gate.calls": (c("chains.absorb_gate"), "count"),
        "chains.absorb_gate.self_s": (selfs.get("chains.absorb_gate", 0.0), "s"),
        "unswap.unswap.calls": (c("unswap.unswap"), "count"),
        "unswap.unswap.self_s": (selfs.get("unswap.unswap", 0.0), "s"),
        "unswap.unswap.busy_s": (busy.get("unswap.unswap", 0.0), "s"),
        "unswap.candidates": (candidates, "count"),
        "unswap.accepted_swaps": (accepted, "count"),
        "unswap.accept_ratio": (accepted / candidates if candidates else 0.0, "1"),
        # elements after over before, summed over calls; 1.0 when unswap never ran
        "unswap.shrink_ratio": (sum(a for _, _, a in unswaps) / before if before else 1.0, "1"),
        "driver.unswap_cycles": (
            sum(1 for o in done for rec in o.signature if rec[0] == "unswap"), "count"),
        "chains.move_center.calls": (c("chains.move_center"), "count"),
        "chains.move_center.self_s": (selfs.get("chains.move_center", 0.0), "s"),
        "chains.peak_elements": (
            max((rec[2] for o in done for rec in o.signature), default=0), "count"),
        "chains.peak_bond": (max((b for _, b in absorbs), default=1), "count"),
        "chains.sample.self_s": (selfs.get("chains.sample", 0.0), "s"),
        "chains.apply_to_zero.self_s": (selfs.get("chains.apply_to_zero", 0.0), "s"),
        "routing.route_linear.busy_s": (busy.get("routing.route_linear", 0.0), "s"),
        "routing.strip_transpilation_swaps.busy_s": (
            busy.get("routing.strip_transpilation_swaps", 0.0), "s"),
        "routing.reindex.busy_s": (busy.get("routing.reindex", 0.0), "s"),
        "circuit.parse_qasm.busy_s": (busy.get("circuit.parse_qasm", 0.0), "s"),
        "driver.run.self_s": (selfs.get("driver.run", 0.0), "s"),
        "driver.layers": (
            sum(1 for o in done for rec in o.signature if rec[0] == "absorb"), "count"),
        "peaked.generate.busy_s": (busy.get("peaked.generate", 0.0), "s"),
    }
    return m


def layer_shares(tracer) -> dict:
    """Each span name's summed self and busy (inclusive) time as shares of
    the solves' wall time (the ``instance`` spans), largest self share
    first. Busy shares of names that call each other overlap."""
    solve_s = sum(s[END] - s[START] for s in tracer.spans if s[NAME] == "instance")
    shares: dict[str, list[float]] = {}
    for s, st in zip(tracer.spans, tracer.self_times()):
        if s[NAME] != "peaked.generate":
            share = shares.setdefault(s[NAME], [0.0, 0.0])
            share[0] += st / solve_s
            share[1] += (s[END] - s[START]) / solve_s
    return {k: {"self": round(v[0], 4), "busy": round(v[1], 4)}
            for k, v in sorted(shares.items(), key=lambda kv: -kv[1][0])}


def is_correct(failures, problems) -> bool:
    return not problems and all(f["reason"] in CUT_SHORT for f in failures)


def _inspect_svd(args, kwargs, result):
    t = args[0]
    split = kwargs["split"] if "split" in kwargs else args[1]
    rows = math.prod(t.shape[:split])
    return (rows, t.size // rows, result.rank, result.discarded_weight)


def _inspect_absorb(args, kwargs, result):
    g = args[1]
    return (g.is_two_qubit, max(result.bond_dims(), default=1))


def _inspect_unswap(args, kwargs, result):
    return (result.accepted_swaps, result.elements_before, result.elements_after)


INSPECT = {
    "tensor.svd_truncate": _inspect_svd,
    "chains.absorb_gate": _inspect_absorb,
    "unswap.unswap": _inspect_unswap,
}


# --------------------------------------------------------------------------
# machine
# --------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked through ctypes."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def warmup_instance(wl, seed: int):
    return wl.Instance(-1, seed, seed, wl.warmup_circuit(seed), 8, "0" * 8, 1.0, mirror=True)


def setup_round(workload: str, seed: int, t0: float) -> float:
    """Import the package, generate the instance set and solve the warm-up
    instance; seconds since ``t0``. Meant for a fresh interpreter, so the
    import and the first-call costs of the warm-up solve are paid in it."""
    signal.signal(signal.SIGALRM, _on_alarm)
    mb = importlib.import_module("mirrorbreak")
    wl = importlib.import_module("workloads")
    w = wl.WORKLOADS[workload]
    wl.make_instances(w, seed)
    out = solve(mb, wl, w, warmup_instance(wl, seed), time.perf_counter() + w.budget_s, 1)
    if out.failure:
        raise RuntimeError(f"warm-up solve failed: {out.failure}")
    return time.perf_counter() - t0


SETUP_PROBE = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
               "import run; print(run.setup_round(sys.argv[3], int(sys.argv[4]), t))")


def setup_seconds(workload: str, seed: int) -> float:
    """Median of ``setup_round`` over SETUP_ROUNDS fresh interpreters."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(Path(__file__).resolve().parent),
            str(ROOT / "src"), workload, str(seed)]
    return statistics.median(
        float(subprocess.run(argv, capture_output=True, text=True, check=True,
                             timeout=60).stdout.split()[-1])
        for _ in range(SETUP_ROUNDS))


def _metric_block(names, values) -> dict:
    missing = [n for n in names if n not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {n: {"value": values[n][0], "unit": values[n][1]} for n in names}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "mirrorbreak" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout holding src/mirrorbreak and {spec_path.name}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))

    wl = importlib.import_module("workloads")
    mb = importlib.import_module("mirrorbreak")
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)

    try:
        setup_s = setup_seconds(w.name, args.seed)
    except subprocess.SubprocessError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    instances = wl.make_instances(w, args.seed)
    # this process pays its own first-call costs before measuring
    warm_out = solve(mb, wl, w, warmup_instance(wl, args.seed), time.perf_counter() + w.budget_s, 1)
    if warm_out.failure:
        print(f"error: warm-up solve failed: {warm_out.failure}", file=sys.stderr)
        return 1

    why = next((x["why"] for x in spec["workloads"] if x["name"] == w.name), None)
    report = {"workload": w.name, "why": why, "seed": args.seed, "trace": args.trace,
              "instances": len(instances), "shots": w.shots, "budget_s": w.budget_s,
              "config": asdict(w.config),
              "machine": machine()}
    problems: list[str] = []

    t_measure = time.perf_counter()
    deadline = t_measure + DEADLINE_FACTOR * args.seconds
    if args.trace == 0:
        passes, probe_p10s = [], []
        for _ in range(w.passes):
            probe = HostProbe()
            passes.append(run_pass(mb, wl, w, instances, deadline, probe=probe))
            probe_p10s.append(probe.p10())
        values, extra = end_to_end(passes, setup_s, probe_p10s)
        names = [m["name"] for m in spec["end_to_end"]]
        outs = [o for p in passes for o in p]
        report.update(extra)
        report["unbounded"] = {k: v[0] for k, v in values.items() if k not in names}
    else:
        untraced = run_pass(mb, wl, w, instances, deadline)
        traced_passes = []
        for _ in range(2):
            tracer = Tracer()
            for module_name, attr, name in WRAPPED:
                tracer.wrap(module_name, attr, name, INSPECT.get(name))
            try:
                tracer.instance = None
                wl.make_instances(w, args.seed)
                traced = run_pass(mb, wl, w, instances, deadline, tracer)
            finally:
                problems += [f"not restored: {n}" for n in tracer.restore()]
            traced_passes.append((tracer, traced, layer_metrics(tracer, traced)))
        tracer, traced, values = traced_passes[0]
        for a, b in zip(untraced, traced):
            if not a.failure and not b.failure and a.signature != b.signature:
                problems.append(f"instance {a.index}: traced telemetry differs from untraced")
        for name in EXACT_COUNTS:
            again = traced_passes[1][2][name][0]
            if values[name][0] != again:
                problems.append(f"{name} did not repeat: {values[name][0]} vs {again}")
        ok_pair = [(a, b) for a, b in zip(untraced, traced) if not a.failure and not b.failure]
        values["bench.trace_overhead_s"] = (
            sum(b.wall for _, b in ok_pair) - sum(a.wall for a, _ in ok_pair), "s")
        names = [m["name"] for m in spec["per_layer"]]
        outs = untraced + [o for _, t, _ in traced_passes for o in t]
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        span_path = out_dir / f"spans-{w.name}-{args.seed}.ndjson.gz"
        with gzip.open(span_path, "wt") as sink:
            tracer.write(sink)
        report["spans"] = str(span_path.relative_to(ROOT))
        report["span_count"] = len(tracer.spans)
        report["layer_shares"] = layer_shares(tracer)

    failures = [{"instance": o.index, "seed": o.seed, "reason": o.failure}
                for o in outs if o.failure]
    report["failures"] = failures
    report["problems"] = problems
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": is_correct(failures, problems),
        "attempted": len(outs),
        "failed": len(failures),
        "metrics": _metric_block(names, values),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
