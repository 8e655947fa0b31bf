"""Command-line frontend: generate instances, run contractions, sample, and
emit traces and histograms for external plotting.

Exit codes are a stable contract: 0 success, 1 peak mismatch (``verify``
only), 2 usage error (a circuit file that is not UTF-8 or not valid QASM
counts as one), 3 no result (a stall diagnosis, an SVD that did not
converge even after its perturbed retry, truncation that collapsed the state
to zero, or too little memory for the contraction or for the ``--shots``
samples), 4 I/O failure. Bitstrings print qubit 0 leftmost everywhere.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .circuit import QasmError, parse_qasm
from .driver import ContractionConfig, StallError, dense_output, emit_trace, run, sample_output
from .oracle import bits_to_index, peak_of, simulate, tvd
from .peaked import generate, write_instance
from .tensor import SvdConvergenceError, ZeroTensorError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_NO_RESULT = 3
EXIT_IO = 4

VERIFY_MAX_QUBITS = 12


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorbreak",
        description=(
            "Contract mirrored (peaked) quantum circuits by absorbing both halves "
            "into a central tensor chain and greedily extracting hidden "
            "permutations. Bitstrings are printed with qubit 0 leftmost."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a peaked test instance (QASM + JSON sidecar)")
    gen.add_argument("--qubits", type=int, required=True)
    gen.add_argument("--depth", type=int, required=True, help="two-qubit gate budget")
    gen.add_argument("--peak-weight", type=float, default=0.1)
    gen.add_argument("--obf-swaps", type=int, default=0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output path prefix")

    runp = sub.add_parser("run", help="contract a circuit, sample it, and dump telemetry")
    runp.add_argument("--circuit", required=True, help="QASM 2.0 input file")
    runp.add_argument("--epsilon", type=float, default=2e-3)
    runp.add_argument("--chi-max", type=int, default=8192)
    runp.add_argument("--tau", type=float, default=1e6)
    runp.add_argument("--max-unswap-iters", type=int, default=20)
    runp.add_argument("--side", default="adaptive", help="adaptive or fixed:<k>")
    runp.add_argument("--shots", type=int, default=1000)
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--trace", help="write the ND-JSON contraction trace here")
    runp.add_argument("--hist", help="write the sampled histogram CSV here")

    ver = sub.add_parser("verify", help="check a circuit against the statevector oracle")
    ver.add_argument("--circuit", required=True)
    ver.add_argument("--epsilon", type=float, default=1e-10)
    ver.add_argument("--shots", type=int, default=10000)
    ver.add_argument("--seed", type=int, default=0)
    return parser


def _load_circuit(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        return parse_qasm(text)
    except QasmError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_histogram(path: str, counts: Counter) -> None:
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bitstring", "count"])
            writer.writerows(rows)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _cmd_generate(args) -> int:
    try:
        inst = generate(args.qubits, args.depth, args.peak_weight, args.obf_swaps, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        qasm_path, json_path = write_instance(inst, args.out)
    except OSError as exc:
        print(f"error: cannot write instance: {exc}", file=sys.stderr)
        return EXIT_IO
    achieved = "n/a" if inst.achieved_weight is None else f"{inst.achieved_weight:.4f}"
    print(f"wrote {qasm_path} and {json_path}")
    print(f"peak {inst.peak} design_weight {inst.design_weight:.4f} achieved_weight {achieved}")
    return EXIT_OK


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _contract(circuit, args, trace: str | None = None, **config):
    """Contract ``circuit`` under the ``ContractionConfig`` fields in
    ``config`` and draw ``args.shots`` samples with ``args.seed``. Returns
    (result, samples); on a failure prints it and raises SystemExit with its
    exit code, writing the partial trace of a stall to ``trace`` if given."""
    try:
        cfg = ContractionConfig(**config)
    except ValueError as exc:
        raise SystemExit(_usage_error(exc))
    if args.shots < 1:
        raise SystemExit(_usage_error(f"--shots must be >= 1, got {args.shots}"))
    try:
        result = run(circuit, cfg)
        return result, sample_output(result, args.shots, args.seed)
    except ZeroTensorError as exc:
        print(f"error: {exc}; try a smaller --epsilon", file=sys.stderr)
    except ValueError as exc:
        raise SystemExit(_usage_error(exc))
    except SvdConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError:
        print(f"error: out of memory contracting the circuit and drawing --shots "
              f"{args.shots} samples; try fewer --shots", file=sys.stderr)
    except StallError as exc:
        print(f"stall: {exc}", file=sys.stderr)
        if trace:
            try:
                with open(trace, "w") as fh:
                    emit_trace(exc.trace, fh)
            except OSError:
                pass  # the stall diagnosis is the primary outcome
    raise SystemExit(EXIT_NO_RESULT)


def _cmd_run(args, circuit) -> int:
    if not math.isfinite(args.tau):
        return _usage_error(f"--tau must be finite, got {args.tau}")
    result, samples = _contract(
        circuit,
        args,
        trace=args.trace,
        epsilon=args.epsilon,
        chi_max=args.chi_max,
        tau=int(args.tau),
        max_unswap_iterations=args.max_unswap_iters,
        side_mode=args.side,
    )

    if args.trace:
        try:
            with open(args.trace, "w") as fh:
                emit_trace(result.trace, fh)
        except OSError as exc:
            print(f"error: cannot write {args.trace}: {exc}", file=sys.stderr)
            return EXIT_IO

    counts = Counter(samples)
    if args.hist:
        _write_histogram(args.hist, counts)
    # deterministic top row: highest count, then lexicographically smallest
    top, top_count = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    print(f"top {top} {top_count}/{args.shots} ({top_count / args.shots:.4f})")
    return EXIT_OK


def _cmd_verify(args, circuit) -> int:
    if circuit.num_qubits > VERIFY_MAX_QUBITS:
        print(
            f"error: oracle verification is capped at {VERIFY_MAX_QUBITS} qubits, "
            f"got {circuit.num_qubits}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    result, samples = _contract(circuit, args, epsilon=args.epsilon)

    reference = simulate(circuit)
    produced = dense_output(result)
    fidelity = float(abs(np.vdot(reference, produced)) ** 2)

    counts = Counter(samples)
    n = circuit.num_qubits
    empirical = np.zeros(2**n)
    for bits, k in counts.items():
        empirical[bits_to_index(bits)] = k / args.shots
    sample_tvd = tvd(empirical, np.abs(reference) ** 2)

    oracle_peak, _ = peak_of(reference)
    produced_peak, _ = peak_of(produced)
    match = oracle_peak == produced_peak
    print(f"fidelity {fidelity:.10f}")
    print(f"tvd {sample_tvd:.6f} at {args.shots} shots")
    print(f"peak_match {str(match).lower()} (oracle {oracle_peak}, contracted {produced_peak})")
    return EXIT_OK if match else EXIT_MISMATCH


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code. Every failure is reported
    through the return value, argparse rejections included."""
    try:
        args = _build_parser().parse_args(argv)
        # every command seeds numpy, which rejects a negative seed without
        # naming the flag
        if args.seed < 0:
            return _usage_error(f"--seed must be >= 0, got {args.seed}")
        if args.command == "generate":
            return _cmd_generate(args)
        circuit = _load_circuit(args.circuit)
        command = _cmd_run if args.command == "run" else _cmd_verify
        return command(args, circuit)
    except SystemExit as exc:  # raised by argparse, _load_circuit, _contract, _write_histogram
        return exc.code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
