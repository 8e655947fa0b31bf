#!/usr/bin/env python3
"""Digest of the pipeline's outputs on the benchmark instances.

    python3 tools/trajectory_digest.py --workload hidden-perm --seeds 701,4242,911

Run from any directory; the package is imported from ``src/`` of the
checkout holding this file. For each workload it generates the benchmark
instances of every seed, solves each one through the public API
(``parse_qasm -> run -> sample_output``) with the benchmark's settings and
shot seeds, and prints one JSON line: a SHA-256 over every instance's
``(phase, unitaries_consumed, elements)`` trace tuples, ``final_elements``,
sampled bitstrings and output and input permutations, and the largest
exact peak probability read from the output state. Two checkouts that print
the same digest produce the same trajectories, samples and permutations.

``--save PATH`` also writes every instance's peak probability to PATH;
``--against PATH`` reads such a file written by another checkout and adds
the largest difference from it to each line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import mirrorbreak as mb  # noqa: E402
import workloads as wl  # noqa: E402


def digest(workload: str, seeds: list[int]) -> tuple[str, list[float]]:
    """SHA-256 of the outputs on every instance of ``workload`` at ``seeds``,
    and the instances' peak probabilities in the same order."""
    w = wl.WORKLOADS[workload]
    h = hashlib.sha256()
    probs = []
    for seed in seeds:
        for inst in wl.make_instances(w, seed):
            result = mb.run(mb.parse_qasm(inst.qasm), w.config)
            samples = mb.sample_output(result, w.shots, seed=inst.shot_seed)
            record = {
                "seed": seed,
                "index": inst.index,
                "trace": [(r.phase, r.unitaries_consumed, r.elements) for r in result.trace],
                "final_elements": result.final_elements,
                "samples": samples,
                "output_permutation": result.output_permutation.mapping,
                "input_permutation": result.input_permutation.mapping,
            }
            h.update(json.dumps(record, separators=(",", ":")).encode())
            probs.append(wl.peak_probability(result, inst.peak))
    return h.hexdigest(), probs


def _read_probabilities(p: argparse.ArgumentParser, path: Path) -> dict[str, list[float]]:
    """The peak probabilities a ``--save`` run wrote to ``path``; a file
    that cannot be read or is not such a mapping is a usage error."""
    try:
        other = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        p.error(f"--against: cannot read {path}: {exc}")
    if not (isinstance(other, dict) and all(
            isinstance(v, list) and all(isinstance(x, (int, float)) for x in v)
            for v in other.values())):
        p.error(f"--against: {path} does not map workloads to lists of peak probabilities")
    return other


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS),
                   help="workload to digest; repeat for several (default: all)")
    p.add_argument("--seeds", default="701,4242,911",
                   help="comma-separated instance-set seeds (default: the three seeds "
                        "every output-identity check uses)")
    p.add_argument("--save", type=Path, help="write the peak probabilities to this file")
    p.add_argument("--against", type=Path,
                   help="peak-probability file of another checkout to compare with")
    args = p.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        p.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    # file arguments are checked before any instance is solved
    if args.save and (args.save.is_dir() or not args.save.parent.is_dir()):
        p.error(f"--save: cannot write {args.save}: no such directory, or a directory")
    other = _read_probabilities(p, args.against) if args.against else {}
    saved = {}
    for workload in args.workload or sorted(wl.WORKLOADS):
        sha, probs = digest(workload, seeds)
        line = {"workload": workload, "seeds": seeds, "instances": len(probs),
                "sha256": sha, "max_peak_prob": max(probs)}
        if workload in other:
            theirs = other[workload]
            if len(theirs) != len(probs):
                p.error(f"{args.against} holds {len(theirs)} {workload} instances, "
                        f"not {len(probs)}")
            line["max_peak_prob_diff"] = max(abs(a - b) for a, b in zip(probs, theirs))
        print(json.dumps(line))
        saved[workload] = probs
    if args.save:
        args.save.write_text(json.dumps(saved))
    return 0


if __name__ == "__main__":
    sys.exit(main())
