"""Tests for the command-line interface and its exit-code contract."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mirrorbreak import chains, cli
from mirrorbreak.circuit import Circuit, Gate, QasmError, inverse_circuit, parse_qasm, serialize_qasm
from mirrorbreak.cli import _build_parser, main

from .oracles import random_circuit
from .qasm_fuzz import mutated_qasm


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def instance_files(tmp_path):
    code = main([
        "generate", "--qubits", "8", "--depth", "60", "--peak-weight", "0.2",
        "--obf-swaps", "10", "--seed", "7", "--out", str(tmp_path / "inst"),
    ])
    assert code == 0
    return tmp_path / "inst.qasm", tmp_path / "inst.json"


class TestDefaults:
    def test_run_defaults_match_reference_hyperparameters(self):
        parser = _build_parser()
        args = parser.parse_args(["run", "--circuit", "x.qasm"])
        assert args.epsilon == 2e-3
        assert args.chi_max == 8192
        assert args.tau == 1e6
        assert args.side == "adaptive"


class TestGenerate:
    def test_writes_qasm_and_sidecar(self, instance_files):
        qasm_path, json_path = instance_files
        assert qasm_path.exists() and json_path.exists()
        sidecar = json.loads(json_path.read_text())
        assert set(sidecar) == {"peak", "design_weight", "achieved_weight", "seed"}
        assert len(sidecar["peak"]) == 8

    def test_repeat_invocation_reproduces_bytes(self, tmp_path):
        args = ["generate", "--qubits", "6", "--depth", "30", "--peak-weight", "0.3",
                "--obf-swaps", "4", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.qasm").read_bytes() == (tmp_path / "b.qasm").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_invalid_qubit_count_exits_2(self, tmp_path):
        code = main(["generate", "--qubits", "1", "--depth", "10",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--qubits", "4", "--depth", "10", "--seed", "-1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not (tmp_path / "x.qasm").exists()

    def test_missing_flag_exits_2(self):
        assert main(["generate", "--qubits", "4"]) == 2

    @pytest.mark.parametrize("n,depth,weight", [(2, 4, 0.1), (3, 4, 0.1), (4, 8, 0.05)])
    def test_weight_below_the_argmax_bound_exits_2(self, tmp_path, capsys, n, depth, weight):
        code = main(["generate", "--qubits", str(n), "--depth", str(depth),
                     "--peak-weight", str(weight), "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: peak_weight must exceed 2**-{n} ")
        assert not (tmp_path / "x.qasm").exists()

    @pytest.mark.parametrize("n,weight", [(2, 0.3), (3, 0.2)])
    def test_weight_above_the_argmax_bound_generates(self, tmp_path, n, weight):
        code = main(["generate", "--qubits", str(n), "--depth", "4", "--peak-weight",
                     str(weight), "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 0
        assert (tmp_path / "x.qasm").exists()


class TestProcessExit:
    """``main`` returns every failure's code; the process exits with it and
    with the same message as before."""

    @pytest.mark.parametrize("argv,code,message", [
        (["run"], 2, "error: the following arguments are required: --circuit"),
        (["run", "--circuit", "missing.qasm"], 4, "error: cannot read missing.qasm"),
        (["--help"], 0, ""),
    ], ids=["argparse", "unreadable", "help"])
    def test_exit_code_and_message(self, tmp_path, argv, code, message):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "mirrorbreak.cli", *argv], cwd=tmp_path,
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == code
        assert message in done.stderr
        assert "Traceback" not in done.stderr


class TestRun:
    def test_mirror_circuit_histogram_is_all_zeros(self, tmp_path):
        rng = np.random.default_rng(0)
        c = random_circuit(5, 8, rng, adjacent_only=True)
        mirror = Circuit(5, c.gates + inverse_circuit(c).gates)
        path = tmp_path / "mirror.qasm"
        path.write_text(serialize_qasm(mirror))
        hist = tmp_path / "hist.csv"
        code = main(["run", "--circuit", str(path), "--shots", "100",
                     "--seed", "1", "--hist", str(hist)])
        assert code == 0
        rows = list(csv.reader(hist.open()))
        assert rows[0] == ["bitstring", "count"]
        assert rows[1] == ["00000", "100"]
        assert len(rows) == 2

    def test_histogram_counts_sum_to_shots(self, tmp_path, instance_files):
        qasm_path, _ = instance_files
        hist = tmp_path / "h.csv"
        code = main(["run", "--circuit", str(qasm_path), "--shots", "250",
                     "--seed", "2", "--hist", str(hist), "--epsilon", "1e-8"])
        assert code == 0
        rows = list(csv.reader(hist.open()))[1:]
        assert sum(int(r[1]) for r in rows) == 250

    def test_top_bitstring_matches_sidecar_peak(self, tmp_path, instance_files, capsys):
        qasm_path, json_path = instance_files
        code = main(["run", "--circuit", str(qasm_path), "--shots", "1000",
                     "--seed", "3", "--epsilon", "1e-8"])
        assert code == 0
        out = capsys.readouterr().out
        peak = json.loads(json_path.read_text())["peak"]
        assert f"top {peak} " in out

    def test_trace_file_is_nd_json(self, tmp_path, instance_files):
        qasm_path, _ = instance_files
        trace_path = tmp_path / "trace.ndjson"
        code = main(["run", "--circuit", str(qasm_path), "--shots", "10",
                     "--seed", "0", "--trace", str(trace_path), "--epsilon", "1e-8"])
        assert code == 0
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert records
        for rec in records:
            assert set(rec) == {"phase", "unitaries_consumed", "elements", "wall_time_s"}

    def test_missing_circuit_flag_exits_2(self):
        assert main(["run"]) == 2

    def test_unreadable_circuit_exits_4(self, tmp_path):
        assert main(["run", "--circuit", str(tmp_path / "missing.qasm")]) == 4

    def test_qasm_error_reports_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[2];\nccx q[0],q[1],q[1];\n")
        assert main(["run", "--circuit", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.qasm" in err and "line 3" in err

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("body,message", [
        ("qreg q[x];\n", "line 2, column 8: register size must be an integer"),
        ("qreg q[2.0];\n", "line 2, column 8: register size must be an integer"),
        ("qreg ;[2];\n", "line 2, column 6: expected register name, found ';'"),
        ("qreg q[2];\ncreg c[;];\n", "line 3, column 8: register size must be an integer"),
        ("qreg q[1];\nrx(1/0) q[0];\n", "line 3, column 5: division by zero"),
        ("qreg q[1];\nrx(1e999) q[0];\n", "line 3, column 1: rx angles must be finite"),
        ("qreg q[1];\nrx(1e999-1e999) q[0];\n", "line 3, column 1: rx angles must be finite"),
    ])
    def test_bad_qasm_values_exit_2(self, tmp_path, capsys, command, body, message):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\n" + body)
        assert main([command, "--circuit", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_non_utf8_circuit_exits_2(self, tmp_path, capsys, command):
        bad = tmp_path / "utf16.qasm"
        bad.write_bytes(b"\xff\xfe" + "OPENQASM 2.0;".encode("utf-16-le"))
        assert main([command, "--circuit", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")

    def test_stall_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        c = random_circuit(8, 40, rng)
        path = tmp_path / "random.qasm"
        path.write_text(serialize_qasm(c))
        code = main(["run", "--circuit", str(path), "--tau", "200", "--shots", "10"])
        assert code == 3
        assert "no exploitable mirror structure" in capsys.readouterr().err

    def test_stall_still_emits_partial_trace(self, tmp_path):
        rng = np.random.default_rng(31)
        c = random_circuit(8, 40, rng)
        path = tmp_path / "random.qasm"
        path.write_text(serialize_qasm(c))
        trace_path = tmp_path / "partial.ndjson"
        code = main(["run", "--circuit", str(path), "--tau", "200", "--shots", "10",
                     "--trace", str(trace_path)])
        assert code == 3
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert records  # the absorb/unswap history up to the diagnosis
        assert records[-1]["phase"] == "unswap"

    @pytest.mark.parametrize("flags,message", [
        (["--tau", "1"], "below the identity chain size"),
        (["--shots", "0"], "--shots must be >= 1"),
        (["--chi-max", "0"], "chi_max must be >= 1"),
        (["--tau", "inf"], "--tau must be finite"),
        (["--tau", "nan"], "--tau must be finite"),
        (["--epsilon", "nan"], "epsilon must be finite"),
        (["--epsilon", "inf"], "epsilon must be finite"),
        (["--seed", "-1"], "--seed must be >= 0"),
        (["--side", "fixed:x"], "side_mode must be adaptive or fixed:1, got 'fixed:x'"),
        (["--side", "fixed:"], "side_mode must be adaptive or fixed:1, got 'fixed:'"),
        (["--side", "fixed:1.5"], "side_mode must be adaptive or fixed:1, got 'fixed:1.5'"),
        (["--side", "fixed:2"], "side_mode must be adaptive or fixed:1, got 'fixed:2'"),
        (["--tau", "0.5"], "--tau must be finite and whole, got 0.5"),
        (["--tau", "15.9"], "--tau must be finite and whole, got 15.9"),
    ])
    def test_invalid_run_values_exit_2(self, instance_files, capsys, flags, message):
        qasm_path, _ = instance_files
        code = main(["run", "--circuit", str(qasm_path)] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("tau", ["1e6", "5000.0"])
    def test_whole_float_tau_runs(self, instance_files, capsys, tau):
        qasm_path, _ = instance_files
        assert main(["run", "--circuit", str(qasm_path), "--tau", tau, "--shots", "10"]) == 0
        assert capsys.readouterr().out.startswith("top ")


class TestQubitLimit:
    def test_run_past_the_limit_exits_2_naming_it(self, tmp_path, capsys):
        n = 1024
        block = Circuit(n, tuple(Gate("rzz", (i, i + 1), (0.7,)) for i in range(0, n - 1, 2)))
        path = tmp_path / "wide.qasm"
        path.write_text(serialize_qasm(Circuit(n, block.gates + inverse_circuit(block).gates)))
        code = main(["run", "--circuit", str(path), "--shots", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: at most 1023 qubits are supported, got 1024")
        assert "non-finite" not in err


class TestVerify:
    def test_generated_instance_verifies(self, instance_files, capsys):
        qasm_path, _ = instance_files
        code = main(["verify", "--circuit", str(qasm_path), "--shots", "2000",
                     "--seed", "5", "--epsilon", "1e-10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "peak_match true" in out
        assert "fidelity 1.0000" in out

    def test_identity_circuit_fidelity_one(self, tmp_path, capsys):
        c = Circuit(3, (Gate("x", (0,)), Gate("x", (0,))))
        path = tmp_path / "ident.qasm"
        path.write_text(serialize_qasm(c))
        code = main(["verify", "--circuit", str(path), "--shots", "100", "--seed", "1"])
        assert code == 0
        assert "fidelity 1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,message", [
        (["--shots", "0"], "--shots must be >= 1"),
        (["--epsilon", "-1"], "epsilon must be finite and >= 0"),
        (["--epsilon", "nan"], "epsilon must be finite and >= 0"),
        (["--seed", "-1"], "--seed must be >= 0"),
    ])
    def test_invalid_verify_values_exit_2(self, instance_files, capsys, flags, message):
        qasm_path, _ = instance_files
        code = main(["verify", "--circuit", str(qasm_path)] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_qubit_guard(self, tmp_path, capsys):
        c = Circuit(20, (Gate("h", (0,)),))
        path = tmp_path / "big.qasm"
        path.write_text(serialize_qasm(c))
        code = main(["verify", "--circuit", str(path)])
        assert code == 2
        assert "capped" in capsys.readouterr().err

    def test_one_qubit_past_the_dense_cap_exits_2_without_contracting(self, tmp_path, capsys,
                                                                       monkeypatch):
        def no_run(*args):
            raise AssertionError("verify contracted a circuit past the dense cap")

        monkeypatch.setattr(cli, "run", no_run)
        path = tmp_path / "thirteen.qasm"
        path.write_text(serialize_qasm(Circuit(13, (Gate("h", (0,)),))))
        code = main(["verify", "--circuit", str(path)])
        assert code == 2
        assert "capped at 12 qubits, got 13" in capsys.readouterr().err


class TestSvdNonConvergence:
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_exits_3_without_traceback(self, instance_files, monkeypatch, capsys, command):
        def always_fails(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic non-convergence")

        qasm_path, _ = instance_files
        monkeypatch.setattr(np.linalg, "svd", always_fails)
        code = main([command, "--circuit", str(qasm_path), "--shots", "10"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "converge" in err
        assert "Traceback" not in err


class TestTruncationCollapse:
    def test_collapsed_state_exits_3_naming_epsilon(self, tmp_path, capsys):
        # --epsilon 0.9 is a valid value; the truncation it allows leaves
        # no output state, which is no result, not a usage error
        path = tmp_path / "c.qasm"
        path.write_text(serialize_qasm(random_circuit(6, 24, np.random.default_rng(5))))
        code = main(["run", "--circuit", str(path), "--epsilon", "0.9", "--shots", "10"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "collapsed" in err and "--epsilon" in err
        assert "Traceback" not in err


class TestOutOfMemory:
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_sampler_out_of_memory_exits_3_naming_shots(self, instance_files, monkeypatch,
                                                         capsys, command):
        # the sampler's per-shot arrays (uniforms and row indices, made in
        # _sample_bits) grow with --shots; a real impossible allocation could
        # take the test run down with it, so it is faked
        def no_memory(psi, shots, seed):
            raise MemoryError(f"cannot allocate {shots} rows")

        qasm_path, _ = instance_files
        monkeypatch.setattr(chains, "_sample_bits", no_memory)
        code = main([command, "--circuit", str(qasm_path), "--shots", "123"])
        assert code == 3  # not 1, which is verify's peak mismatch
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and "--shots 123" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def small_instance(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "inst"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--qubits", "4", "--depth", "12", "--peak-weight", "0.3",
                     "--obf-swaps", "3", "--seed", "2", "--out", str(out)]) == 0
    return out.with_suffix(".qasm")


NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])

# flag -> (strategy for accepted values, strategy for rejected values)
RUN_FLAGS = {
    "--epsilon": (st.floats(0, 0.5), NON_FINITE | st.floats(max_value=-1e-300)),
    "--tau": (st.integers(16, 10**6),
              NON_FINITE | st.floats(-100, 15.9) | st.floats(16, 1e6).filter(
                  lambda x: not x.is_integer())),
    "--chi-max": (st.integers(1, 64), st.integers(-2, 0)),
    "--side": (st.sampled_from(["adaptive", "fixed:1"]),
               st.sampled_from(["fixed:0", "fixed:-1", "fixed:x", "fixed:", "fixed:2", "fixed:3",
                                "random"])),
    "--shots": (st.integers(1, 50), st.integers(-3, 0)),
}


def check_fuzzed_exit(circuit, data, broken, command, flags, codes):
    """Run ``command`` with one drawn value per flag (rejected ones for the
    flags in ``broken``) and check the exit code against the contract."""
    argv = [command, "--circuit", str(circuit)]
    for flag, (accepted, rejected) in flags.items():
        value = data.draw(rejected if flag in broken else accepted, label=flag)
        argv.append(f"{flag}={value}")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in codes, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if broken:
        assert code == 2 and err.getvalue().startswith("error: "), (argv, err.getvalue())


class TestRunExitCodeFuzz:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), broken=st.sets(st.sampled_from(sorted(RUN_FLAGS)), max_size=3))
    def test_exit_code_is_documented(self, small_instance, data, broken):
        check_fuzzed_exit(small_instance, data, broken, "run", RUN_FLAGS, (0, 2, 3, 4))


# verify's flags -> (strategy for accepted values, strategy for rejected values)
VERIFY_FLAGS = {
    "--epsilon": RUN_FLAGS["--epsilon"],
    "--shots": RUN_FLAGS["--shots"],
    "--seed": (st.integers(0, 2**64), st.integers(-2**31, -1)),
}


class TestVerifyExitCodeFuzz:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), broken=st.sets(st.sampled_from(sorted(VERIFY_FLAGS)), max_size=2))
    def test_exit_code_is_documented(self, small_instance, data, broken):
        # verify also exits 1 on a peak mismatch
        check_fuzzed_exit(small_instance, data, broken, "verify", VERIFY_FLAGS,
                          (0, 1, 2, 3, 4))


class TestFuzzedQasmExitCode:
    """Mutated QASM text through ``run`` and ``verify``: a documented exit
    code and no traceback; text the parser rejects exits 2."""

    @pytest.mark.parametrize("command,codes", [("run", (0, 2, 3, 4)), ("verify", (0, 1, 2, 3, 4))])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), text=mutated_qasm())
    def test_exit_code_is_documented(self, tmp_path_factory, data, text, command, codes):
        try:
            parsed = parse_qasm(text)
        except QasmError:
            parsed = None
        # a duplicated digit can widen the register; keep chains small
        assume(parsed is None or parsed.num_qubits <= 8)
        path = tmp_path_factory.mktemp("qasm") / "fuzzed.qasm"
        path.write_text(text)
        flags = {"--shots": (st.integers(1, 20), None)}
        check_fuzzed_exit(path, data, set(), command, flags, (2,) if parsed is None else codes)
