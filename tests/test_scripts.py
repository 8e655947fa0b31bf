"""The repository's scripts still run against the package: the three demos,
and the benchmark's list of traced program names, which with the package's
exports are the only names a package module may import without using."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_mirror_cancellation_ends_on_the_identity_chain():
    assert "final chain elements: 32 (identity = 32)" in run_demo("mirror_cancellation.py")


def test_peak_recovery_samples_the_planted_peak_most():
    lines = run_demo("peak_recovery.py").splitlines()
    rows = lines[lines.index("top 10 of 1000 samples:") + 1:]
    assert rows[0].endswith("<-- planted peak")


def test_unswap_walkthrough_reconstructs_the_input():
    out = run_demo("unswap_walkthrough.py")
    error = re.search(r"reconstructs the input to (\S+)", out)
    assert error is not None and float(error[1]) < 1e-10


def benchmark_wrapped(monkeypatch) -> list[tuple[str, str]]:
    """The (module, attribute) pairs of the package that the benchmark's
    --trace 1 wraps by name (``perfbench/run.py``'s ``WRAPPED``)."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclasses look it up
    spec.loader.exec_module(bench)
    return [(m, attr) for m, attr, _ in bench.WRAPPED if m.startswith("mirrorbreak.")]


def test_benchmark_traces_names_the_package_still_has(monkeypatch):
    # a refactor that drops one of these names would break only the traced run
    wrapped = benchmark_wrapped(monkeypatch)
    assert len(wrapped) == 12
    for module_name, attr in wrapped:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"


def test_package_modules_use_every_name_they_import(monkeypatch):
    # an import left behind by a refactor is dead code; the names kept on
    # purpose are the package's exports and the names the benchmark wraps
    # where the program looks them up
    import mirrorbreak

    kept = set(benchmark_wrapped(monkeypatch))
    unused = []
    for path in sorted((ROOT / "src" / "mirrorbreak").glob("*.py")):
        module = "mirrorbreak" if path.stem == "__init__" else f"mirrorbreak.{path.stem}"
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if module == "mirrorbreak":
            used |= set(mirrorbreak.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and (module, name) not in kept:
                        unused.append(f"{module}.{name}")
    assert unused == []
