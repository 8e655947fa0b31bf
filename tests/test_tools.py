"""Tests for ``tools/``: ``trajectory_digest.py``, the output-identity check
that compares two checkouts on the benchmark instances, and
``code_lines.py``, the code-line count of the package."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "trajectory_digest.py"
CODE_LINES = ROOT / "tools" / "code_lines.py"


def digest(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    path = tmp_path_factory.mktemp("digest") / "probs.json"
    done = digest("--workload", "mirror-wide", "--seeds", "701", "--save", str(path))
    assert done.returncode == 0, done.stderr
    return done.stdout, path


def test_one_line_with_digest_and_instance_count(saved):
    stdout, path = saved
    lines = stdout.splitlines()
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert line["workload"] == "mirror-wide"
    assert line["instances"] == 5
    assert re.fullmatch(r"[0-9a-f]{64}", line["sha256"])
    assert len(json.loads(path.read_text())["mirror-wide"]) == 5


def test_mirror_wide_digest_is_pinned(saved):
    """The benchmark's mirror-wide outputs at seed 701 are pinned: element
    trajectories, samples and permutations. Its trace holds only integers,
    its samples are all zeros and its permutations are identity maps, so the
    digest does not depend on BLAS rounding. A change that alters
    trajectories on purpose (a different unswap or side rule) re-pins this
    digest and says so in CHANGES.md."""
    stdout, _ = saved
    assert json.loads(stdout)["sha256"] == (
        "51657a698dd0e9dff0d3385af92e6a6a1715c4031c1415f9635a12ead4629cf2")


def test_hidden_perm_digest_is_pinned():
    """The benchmark's hidden-perm outputs at seed 701 are pinned too: every
    unswap decision (accepted swaps, extracted permutations) shows in their
    element trajectories and samples. Unlike mirror-wide's, these samples
    are drawn from non-trivial probabilities, and ranks are cut at epsilon
    1e-8, so a change of gauge or BLAS could in principle flip one. A
    change that alters trajectories on purpose re-pins this digest and says
    so in CHANGES.md."""
    done = digest("--workload", "hidden-perm", "--seeds", "701")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["sha256"] == (
        "28bb05c4473905159dc78c4cf82ce792d1a83de62caf19724c779a11c0095549")


def test_round_trip_against_saved_probabilities(saved):
    stdout, path = saved
    done = digest("--workload", "mirror-wide", "--seeds", "701", "--against", str(path))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout)
    assert line["max_peak_prob_diff"] == 0.0
    assert line["sha256"] == json.loads(stdout)["sha256"]


def test_seeds_default_to_the_three_identity_seeds():
    done = digest("--workload", "mirror-wide")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout)
    assert line["seeds"] == [701, 4242, 911] and line["instances"] == 15


def test_bad_seeds_exit_2():
    done = digest("--workload", "mirror-wide", "--seeds", "x")
    assert done.returncode == 2
    assert "--seeds" in done.stderr


@pytest.mark.parametrize("content,message", [
    (None, "--against: cannot read"),
    ("not json", "--against: cannot read"),
    ('["mirror-wide"]', "does not map workloads to lists of peak probabilities"),
    ('{"mirror-wide": [0.5, "x"]}', "does not map workloads to lists of peak probabilities"),
], ids=["missing", "not-json", "not-a-mapping", "not-numbers"])
def test_bad_against_file_is_a_usage_error_before_solving(tmp_path, content, message):
    path = tmp_path / "probs.json"
    if content is not None:
        path.write_text(content)
    done = digest("--workload", "mirror-wide", "--seeds", "701", "--against", str(path))
    assert done.returncode == 2
    assert message in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""  # no workload was digested


@pytest.mark.parametrize("target", ["missing/probs.json", "."], ids=["no-directory", "directory"])
def test_unwritable_save_path_is_a_usage_error_before_solving(tmp_path, target):
    done = digest("--workload", "mirror-wide", "--seeds", "701", "--save", str(tmp_path / target))
    assert done.returncode == 2
    assert "--save: cannot write" in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""


def test_benchmark_wrapped_names_resolve():
    """Every ``(module, attr)`` the benchmark harness wraps is a callable of
    the program, so renaming or deleting one of them fails here too. The
    harness is imported as ``tools/trajectory_digest.py`` imports its
    workloads, with ``src/`` and ``perfbench/`` on the path."""
    probe = (
        "import importlib, json, sys\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "import run\n"
        "print(json.dumps([[mod, attr, callable(getattr(importlib.import_module(mod), attr, None))]"
        " for mod, attr, _ in run.WRAPPED]))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe, str(ROOT / "src"), str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    wrapped = json.loads(done.stdout)
    assert wrapped
    assert [(mod, attr) for mod, attr, ok in wrapped if not ok] == []


def code_line_rows(*paths: str) -> dict[str, int]:
    """The ``<lines>  <name>`` rows ``tools/code_lines.py`` prints, by name."""
    done = subprocess.run([sys.executable, str(CODE_LINES), *paths], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert all(len(row) == 2 for row in rows)
    return {name: int(n) for n, name in rows}


def test_code_lines_total_is_the_sum_of_the_package_modules():
    rows = code_line_rows()
    total = rows.pop("total")
    assert set(rows) == {p.name for p in (ROOT / "src" / "mirrorbreak").glob("*.py")}
    assert total == sum(rows.values()) > 0


# seven code lines, two of them one string literal
PLAIN = """import math


class Box:
    size = 2

    def area(self):
        text = \"\"\"two
lines\"\"\"
        return math.sqrt(self.size) + len(text)
"""
DOCUMENTED = {
    "docstrings": """\"\"\"A module docstring
over two lines.\"\"\"
import math


class Box:
    'A class docstring.'
    size = 2

    def area(self):
        \"\"\"A method docstring.\"\"\"
        text = \"\"\"two
lines\"\"\"
        return math.sqrt(self.size) + len(text)
""",
    "comments": """# a comment line
import math  # a trailing comment


class Box:
    size = 2
    # an indented comment

    def area(self):
        text = \"\"\"two
lines\"\"\"
        return math.sqrt(self.size) + len(text)  # another
""",
    "blank-lines": """

import math



class Box:

    size = 2


    def area(self):

        text = \"\"\"two
lines\"\"\"

        return math.sqrt(self.size) + len(text)

""",
}


@pytest.mark.parametrize("added", sorted(DOCUMENTED))
def test_code_lines_ignore_docstrings_comments_and_blank_lines(tmp_path, added):
    plain, documented = tmp_path / "plain.py", tmp_path / "documented.py"
    plain.write_text(PLAIN)
    documented.write_text(DOCUMENTED[added])
    assert code_line_rows(str(plain), str(documented)) == {
        "plain.py": 7, "documented.py": 7, "total": 14}
