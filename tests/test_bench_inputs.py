"""The bench's inputs are the bytes that ``perfbench/expected.json`` pins.

``perfbench/run.py`` regenerates its input with ``postsched synth`` and
refuses a run whose digests differ from ``expected.json``. It imports
``tomllib`` (Python 3.11+), so this test reads the workload shapes from its
source without importing it, and checks the same four digests on every
interpreter and numpy the suite runs on: the synth stream reproduces
numpy's Poisson draws, which a numpy release could change.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from postsched import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _run_py_names() -> dict:
    """COMMON, AUDIENCE, WORKLOADS and INPUT_FILES as run.py defines them."""
    source = (BENCH / "run.py").read_text(encoding="utf-8")
    names: dict = {}
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("COMMON", "AUDIENCE", "WORKLOADS",
                                           "INPUT_FILES")):
            # Literals, and dicts that unpack the names before them.
            names[node.targets[0].id] = eval(
                compile(ast.Expression(node.value), "run.py", "eval"),
                {"__builtins__": {}}, dict(names))
    return names


RUN = _run_py_names()
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


def test_run_py_shapes_were_read():
    assert sorted(RUN["WORKLOADS"]) == ["audience-fast", "audience-slow", "log-heavy"]
    assert RUN["INPUT_FILES"] == ("posts", "reactions", "edges", "users")


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", sorted(RUN["WORKLOADS"]))
def test_synth_gives_the_recorded_inputs(tmp_path, capsys, workload, seed):
    # The config file run.py writes before each synth.
    config = tmp_path / "synth.config"
    config.write_text("".join(f"{k}={v}\n" for k, v in
                              {**RUN["COMMON"], **RUN["WORKLOADS"][workload]}.items()),
                      encoding="utf-8")
    out = tmp_path / "in"
    assert cli.main(["synth", "--config", str(config), "--out", str(out),
                     "--seed", str(seed)]) == 0
    capsys.readouterr()
    want = EXPECTED[workload][str(seed)]
    got = {name: hashlib.sha256((out / f"{name}.tsv").read_bytes()).hexdigest()
           for name in RUN["INPUT_FILES"]}
    assert got == {name: want[name] for name in RUN["INPUT_FILES"]}
