import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import fmresynth
from fmresynth import autodiff as ad

SRC = Path(fmresynth.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def private_reads(path):
    """(line, name) of every `_`-prefixed name that the module at `path`
    imports from, or reads off, another module of the package."""
    tree = ast.parse(path.read_text(), str(path))
    modules = set()  # local names bound to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("fmresynth")):
            for alias in node.names:
                if node.module is None or node.module == "fmresynth":
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fmresynth") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    found = {path.name: private_reads(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_check_sees_both_forms(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from . import training as tr\n"
                    "from .training import _handle, Model\n"
                    "tr._dropout_seed(0, 0, 0)\n"
                    "tr.__file__\n")
    assert private_reads(path) == [(2, "training._handle"),
                                   (3, "tr._dropout_seed")]


def package_imports(path):
    """Names of the package modules that the module at `path` imports,
    at the top or inside a function."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("fmresynth")):
            module = (node.module or "").removeprefix("fmresynth").lstrip(".")
            found |= ({module} if module else
                      {alias.name for alias in node.names})
        elif isinstance(node, ast.Import):
            found |= {alias.name.removeprefix("fmresynth.")
                      for alias in node.names
                      if alias.name.startswith("fmresynth.")}
    return found


def test_workers_import_no_package_module_and_training_no_evaluation():
    # a request names the function it runs, so the pool needs no module
    # of the package, and training none of the modules built on it
    assert package_imports(SRC / "workers.py") == set()
    assert "evaluation" not in package_imports(SRC / "training.py")
    assert package_imports(SRC / "evaluation.py") >= {"training", "workers"}


def test_importing_the_package_leaves_scipy_out():
    # a worker imports the module of its first request's function (training
    # for train): scipy.fft would add ~0.4 s to every worker's start, and
    # scipy.signal ~0.8 s to a prepare whose wavs need no resampling
    code = ("import sys\n"
            "from fmresynth import cli, dataset, evaluation, training\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "dataset.resample_to([0.0] * 8, dataset.SAMPLE_RATE)\n"
            "print('scipy.signal' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.stdout == "[]\nFalse\n"


def test_the_readme_autodiff_row_states_the_op_set():
    (row,) = [line for line in README.read_text().splitlines()
              if line.startswith("| `fmresynth.autodiff` |")]
    assert f"a closed set of {len(ad.OP_KINDS)} ops" in row
    assert [k for k in ad.OP_KINDS if not re.search(rf"\b{k}\b", row)] == []
