"""Package-wide checks: the runtime imports only the standard library and
numpy, every public name a module lists is there, and parsing a config
imports no more of numpy than `import numpy` does."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import orbitrecur

PACKAGE = Path(orbitrecur.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE)]))


def imported_roots(path):
    """Top-level names of the absolute imports anywhere in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_stdlib_and_numpy_only():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = {(path.name, root) for path in sorted(PACKAGE.glob("*.py"))
               for root in imported_roots(path) if root not in allowed}
    assert outside == set()


def test_every_all_entry_resolves():
    missing = [(name, entry) for name in MODULES
               for module in [importlib.import_module(f"orbitrecur.{name}")]
               for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert missing == []


def test_seed_codes_are_the_experiment_kinds():
    # every kind derives its seeds under its own code, and no code is left
    # that no kind uses
    from orbitrecur.expcli import KINDS
    from orbitrecur.rng import KIND_CODES

    assert set(KIND_CODES) == set(KINDS)


ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"


def test_bench_oracle_imports_resolve():
    # bench/ sits outside testpaths: an API deletion it relies on fails here
    imports = [(node.module, alias.name)
               for node in ast.walk(ast.parse(ORACLE.read_text(), filename=str(ORACLE)))
               if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "orbitrecur"
               for alias in node.names]
    assert imports
    missing = [(module, name) for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_bench_oracle_sampling_contract():
    # bench/oracle.py's call: sample_sequence(m, None, n, buffer, seed), then
    # the brute-force M_n over its first n starts
    from orbitrecur import longest_self_match, longest_self_match_bruteforce, sample_sequence
    from orbitrecur.symbolic import MarkovMeasure

    m = MarkovMeasure([1 / 3, 2 / 3], [[0.0, 1.0], [0.5, 0.5]])
    n, buffer = 60, 9
    seq = sample_sequence(m, None, n, buffer, 5)
    assert len(seq) == n + buffer and seq.dtype.kind == "i" and not seq.flags.writeable
    assert longest_self_match_bruteforce(seq, n) == longest_self_match(seq, n)


STARTUP_PROBE = """
import sys
import numpy
before = "numpy.ma" in sys.modules
from orbitrecur.expcli import EXAMPLE_CONFIGS, parse_config_text
for kind in ("match_curve", "h2", "diagnostics", "returns"):
    parse_config_text(EXAMPLE_CONFIGS[kind])
print(before, "numpy.ma" in sys.modules)
"""


def test_measure_configs_do_not_import_numpy_ma():
    # a fresh interpreter: another test may already have imported numpy.ma
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", STARTUP_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out[0] == out[1]
