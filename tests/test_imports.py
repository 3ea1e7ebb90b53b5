"""vlclink starts on numpy alone.

Every module of the package imports, at module level, only the standard
library, numpy and the package itself; scipy is imported inside the
functions that need it (the LED pole and the analytic oracles), so a
short CLI run does not pay for loading it.
"""

import ast
import json
import os
import subprocess
import sys

import vlclink

PACKAGE = os.path.dirname(os.path.abspath(vlclink.__file__))
# made absolute so the child imports the same package whatever its
# working directory
PACKAGE_ROOT = os.path.dirname(PACKAGE)

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "vlclink"}


def module_level_imports(tree):
    """Import statements that run when the module is imported: all but
    those inside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        else:
            stack.extend(ast.iter_child_nodes(node))


def imported_names(node):
    if isinstance(node, ast.ImportFrom):
        return ["vlclink"] if node.level else [node.module]
    return [alias.name for alias in node.names]


def test_module_level_imports_are_stdlib_numpy_or_package():
    offending = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in module_level_imports(tree):
            for module in imported_names(node):
                if module.split(".")[0] not in ALLOWED:
                    offending.append(f"src/vlclink/{name}:{node.lineno} "
                                     f"imports {module}")
    assert not offending, (
        "import these inside the functions that use them: "
        + ", ".join(sorted(offending)))


def loaded_scipy_modules(body):
    """The scipy modules a fresh interpreter holds after running `body`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    code = (
        "import json, sys\n" + body + "\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy')))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def trial(led):
    return f"""
import vlclink.cli
from vlclink import simkit as sk
doc = {{
    "scheme": {{"kind": "eppm", "q": 7, "k": 3}},
    "geometry": {{"slot_duration": 1e-6, "samples_per_slot": 2}},
    "device": {led!r},
    "channel": {{"mode": "awgn", "slot_snr_db": 8.0}},
    "run": {{"max_bits": 2000, "min_errors": 1, "batch_symbols": 64}},
}}
assert sk.run_trials(sk.config_from_document(doc)).bits_sent > 0
"""


def test_cli_import_and_pole_free_trial_load_no_scipy():
    assert loaded_scipy_modules(trial("ideal")) == []


def test_led_pole_loads_scipy_signal():
    assert "scipy.signal" in loaded_scipy_modules(trial("trichromatic"))
