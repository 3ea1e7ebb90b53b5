"""vlclink starts on numpy alone.

Every module of the package imports, at module level, only the standard
library, numpy and the package itself; scipy is imported inside the
functions that need it (a link with memory, which an LED pole or a
channel that does more than scale gives, and the analytic oracles), so a
short CLI run on a link without memory does not pay for loading it.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

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


def trial(led, model=None):
    channel = {"mode": "awgn", "slot_snr_db": 8.0}
    if model is not None:
        channel["model"] = model
    return f"""
import vlclink.cli
from vlclink import simkit as sk
doc = {{
    "scheme": {{"kind": "eppm", "q": 7, "k": 3}},
    "geometry": {{"slot_duration": 1e-6, "samples_per_slot": 2}},
    "device": {led!r},
    "channel": {channel!r},
    "run": {{"max_bits": 2000, "min_errors": 1, "batch_symbols": 64}},
}}
assert sk.run_trials(sk.config_from_document(doc)).bits_sent > 0
"""


def test_cli_import_and_pole_free_trial_load_no_scipy():
    assert loaded_scipy_modules(trial("ideal")) == []


def test_saturating_led_on_a_flat_channel_loads_no_scipy():
    assert loaded_scipy_modules(trial({"saturation_power": 0.8},
                                      {"los_gain": 0.5})) == []


def test_led_pole_loads_scipy_signal():
    assert "scipy.signal" in loaded_scipy_modules(trial("trichromatic"))


def test_nlos_channel_loads_scipy_signal():
    assert "scipy.signal" in loaded_scipy_modules(trial(
        "ideal", {"nlos_gain": 0.3, "nlos_decay": 2e-6}))


def calibration(led):
    return f"""
from vlclink import simkit as sk
doc = {{
    "scheme": {{"kind": "eppm", "q": 7, "k": 3}},
    "geometry": {{"slot_duration": 1e-7, "samples_per_slot": 4}},
    "device": {led!r},
    "array_split_leds": 3,
}}
config = sk.config_from_document(doc)
assert sk.calibrate_drive(config, 1.0) != config
"""


def flicker(led):
    return f"""
import json, os, tempfile
from vlclink import cli
doc = {{
    "scheme": {{"kind": "eppm", "q": 7, "k": 3}},
    "geometry": {{"slot_duration": 1e-7, "samples_per_slot": 4}},
    "device": {led!r},
    "flicker": {{"n_symbols": 200}},
}}
with tempfile.TemporaryDirectory() as out:
    path = os.path.join(out, "config.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert cli.main(["flicker", "--config", path, "--output-dir", out]) == 0
"""


@pytest.mark.parametrize("body", [calibration, flicker])
def test_memoryless_light_loads_no_scipy(body):
    assert loaded_scipy_modules(body({"saturation_power": 0.8})) == []


@pytest.mark.parametrize("body", [calibration, flicker])
def test_pole_light_loads_scipy_signal(body):
    assert "scipy.signal" in loaded_scipy_modules(body("trichromatic"))
