"""Every function, class and method of the package has a reader.

A definition in `src/vlclink` must be referenced from the package itself,
from the benchmark harness in `perfbench/` (which wraps functions by name)
or from the README; the unit tests alone do not keep a definition alive.
The exceptions are the analytic oracles below, which exist to check the
simulator against closed forms.
"""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "vlclink")

KEPT = {
    # closed-form oracles the unit tests check the simulator against
    "expected_statistics",      # noiseless slot statistics
    "noise_variance_dark",      # dark shot plus thermal noise variance
    "ser_union_bound",          # pairwise union bound on SER
    "q_function",
    "qam_ber_awgn",             # Gray QAM BER over AWGN
    # C8 rests on DCO-OFDM's high PAPR
    "papr_waveform",
    # the README's link-budget arithmetic; C6's 400 lx -> 13 uW reasoning
    "illuminance_to_power",
}


def python_files(top):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def definitions(tree):
    """(name, line) of the module's functions and classes and of the
    methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno


def docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)):
                yield body[0].value


def references(tree):
    """Names read in code: identifiers, attributes, and the words of
    string constants other than docstrings (the tracer's targets)."""
    skip = {id(node) for node in docstrings(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            yield from re.findall(r"\w+", node.value)


def test_every_definition_has_a_reader():
    readers = set()
    for top in (PACKAGE, os.path.join(ROOT, "perfbench")):
        for path in python_files(top):
            readers.update(references(parse(path)))
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readers.update(re.findall(r"\w+", fh.read()))
    unread = [
        f"{os.path.basename(path)}:{line} {name}"
        for path in python_files(PACKAGE)
        for name, line in definitions(parse(path))
        if not (name.startswith("__") and name.endswith("__"))
        and name not in readers and name not in KEPT
    ]
    assert not unread, "defined but never read: " + ", ".join(unread)


def test_kept_names_exist():
    defined = {name for path in python_files(PACKAGE)
               for name, _ in definitions(parse(path))}
    assert KEPT <= defined
