"""Every function, class and method of the package has a reader, and
each link decision has one owner.

A definition in `src/vlclink` must be referenced from the package itself,
from the benchmark harness in `perfbench/` (which wraps functions by name)
or from the README; the unit tests alone do not keep a definition alive.
The exceptions are the analytic oracles below, which exist to check the
simulator against closed forms.
"""

import ast
import os
import re
from dataclasses import replace

import pytest

from vlclink import analog_chain as ac
from vlclink import simkit as sk
from vlclink import waveform as wf

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


# the only functions that tell an identity or physical channel from the
# others: `ChannelSpec` resolves the model and responsivity that a mode
# implies, and `_apply_channel` draws the mode's noise
MODE_OWNERS = {"ChannelSpec.link", "ChannelSpec.responsivity",
               "_apply_channel"}


def mode_tests(node, scope=""):
    """(scope, line) of each comparison of a `.mode` attribute with
    "identity" or "physical"; the scope is the dotted name of the
    enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.Compare):
            operands = [child.left, *child.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "mode"
                   for o in operands) and any(
                    isinstance(c, ast.Constant)
                    and c.value in ("identity", "physical")
                    for o in operands for c in ast.walk(o)):
                yield scope, child.lineno
        yield from mode_tests(child, inner)


def test_channel_modes_resolved_in_one_place():
    found = [(os.path.basename(path), line, scope)
             for path in python_files(PACKAGE)
             for scope, line in mode_tests(parse(path))]
    stray = [f"{name}:{line} {scope or '<module>'}"
             for name, line, scope in found if scope not in MODE_OWNERS]
    assert not stray, ("compares channel.mode outside ChannelSpec: "
                       + ", ".join(stray))
    assert {scope for _, _, scope in found} == MODE_OWNERS


def test_kept_names_exist():
    defined = {name for path in python_files(PACKAGE)
               for name, _ in definitions(parse(path))}
    assert KEPT <= defined


# the one function that integrates the receiver's cells: the slot
# statistics and both noisy links take their cell means from it
CELL_INTEGRATORS = {"cell_means"}


def is_ones(node):
    """Whether `node` is a call of `ones` or `np.ones`."""
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "ones"
        or getattr(node.func, "attr", None) == "ones")


def ones_products(node, scope=""):
    """(scope, line) of each product with a vector of ones: an `@`, or a
    `matmul` or `dot` call, with a `ones(...)` operand; the scope is the
    dotted name of the enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult):
            operands = [child.left, child.right]
        elif (isinstance(child, ast.Call)
              and getattr(child.func, "attr", None) in ("matmul", "dot")):
            operands = [*child.args, child.func.value]
        else:
            operands = []
        if any(is_ones(o) for o in operands):
            yield scope, child.lineno
        yield from ones_products(child, inner)


def test_cells_integrated_in_one_place():
    found = [(os.path.basename(path), line, scope)
             for path in python_files(PACKAGE)
             for scope, line in ones_products(parse(path))]
    stray = [f"{name}:{line} {scope or '<module>'}"
             for name, line, scope in found if scope not in CELL_INTEGRATORS]
    assert not stray, ("integrates cells outside cell_means: "
                       + ", ".join(stray))
    assert {scope for _, _, scope in found} == CELL_INTEGRATORS


# the two implementations of a link's memory: the LED pole on a sample
# grid, and the slot-rate filter of a pulse link's measured slot response
LINK_FILTERS = {"led_transfer", "_PulseChain.light"}

# the only callers of the sample-grid LED: the DCO-OFDM transmitter, and
# the one measurement of a pulse link's slot response
LED_TRANSFER_CALLERS = {"_OfdmChain.light", "_PulseChain._slot_response"}


def calls(name, node, scope=""):
    """(scope, line) of each call of `name` or `<module>.name`; the scope
    is the dotted name of the enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None)):
            yield scope, child.lineno
        yield from calls(name, child, inner)


def test_link_memory_filtered_in_two_places():
    found = [(os.path.basename(path), line, scope)
             for path in python_files(PACKAGE)
             for scope, line in calls("lfilter", parse(path))]
    stray = [f"{name}:{line} {scope or '<module>'}"
             for name, line, scope in found if scope not in LINK_FILTERS]
    assert not stray, ("filters a link's memory outside led_transfer and "
                       "the slot-rate link filter: " + ", ".join(stray))
    assert {scope for _, _, scope in found} == LINK_FILTERS


def test_pulse_links_reach_the_sample_grid_led_only_to_measure():
    found = [(os.path.basename(path), line, scope)
             for path in python_files(PACKAGE)
             for scope, line in calls("led_transfer", parse(path))]
    stray = [f"{name}:{line} {scope or '<module>'}"
             for name, line, scope in found
             if scope not in LED_TRANSFER_CALLERS]
    assert not stray, ("runs the LED on the sample grid outside the "
                       "DCO-OFDM transmitter and the slot-response "
                       "measurement: " + ", ".join(stray))
    assert {scope for _, _, scope in found} == LED_TRANSFER_CALLERS


# an F=1 EPPM link of two waves of two stacks each: without memory its
# trial sends its symbols' light through the transmitter once, for their
# table; with the LED pole it renders every stack
TWO_WAVES = sk.TrialConfig(
    scheme=sk.SchemeSpec(kind="eppm"), geometry=wf.SlotGeometry(30e-9, 4),
    channel=sk.ChannelSpec(mode="awgn", slot_snr_db=9.0),
    run=sk.RunSpec(max_bits=2 * 8 * 2048 * 2, min_errors=10 ** 9,
                   batch_symbols=2048), interleaver_depth=8)


@pytest.mark.parametrize("device, expected", [
    (ac.LED_PRESETS["ideal"], {"light": 1, "synthesize": 1, "interleave": 0}),
    (ac.LED_PRESETS["trichromatic"],
     {"light": 4, "synthesize": 4, "interleave": 4}),
], ids=["memoryless", "pole"])
def test_a_memoryless_trial_sends_its_light_once(device, expected,
                                                 monkeypatch):
    called = dict.fromkeys(["counts", *expected], 0)

    def counted(owner, name):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            called[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    for owner, name in ((sk._PulseChain, "counts"), (sk._PulseChain, "light"),
                        (wf, "synthesize"), (wf, "interleave")):
        counted(owner, name)
    report = sk.run_trials(replace(TWO_WAVES, device=device))
    assert report.bits_sent == TWO_WAVES.run.max_bits
    assert called == {"counts": 4, **expected}


# the only module that unpacks symbol indices into bits: DCO-OFDM's QAM
# demapper.  A pulse chain counts a symbol's bit errors as the popcount of
# the sent index XOR the decided one, with no bit round trip
BIT_UNPACKERS = {"ofdm.py"}


def test_bits_unpacked_only_for_ofdm():
    found = [(os.path.basename(path), line, scope)
             for path in python_files(PACKAGE)
             for scope, line in calls("indices_to_bits", parse(path))]
    stray = [f"{name}:{line} {scope or '<module>'}"
             for name, line, scope in found if name not in BIT_UNPACKERS]
    assert not stray, ("unpacks indices into bits outside ofdm: "
                       + ", ".join(stray))
    assert {name for name, _, _ in found} == BIT_UNPACKERS


# the only callers that pack bits into symbol indices: DCO-OFDM's QAM
# mapper and the public `encode_bits`.  A pulse trial draws its symbol
# indices, so no trial packs bits for a pulse chain
BIT_PACKERS = {("ofdm.py", "dco_modulate"), ("constellations.py",
                                             "encode_bits")}


def test_bits_packed_only_for_ofdm_and_encode_bits():
    found = {(os.path.basename(path), scope)
             for path in python_files(PACKAGE)
             for scope, _ in calls("bits_to_indices", parse(path))}
    assert found == BIT_PACKERS
