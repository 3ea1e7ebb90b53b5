"""The benchmark tracer patches vlclink functions by name; they must exist."""

import importlib.util
import os

import pytest

import vlclink
import vlclink.cli  # noqa: F401  (imports every traced module)

TRACING_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()


@pytest.mark.parametrize("layer", sorted(TRACING.LAYERS))
def test_layer_targets_exist(layer):
    for owner_path, attr in TRACING.LAYERS[layer]:
        owner = TRACING._resolve(vlclink, owner_path)
        assert attr in owner.__dict__, f"{owner_path}.{attr}"
