"""The README's documented library API runs as written."""

import os
import re

import numpy as np

from vlclink import constellations as con

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def quick_start_block():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    namespace = {}
    exec(compile(quick_start_block(), README, "exec"), namespace)
    stats, ber = capsys.readouterr().out.splitlines()
    assert stats == "CodeStats(papr=2.3333333333333335, min_distance=4, size=7)"
    assert 0 < float(ber) < 0.5
    # the noiseless loopback decodes every symbol it sent
    sent = con.bits_to_indices(namespace["bits"], namespace["c"].bits_per_symbol)
    assert np.array_equal(namespace["decoded"], sent)
