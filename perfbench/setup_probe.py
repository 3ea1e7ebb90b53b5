"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR DOCUMENTS_JSON

Times importing vlclink (which pulls in numpy and scipy), validating the
workload's config documents and building each one's constellation (or
OFDM config), then prints {"setup_s": seconds} on one line.
"""

import json
import os
import sys
import time


def main(src, documents):
    start = time.perf_counter()
    sys.path.insert(0, src)
    from vlclink import cli, simkit  # noqa: F401  (cli: the full import)

    if not os.path.abspath(simkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"vlclink imported from {simkit.__file__}")
    for doc in documents:
        config = simkit.config_from_document(doc)
        if config.scheme.kind == "dco_ofdm":
            config.scheme.build_ofdm()
        else:
            config.scheme.build_constellation()
    return time.perf_counter() - start


if __name__ == "__main__":
    seconds = main(os.path.abspath(sys.argv[1]), json.loads(sys.argv[2]))
    print(json.dumps({"setup_s": seconds}))
