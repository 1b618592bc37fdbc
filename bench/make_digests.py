"""Record sha256 digests of ``construct --n k`` output for the benchmark.

    python3 bench/make_digests.py

Writes ``bench/k2n_digests.json`` for every n the benchmark runs: the
k2n-pipeline range, the small sizes of its warm-up and self-tests, and
the K_1000 reference.  Run it only when the construction's output is
meant to change; the benchmark checks every emitted file against it.
"""

from __future__ import annotations

import json

import harness
from workloads import DIGESTS_PATH, sha256

N_VALUES = [*range(1, 201), 500]


def main() -> None:
    lib = harness.load_library()
    digests = {}
    for n in N_VALUES:
        text = lib.io.emit_coloring(lib.graph.complete_graph(2 * n), lib.construction.construct(n))
        digests[str(n)] = sha256(text)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"command": "construct --n <k>", "sha256": digests}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
