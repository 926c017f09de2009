"""The pinned counter digest of two measured workloads.

Every other check of ``cold-compare`` is computed afresh from the run's
own outputs; this one needs a copy: a SHA-256 over two workloads'
counter rows (totals and per-interval series, all 14 events) at the
``--quick`` preset. It pins the simulated statistics, so a simulator
change that moves any counter of these workloads fails ``digest``.

Regenerate it, after a deliberate change to the simulated statistics,
from the checkout root::

    python3 e2ebench/digest.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "digest.json")

#: The pinned rows: one phase-rich and one flat workload, both in the
#: suites the tiny test size compares.
PINNED = ("nbench/huffman", "sgxgauge/pagerank")


def row_digest(matrix, workload):
    """SHA-256 of one workload's totals and series, in event order."""
    row = matrix.workloads.index(workload)
    h = hashlib.sha256()
    for j, event in enumerate(matrix.events):
        h.update(event.encode())
        h.update(np.float64(matrix.values[row, j]).tobytes())
        h.update(np.ascontiguousarray(matrix.series[event][row],
                                      dtype=np.float64).tobytes())
    return h.hexdigest()


def load():
    with open(PATH) as f:
        return json.load(f)["digests"]


def measure():
    """Digests of the pinned workloads, each measured alone at the
    ``--quick`` preset (equal to its suite row: ``remeasure`` checks
    that on every run)."""
    from repro.core.matrix import CounterMatrix
    from repro.experiments.runner import ExperimentConfig
    from repro.perf.session import SuiteMeasurement
    from repro.workloads import load_suite

    session = ExperimentConfig.quick().session()
    out = {}
    for key in PINNED:
        suite, workload = key.split("/")
        m = session.run_workload(load_suite(suite).workload(workload))
        single = CounterMatrix.from_measurement(SuiteMeasurement(
            suite_name=suite, workload_names=(workload,),
            events=session.events,
            matrix=m.vector(session.events)[None, :],
            series={e: [m.series[e]] for e in session.events},
        ))
        out[key] = row_digest(single, workload)
    return out


def main(argv):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    digests = measure()
    if "--write" in argv:
        with open(PATH, "w") as f:
            json.dump({"preset": "quick", "digests": digests}, f, indent=2)
            f.write("\n")
        print(f"wrote {PATH}")
    else:
        pinned = load()
        for key, value in digests.items():
            state = "ok" if pinned.get(key) == value else "DIFFERS"
            print(f"{key}: {value} {state}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
