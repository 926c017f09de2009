"""Run the ``repro`` CLI with the benchmark's layer tracing installed.

Usage (from the checkout root)::

    E2EBENCH_TRACE_DIR=DIR python3 e2ebench/launch.py <repro cli args>

The wrappers are installed at import time, outside the ``__main__``
guard, because the engine's pool workers start with the ``spawn``
method and re-import this file as their main module: they trace the
same layers as the process that launched them. Each process writes its
spans to ``DIR/spans-<pid>.json`` when it exits.
"""

import atexit
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402

_TRACE_DIR = os.environ.get("E2EBENCH_TRACE_DIR")
if _TRACE_DIR:
    tracing.install()
    atexit.register(lambda: tracing.dump(
        os.path.join(_TRACE_DIR, f"spans-{os.getpid()}.json")))

if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
