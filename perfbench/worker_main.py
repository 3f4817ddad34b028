"""Run ``repro``'s CLI (a fleet worker) with the benchmark's layer spans.

Usage::

    python3 perfbench/worker_main.py --spans OUT.json worker --url URL --max-idle 2

The wrappers of :mod:`perfbench.tracing` are installed for the whole
process, and a span summary is written to ``OUT.json`` when the CLI
returns. The ``repro`` package is imported from ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--spans", required=True, help="write the span summary here")
    opts, cli_args = parser.parse_known_args(argv)

    from perfbench.tracing import Recorder, instrument
    from repro.cli import main as cli_main

    recorder = Recorder()
    with instrument(recorder):
        code = cli_main(cli_args)
    with open(opts.spans, "w") as fh:
        json.dump(recorder.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
