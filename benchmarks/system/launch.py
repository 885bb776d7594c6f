"""Start the unmodified ``repro`` command line with the tracer installed.

The traced ``http_topk`` run starts its server through this file instead
of ``python -m repro``: it wraps the same entry points the in-process
workloads wrap, hands ``argv`` after ``--`` to ``repro.__main__.main``
untouched, and writes the recorded spans to ``--spans`` when the server
stops (SIGTERM is turned into the Ctrl-C the serve loop exits cleanly on).
"""

from __future__ import annotations

import argparse
import signal
import sys

from common import add_src_to_path
from tracer import Tracer


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True,
                        help="file the spans are written to at exit")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- followed by the repro command line")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    add_src_to_path()
    from repro.__main__ import main as repro_main

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return repro_main(command)
    finally:
        tracer.enabled = False
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
