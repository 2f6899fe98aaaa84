"""``python -m causalgame.cli`` with the benchmark's spans installed.

Usage: python3 perfbench/traced_cli.py SUMMARY_PATH CLI_ARG...

Runs the command-line tool in this process with every public function
traced, then writes the per-name call counts and self times to
SUMMARY_PATH for the parent benchmark process to merge.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer

import causalgame.cli

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = causalgame.cli.main(sys.argv[2:])
    finally:
        Path(sys.argv[1]).write_text(json.dumps(tracer.summary()))
    sys.exit(code)
