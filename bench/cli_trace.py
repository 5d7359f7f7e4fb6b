"""Traced CLI command: ``python3 bench/cli_trace.py ARGS...`` runs
``zetakit ARGS...`` in this fresh interpreter with the bench's spans
installed, then writes the spans as one marked JSON line on stderr.
Stdout and the exit code are the CLI's own.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import zetakit.cli  # noqa: E402
from spans import SPAN_MARK, Recorder  # noqa: E402

if __name__ == "__main__":
    recorder = Recorder()
    recorder.install()
    code = zetakit.cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(SPAN_MARK + json.dumps(recorder.spans) + "\n")
    sys.exit(code)
