"""Start ``basecamp serve`` with the layer wrappers installed.

The traced serve-hot run starts its daemon through this file instead of
``python -m repro.basecamp.cli serve``: it installs the span wrappers of
:mod:`layers` (request path included), runs the normal ``serve`` entry
point and, once SIGINT has shut the daemon down, writes the spans.

    python3 perfbench/serve_boot.py TRACE_FILE [serve options...]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import Recorder, install  # noqa: E402


def main(argv) -> int:
    trace_file, serve_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec, server=True)
    from repro.basecamp.cli import main as basecamp

    try:
        return basecamp(["serve", *serve_args])
    finally:
        rec.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
