"""Run ``repro serve`` with the benchmark's layer wrappers installed.

    python -m bench.serve_traced --spans-out FILE serve --port 0 ...

The daemon runs exactly as ``python -m repro serve ...`` would; spans stay
in memory and are written to FILE, as a JSON list, once it has drained
after SIGTERM.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans-out":
        raise SystemExit("usage: python -m bench.serve_traced --spans-out FILE serve ...")
    out, serve_argv = argv[1], argv[2:]

    from bench.spans import SpanRecorder, tracing
    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    with tracing(recorder):
        code = repro_main(serve_argv)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump([span.to_dict() for span in recorder.spans], handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
