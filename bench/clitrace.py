"""Run the herzlab CLI with spans recorded, for the cli-cold traced pass.

Usage: python3 bench/clitrace.py SPANS_DIR <herzlab arguments>

Times ``import herzlab.cli``, wraps the library's public functions (see
tracing.py), runs the CLI as one root span and writes the spans, counts
and import time to SPANS_DIR/<pid>.json.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
t0 = time.perf_counter()
import herzlab.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0
import tracing  # noqa: E402

tracer = tracing.Tracer()
tracing.install(tracer)
argv = sys.argv[2:]
name = f"cli/{argv[0]}/{Path(argv[argv.index('--input') + 1]).stem}"
code = tracer.op(name, cli.main, argv)
with open(Path(sys.argv[1]) / f"{os.getpid()}.json", "w") as fh:
    json.dump({"spans": tracer.spans, "counts": dict(tracer.counts),
               "import_s": import_s}, fh)
sys.exit(code)
