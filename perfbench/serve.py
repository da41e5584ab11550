"""Start the job server with the benchmark's spans installed.

Usage: ``python3 perfbench/serve.py SPAN_DIR [python -m repro.service args]``

The wrappers go in before the server creates its worker pool, so the
forked workers inherit them; every process writes its spans to
``SPAN_DIR/spans-<pid>.json`` when it exits.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from env import bootstrap  # noqa: E402

if __name__ == "__main__":
    bootstrap()
    import tracing
    from repro.service.__main__ import main

    tracing.install(Path(sys.argv[1]))
    sys.exit(main(sys.argv[2:]))
