"""One monoidrep CLI invocation, as the benchmark runs it in a fresh process.

usage: python3 perfbench/launch.py <trace-file | -> <monoidrep arguments...>

It imports monoidrep from the checkout's src/ directory, writes the
monotonic clock reading taken after the import to stderr (the benchmark
subtracts its spawn time to get setup_s), then runs the CLI exactly as the
`monoidrep` entry point does.  With a trace file it first wraps the layer
functions and writes their spans there when the CLI exits.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import monoidrep.cli as cli

    print(f"perfbench-setup {time.monotonic()!r}", file=sys.stderr, flush=True)
    trace_path = sys.argv[1]
    sys.argv = ["monoidrep"] + sys.argv[2:]
    if trace_path == "-":
        cli.main()
        return
    import tracer

    recorder = tracer.install()
    try:
        cli.main()
    finally:
        recorder.write(trace_path)


if __name__ == "__main__":
    main()
