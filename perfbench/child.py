"""Run one tghnet CLI command from this checkout's `src/`, optionally traced.

    python3 perfbench/child.py [--trace-out SPANS.json] -- <tghnet args...>

The package is imported from `src/` beside this directory and the command
fails (exit 99) if some other copy of tghnet would be used.  With
`--trace-out`, the layers are wrapped by `tracer.install` and the spans are
written to the given file when the command ends.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, str(SRC))
    import tghnet
    from tghnet import cli

    if Path(tghnet.__file__).resolve().parent != SRC / "tghnet":
        print(f"tghnet imported from {tghnet.__file__}, not from {SRC}", file=sys.stderr)
        return 99
    if trace_out is None:
        return cli.main(argv)

    # The tracer imports numpy, so cap the BLAS pools first, as main() would.
    cli._apply_thread_cap()
    import tracer  # sits beside this script, which is first on sys.path

    rec = tracer.Recorder()
    tracer.install(rec)
    try:
        return cli.main(argv)
    finally:
        rec.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
