"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py RESULT.json [--trace] [--keep-spans]
        [--repeat N] -- (setup QUIVER | cli ARGV...)

``setup`` only imports ``dupcat`` and parses the quiver; ``cli`` then runs
``dupcat.cli.main(ARGV)`` as the ``dupcat`` command would, with its standard
output going to this process's standard output.

RESULT.json receives the monotonic time at which set-up ended (the parent
holds the spawn time) and, with ``--trace``, the layer trace of each
repetition.  The exit code is the operation's.  Caches in ``dupcat`` live for
the whole process, so only ``--repeat 1`` measures what a user of the command
sees; larger values exist for the cold-state test.
"""

import json
import sys
import time
import traceback
from pathlib import Path


def _quiver_path(kind, argv):
    return argv[0] if kind == "setup" else argv[argv.index("--quiver") + 1]


def main(argv) -> int:
    split = argv.index("--")
    opts, (kind, *op_args) = argv[:split], argv[split + 1 :]
    result_path = Path(opts[0])
    trace = "--trace" in opts
    repeat = int(opts[opts.index("--repeat") + 1]) if "--repeat" in opts else 1

    import dupcat.cli
    from dupcat.quiver import parse_quiver

    parse_quiver(Path(_quiver_path(kind, op_args)).read_text(encoding="utf-8"))
    record = {"setup_end": time.monotonic(), "runs": []}

    tracer = None
    if trace:
        from layertrace import Tracer, install, overhead_s

        tracer = Tracer(keep_spans="--keep-spans" in opts)
        record["bound"] = install(tracer)

    rc = 0
    try:
        for _ in range(repeat):
            if tracer is not None:
                tracer.reset()
            if kind == "cli":
                rc = dupcat.cli.main(op_args)
            if tracer is not None:
                record["runs"].append(dict(tracer.snapshot(), overhead_s=overhead_s(tracer)))
    except Exception:  # reported to the parent as a failed operation
        traceback.print_exc()
        rc = 3
    sys.stdout.flush()
    result_path.write_text(json.dumps(record), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
