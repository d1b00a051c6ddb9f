"""One unit of a workload in a fresh process: set up, then run its CLI calls.

Usage: python3 unit.py SPEC.json LAUNCH_MONOTONIC

SPEC names the configs to write, the CLI argument lists to run in order, and
where to put the result (and, when traced, the spans).  Set-up is measured
from LAUNCH_MONOTONIC, taken by the parent just before it started this
process, until `starkdtc.cli` is imported and every config is written.  The
wall time runs from the first CLI call until the last one has returned, i.e.
until the last output file is written.  A spec with no calls only measures
set-up.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import starkdtc.cli as cli


def main(spec_path: str, launch: float) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    for call in spec["calls"]:
        Path(call["config_path"]).write_text(call["config_text"], encoding="utf-8")
    setup_s = time.monotonic() - launch

    tracer = None
    if spec.get("spans_path"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    returns = []
    start = time.monotonic()
    for call in spec["calls"]:
        try:
            if tracer is None:
                rc = cli.main(call["argv"])
            else:
                with tracer.span("cli.main"):
                    rc = cli.main(call["argv"])
        except Exception:  # a traceback is a failed call, not a failed benchmark
            traceback.print_exc()
            rc = "exception"
        returns.append(rc)
    wall_s = time.monotonic() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "returns": returns,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write(spec["spans_path"])
        result["absent"] = tracer.absent
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
