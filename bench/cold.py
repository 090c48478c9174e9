"""One cold pass in a fresh interpreter, timed with the scaling clock.

    python3 bench/cold.py TIMING_FILE cli ARGS...    # as ``python3 -m fanocalc.cli ARGS``
    python3 bench/cold.py TIMING_FILE grass-ladder   # one ladder pass, outputs as JSON

Standard output and the exit code are the pass's own.  TIMING_FILE receives
``{"raw_s", "scaled_s", "probe_s"}``: the pass's wall and scaled time, from
importing fanocalc to the end, and the wall time spent in probes, so the
parent can scale the rest of the process's lifetime (interpreter start and
exit) itself.
"""

from __future__ import annotations

import json
import runpy
import sys

from clock import Clock


def _cli(args: list):
    sys.argv = ["fanocalc", *args]
    try:
        runpy.run_module("fanocalc.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code
    return 0


def _ladder():
    import workloads

    workloads.import_fanocalc()
    sys.stdout.write(workloads.GrassLadder().warm_pass())
    return 0


def main() -> int:
    timing_path, target, *args = sys.argv[1:]
    clock = Clock()
    code, raw, scaled = clock.sample(lambda: _cli(args) if target == "cli" else _ladder())
    sys.stdout.flush()
    with open(timing_path, "w", encoding="utf-8") as handle:
        json.dump({"raw_s": raw, "scaled_s": scaled, "probe_s": clock.probe_s}, handle)
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
