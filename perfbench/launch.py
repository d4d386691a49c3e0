"""Run one mmsaliency CLI command exactly as `python -m mmsaliency.cli` does,
with the probes of probe.py installed, and write what they recorded.

    python perfbench/launch.py <record.json> <trace 0|1> <cli arguments...>

The record holds the oracle evaluation count and, with trace 1, the spans
and oracle call times. The exit code is the CLI's.
"""

import json
import runpy
import sys

from probe import instrument


def main():
    record_path, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.argv = ["mmsaliency", *cli_args]
    with instrument(trace) as recorder:
        try:
            runpy.run_module("mmsaliency.cli", run_name="__main__", alter_sys=True)
        finally:
            with open(record_path, "w", encoding="utf-8") as fp:
                json.dump(recorder.to_json(), fp)


if __name__ == "__main__":
    main()
