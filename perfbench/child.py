"""Run one mlmc-sde command in this process and report its timings as JSON.

Usage: child.py SRC_DIR SPAWN_TIME RESULT_JSON TRACE [CLI_ARG ...]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (the clock is shared between processes), so ``setup_s`` covers
interpreter start-up and the import of mlmc_sde.cli.  With no CLI
arguments the child only measures set-up.  TRACE=1 installs the spans of
spans.py before the command runs.
"""

import json
import sys
import time


def main() -> int:
    src, spawned, result_path, trace = sys.argv[1:5]
    cli_args = sys.argv[5:]
    sys.path.insert(0, src)
    from mlmc_sde import calibrate, cli, estimators, models, schemes

    result = {"setup_s": time.monotonic() - float(spawned)}
    code = 0
    try:
        tracer = None
        if trace == "1":
            from spans import Tracer

            tracer = Tracer()
            tracer.install(cli, calibrate, estimators, schemes, models)
        if cli_args:
            start = time.perf_counter()
            code = cli.main(cli_args)
            result["main_s"] = time.perf_counter() - start
        if tracer is not None:
            result["layers"] = tracer.layers()
    finally:
        with open(result_path, "w") as fh:
            json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
