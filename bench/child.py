"""One CLI call in a fresh interpreter, timed from inside.

    python3 child.py RESULT_JSON TRACE(0|1) SRC_DIR -- CLI_ARGS...

Measures the package import (``setup_s``), then ``sbergsma.cli.main`` with
its wall time, its user+system CPU time and the process's peak RSS.  With
TRACE=1 the package's public functions are wrapped first (see tracer.py) and
the per-function figures are added to the result.  A fresh process per call
means lazy imports and in-process memoisation cannot hide work that every
CLI call pays.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    result_path, trace, src = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    t0 = time.perf_counter()
    import sbergsma
    import sbergsma.cli
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if os.path.commonpath([os.path.abspath(sbergsma.__file__), src]) != src:
        result["error"] = f"imported {sbergsma.__file__}, not the package under {src}"
    else:
        tracer = None
        if trace:
            from tracer import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
        cpu0, t1 = _cpu_s(), time.perf_counter()
        try:
            result["rc"] = sbergsma.cli.main(argv)
        except Exception as exc:  # reported as a failed operation
            result["error"] = repr(exc)
        result["wall_s"] = time.perf_counter() - t1
        result["cpu_s"] = _cpu_s() - cpu0
        if tracer is not None:
            result["layers"] = layer_metrics(tracer.spans, tracer.absent)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
