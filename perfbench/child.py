"""One pipeline call in a fresh process.

    python3 perfbench/child.py CONFIG SPAWNED TRACE RESULT

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start-up, ``import mimicsde`` and
reading the config.  With ``TRACE`` 1 the layers are wrapped by
:mod:`tracer` before the timed call.  The timings, peak memory, stored support
violations and (traced) per-layer figures go to the JSON file ``RESULT``; the
exit status is that of ``mimicsde.cli.run``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    config_path, spawned, trace, result_path = argv[1], float(argv[2]), argv[3] == "1", argv[4]
    # one CPU for the whole call: migrations between the vCPUs of a shared
    # box add run-to-run noise (per-call CV ~10% unpinned, ~8% pinned)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import mimicsde
    from mimicsde import cli, sdesim

    from tracer import Tracer, install, rebind

    if not Path(mimicsde.__file__).resolve().is_relative_to(SRC):
        print(f"imported mimicsde from {mimicsde.__file__}, not {SRC}", file=sys.stderr)
        return 3
    with open(config_path) as fh:
        cfg = json.load(fh)

    # keep every simulated ensemble so stored support can be checked after
    # the timed call; the pipelines hold them until they return anyway
    ensembles = []

    def recorded(fn):
        def record(*args, **kwargs):
            ens = fn(*args, **kwargs)
            ensembles.append(ens)
            return ens
        return record

    for fn in (sdesim.simulate_sde, sdesim.simulate_ito_process):
        rebind(fn, recorded(fn))
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)

    setup_s = time.monotonic() - spawned
    cpu0, wall0 = time.process_time(), time.perf_counter()
    status = cli.run(cfg)
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0

    result = {
        "status": status,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ensembles": len(ensembles),
        "support_violations": sum(sdesim.support_check(e).violations for e in ensembles),
        "layers": tracer.metrics() if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
