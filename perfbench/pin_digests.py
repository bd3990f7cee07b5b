"""Pin the output digests of every workload at every pool seed.

    python3 perfbench/pin_digests.py

Runs each workload once per pipeline seed of its pool, untraced, and writes
the sha256 of ``report.json`` and of the data artifact to ``digests.json``.
Re-pin only for a change that declares it alters the random stream or an
output format; otherwise a mismatch is the finding.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, FULL, WORKLOADS, child_env, one_call, source_digest


def main() -> int:
    env = child_env()
    tag = source_digest()
    pinned = {}
    for name, w in WORKLOADS.items():
        pinned[name] = {}
        for seed in w.pool():
            rec = one_call(name, seed, False, env, FULL, {}, tag)
            if rec["failures"]:
                print(f"{name} seed {seed} failed: {rec['failures']}", file=sys.stderr)
                return 1
            pinned[name][str(seed)] = rec["digests"]
            print(name, seed, rec["digests"], flush=True)
    (BENCH / "digests.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
