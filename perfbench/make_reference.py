"""Write the committed ``paper-repro`` reference values.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py 0 1 2 ...

For each seed, runs one reproduction pass (all 31 experiments at
``paper_repro.SCALE``) and stores every experiment's headers, rows and
notes in ``perfbench/reference/paper-repro-seed<N>.json.gz``.  Only
regenerate these when a change is meant to alter simulated results; the
benchmark treats any difference beyond 1e-9 relative as a failure.
"""

from __future__ import annotations

import gzip
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

sys.path.insert(0, common.SRC)

import paper_repro  # noqa: E402


def main(argv=None) -> int:
    seeds = [int(arg) for arg in (argv if argv is not None else sys.argv[1:])]
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for seed in seeds:
        traces = paper_repro.build_suite(seed)
        record = paper_repro.run_pass(traces, seed)
        if record.errors:
            print("\n".join(record.errors), file=sys.stderr)
            return 1
        payload = {"scale": paper_repro.SCALE, "seed": seed, "experiments": record.results}
        path = paper_repro.reference_path(seed)
        # mtime=0 keeps the archive bytes a function of the content.
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write(json.dumps(payload, sort_keys=True).encode("utf-8"))
        print(f"wrote {path} ({len(record.outcomes)} shape checks passed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
