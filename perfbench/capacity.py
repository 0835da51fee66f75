"""Closed-loop capacity of ``repro-serve`` under the serve-mix traffic.

Usage (from the root of a checkout)::

    python3 perfbench/capacity.py --seeds 1-3 [--seconds 30]

For each seed this starts ``repro-serve --port 0 --jobs 1`` on a fresh
store and pre-warms it exactly as ``serve-mix`` does, then sends the
``serve-mix`` requests for a *seconds*-long schedule with every request
due at once over the same keep-alive connections.  Each connection so
sends its next request as soon as the previous one is answered: a
closed loop.  It prints the arrivals and requests answered per second,
and their median over the seeds.  ``serve_mix.RATE`` is fixed at a
quarter of the median arrival capacity measured at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402


def probe(seed: int, seconds: float) -> tuple:
    """``(arrivals/s, requests/s)`` answered closed loop at *seed*."""
    import serve_mix

    warm, _cold = serve_mix.key_space(seed)
    daemon = serve_mix.start_daemon(False, common.work_dir("store"), warm, seed)
    requests = [dict(r, offset=0.0) for r in serve_mix.schedule(seed, seconds)]
    try:
        t0 = common.now() + 0.5
        generator, results_path = serve_mix.launch_generator(daemon.port, requests, t0)
        try:
            generator.wait(timeout=seconds * 20 + 120)
        finally:
            if generator.poll() is None:
                generator.kill()
                generator.wait()
    finally:
        daemon.stop()
    with open(results_path) as handle:
        records = json.load(handle)["records"]
    bad = [r for r in records if r[5] not in (200, 400)]
    if bad or len(records) != len(requests):
        raise RuntimeError(f"seed {seed}: {len(bad)} bad answers, "
                           f"{len(records)} of {len(requests)} answered")
    elapsed = max(r[4] for r in records) - min(r[3] for r in records)
    arrivals = len({r["group"] if r["group"] is not None else -1 - r["rid"] for r in requests})
    return arrivals / elapsed, len(requests) / elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/capacity.py")
    parser.add_argument("--seeds", default="1-3")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"perfbench: no program to measure: {common.SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    from repeat import parse_seeds

    rates = []
    try:
        for seed in parse_seeds(args.seeds):
            arrivals, requests = probe(seed, args.seconds)
            rates.append(arrivals)
            print(f"seed {seed}: {arrivals:.1f} arrivals/s, {requests:.1f} requests/s",
                  flush=True)
    finally:
        common.remove_work_dir()
    print(f"median capacity {common.median(rates):.1f} arrivals/s; "
          f"a quarter of it is {common.median(rates) / 4:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
