"""Workload ``serve-mix``: open-loop advise traffic against ``repro-serve``.

``repro-serve --port 0 --jobs 1`` runs as a child process on a fresh
result store (traced runs host the daemon in this process instead, on
its own event-loop thread, so its calls can be wrapped).  A separate
generator process (``loadgen.py``) sends the seeded schedule over
:data:`CONNECTIONS` keep-alive connections, open loop, at :data:`RATE`
arrivals per second (Poisson).  Each arrival is one of:

* ``warm`` — a Zipf-popular key from a pool pre-warmed during set-up;
* ``cold`` — a key never asked before, spread over the six suite
  traces, both sides, five cache sizes, two line sizes and several
  structure kinds;
* ``burst`` — :data:`BURST` identical requests for one cold key, all
  due at the same instant, which the daemon must simulate at most once;
* ``malformed`` — a body the daemon must answer with 400.

Set-up is daemon start until ``/readyz`` answers 200, plus pre-warming.
Correctness: every answer carries the right status, every 200 answer
equals a direct ``execute_job`` result for its query, and no burst is
simulated more than once.

``latency_ms`` is the mix-weighted mean of the four kinds' median
latencies, so the cold path (dispatch, simulation, store writes) and
coalescing move it in proportion to their share of requests, while a
single stalled request does not.  It is estimated per block of the
schedule and the median over blocks is reported.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from common import (CALIBRATION_NOMINAL_S, HERE, Outcome, at_nominal_speed, calibrate,
                    child_env, median, now, peak_rss_mb, percentile, tree_bytes, work_dir)

SCALE = 20000
CONNECTIONS = 2
SETUPS = 3
#: Arrivals per round of the mix: one round of ``repro-serve-loadgen``'s
#: default traffic (``--warm-requests 20 --cold-requests 3`` and one
#: duplicate burst), plus the two malformed bodies of the CI chaos job's
#: ``--bad-requests 2``.
ROUND = (("warm", 20), ("cold", 3), ("burst", 1), ("malformed", 2))
#: Requests per burst: ``repro-serve-loadgen``'s default ``--duplicates``.
BURST = 4
#: Assumptions, with no measurement behind them: warm keys follow Zipf
#: popularity (exponent :data:`ZIPF_ALPHA`) over :data:`WARM_KEYS` keys,
#: 8 per suite trace.  They stand for "a few configurations are asked
#: for far more often than the rest"; the pool size also sets how much
#: pre-warming ``setup_s`` includes.
WARM_KEYS = 48
ZIPF_ALPHA = 1.1
#: Offered arrivals per second: a quarter of the closed-loop capacity
#: that ``capacity.py`` measured at the seed commit (median 650
#: arrivals/s over seeds 1-5 on a 2-vCPU x86-64 VM), rounded down.  At
#: half capacity the latency spread over seeds was 0.15; at a quarter it
#: was 0.05.  Fixed, so every later run is measured at the same load.
RATE = 160.0
#: The schedule is cut into blocks of BLOCK_S seconds of arrivals with
#: GAP_S seconds of silence between them.  In each gap, once the block
#: has drained (DRAIN_S), machine speed is sampled while the daemon is
#: idle; traced runs trace every other block.
BLOCK_S = 3.0
GAP_S = 0.4
DRAIN_S = 0.1
STRUCTURES = (
    ("none",) + tuple(f"mc{n}" for n in range(1, 9)) + tuple(f"vc{n}" for n in range(1, 9))
    + ("sb1", "sb2", "sb4", "sb2x4", "sb4x4")
)
SIZES = (1024, 2048, 4096, 8192, 16384)
LINES = (16, 32)


# -- the schedule ---------------------------------------------------------------


def key_space(seed: int) -> Tuple[list, list]:
    """``(warm pool, cold keys)``: disjoint, seeded, every suite trace in both."""
    from repro.traces.registry import BENCHMARK_NAMES

    rng = random.Random(f"serve-mix-keys:{seed}")
    warm, cold = [], []
    per_trace = WARM_KEYS // len(BENCHMARK_NAMES)
    for name in BENCHMARK_NAMES:
        keys = [(name, side, size, line, code) for side in ("i", "d") for size in SIZES
                for line in LINES for code in STRUCTURES]
        rng.shuffle(keys)
        warm += keys[:per_trace]
        cold += keys[per_trace:]
    rng.shuffle(warm)  # popularity rank order
    rng.shuffle(cold)
    return warm, cold


def query_body(key, seed: int, rid: int) -> str:
    name, side, size, line, code = key
    return json.dumps({
        "rid": rid,
        "trace": {"name": name, "scale": SCALE, "seed": seed},
        "structure": code,
        "side": side,
        "cache": {"size_bytes": size, "line_size": line},
    })


def malformed_body(rng: random.Random, rid: int) -> str:
    return rng.choice((
        '{"rid": %d, "trace": {"name": "ccom"' % rid,              # truncated JSON
        '{"rid": %d, "trace": 42}' % rid,                          # wrong type
        '{"rid": %d, "trace": "no-such-trace-%d"}' % (rid, rid),   # unknown workload
        '{"rid": %d, "trace": "ccom", "structure": "zz9"}' % rid,  # bad structure
    ))


def blocks(seconds: float) -> List[Tuple[float, float]]:
    """``(start, end)`` offsets of the schedule's blocks for *seconds*
    seconds of arrivals."""
    spans = []
    active = 0.0
    while active < seconds:
        start = len(spans) * (BLOCK_S + GAP_S)
        spans.append((start, start + min(BLOCK_S, seconds - active)))
        active += BLOCK_S
    return spans


def schedule(seed: int, seconds: float) -> List[dict]:
    """Seeded arrivals for *seconds* seconds of blocks:
    ``{offset, block, rid, kind, body, key, group}``."""
    warm, cold = key_space(seed)
    rng = random.Random(f"serve-mix-schedule:{seed}")
    weights = [1.0 / (rank + 1) ** ZIPF_ALPHA for rank in range(len(warm))]
    kinds = [kind for kind, _ in ROUND]
    shares = [count for _, count in ROUND]
    fresh = iter(cold)
    requests: List[dict] = []
    active = 0.0
    group = 0
    while True:
        active += rng.expovariate(RATE)
        if active >= seconds:
            return requests
        block = int(active // BLOCK_S)
        offset = active + block * GAP_S
        kind = rng.choices(kinds, shares)[0]
        if kind == "malformed":
            rid = len(requests)
            requests.append(dict(offset=offset, block=block, rid=rid, kind=kind, key=None,
                                 group=None, body=malformed_body(rng, rid)))
            continue
        key = rng.choices(warm, weights)[0] if kind == "warm" else next(fresh, None)
        if key is None:
            raise RuntimeError(f"serve-mix: more than {len(cold)} cold keys needed")
        group += 1
        for _ in range(BURST if kind == "burst" else 1):
            rid = len(requests)
            requests.append(dict(offset=offset, block=block, rid=rid, kind=kind, key=key,
                                 group=group, body=query_body(key, seed, rid)))


# -- daemons --------------------------------------------------------------------


class ChildDaemon:
    """``repro-serve`` as a child process (the untraced run)."""

    def __init__(self, store_dir: str) -> None:
        log_path = os.path.join(os.path.dirname(store_dir), "daemon.log")
        self.log = open(log_path, "w+")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", "--port", "0", "--jobs", "1",
             "--result-store", store_dir],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=self.log,
        )
        deadline = time.monotonic() + 60
        while True:
            self.log.seek(0)
            found = re.search(r"listening on http://[^:]+:(\d+)", self.log.read())
            if found:
                self.port = int(found.group(1))
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro-serve did not start")
            time.sleep(0.005)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class InProcessDaemon:
    """The daemon on an event-loop thread of this process (the traced run)."""

    def __init__(self, store_dir: str) -> None:
        from repro.serve.daemon import CacheAdvisorDaemon, ServeConfig
        from repro.store import set_store
        from tracer import ContextThreadPool

        set_store(store_dir)  # as ``--result-store`` does
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

        async def boot():
            daemon = CacheAdvisorDaemon(ServeConfig(port=0, jobs=1))
            service = daemon.service
            # Same sizes as the stock pools; these carry the request's
            # span context onto lookup and simulation threads.
            service._lookup_pool = ContextThreadPool(max_workers=2)
            service._sim_pool = ContextThreadPool(max_workers=service.max_inflight)
            await daemon.start()
            return daemon

        self.daemon = asyncio.run_coroutine_threadsafe(boot(), self.loop).result(60)
        self.serving = asyncio.run_coroutine_threadsafe(self.daemon.serve_forever(), self.loop)
        self.port = self.daemon.port

    def stop(self) -> None:
        from repro.store import set_store

        self.serving.cancel()
        asyncio.run_coroutine_threadsafe(self.daemon.aclose(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)
        self.loop.close()
        set_store(None)


def http_request(connection, method: str, path: str, body: Optional[str] = None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


def start_daemon(traced: bool, store_dir: str, warm: list, seed: int):
    """Start a daemon, wait for ``/readyz``, pre-warm the popular keys."""
    daemon = InProcessDaemon(store_dir) if traced else ChildDaemon(store_dir)
    connection = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=60)
    try:
        deadline = time.monotonic() + 60
        while True:
            try:
                if http_request(connection, "GET", "/readyz")[0] == 200:
                    break
            except (ConnectionError, OSError, http.client.HTTPException):
                connection.close()
            if time.monotonic() > deadline:
                raise RuntimeError("repro-serve never became ready")
            time.sleep(0.005)
        for index, key in enumerate(warm):
            status, _ = http_request(connection, "POST", "/v1/advise",
                                     query_body(key, seed, -1 - index))
            if status != 200:
                raise RuntimeError(f"pre-warm of {key} answered {status}")
    except BaseException:
        daemon.stop()
        raise
    finally:
        connection.close()
    return daemon


# -- the run --------------------------------------------------------------------


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    import repro.serve.daemon  # noqa: F401

    out = Outcome()
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.install(serve=True)
    warm, _cold = key_space(seed)
    setups = []
    daemon = None
    for attempt in range(SETUPS):
        if daemon is not None:
            daemon.stop()
        store_dir = work_dir(f"setup-{attempt}", "store")
        before = calibrate()
        if tracer is not None:
            tracer.enabled = True
        with tracer.span("setup") if tracer is not None else nullcontext():
            started = now()
            daemon = start_daemon(traced, store_dir, warm, seed)
            elapsed = now() - started
        if tracer is not None:
            tracer.enabled = False
        setups.append((elapsed, (before + calibrate()) / 2))
    bytes_before = tree_bytes(store_dir)

    requests = schedule(seed, seconds)
    spans = blocks(seconds)
    # Machine speed is sampled before the schedule and in the quiet gap
    # after each block, never while requests run, so the samples neither
    # compete with the daemon nor slow down with it.
    speeds = [calibrate()]
    t0 = now() + 0.5
    traced_blocks = []
    try:
        generator, results_path = launch_generator(daemon.port, requests, t0)
        try:
            if tracer is not None:
                traced_blocks = _toggle_blocks(tracer, t0, spans)
            else:
                speeds += _calibrate_gaps(t0, spans)
            generator.wait(timeout=seconds + 120)
        finally:
            if generator.poll() is None:
                generator.kill()
                generator.wait()
    finally:
        daemon.stop()
    bytes_written = tree_bytes(store_dir) - bytes_before
    with open(results_path) as handle:
        records = {r[0]: r for r in json.load(handle)["records"]}

    # -- correctness (outside the timed region) --------------------------------
    answers = verify(out, requests, records)

    latency = {r["rid"]: (records[r["rid"]][4] - records[r["rid"]][1]) * 1000.0
               for r in requests if r["rid"] in records}
    all_ms = list(latency.values())
    out.note("serve_p50_ms", median(all_ms), "ms", f"{len(all_ms)} requests at {RATE:g} arrivals/s")
    out.note("serve_p99_ms", percentile(all_ms, 99), "ms",
             f"{len(all_ms) - int(0.99 * len(all_ms))} samples above")
    weights, host = {}, 0.0
    for kind, _ in ROUND:
        rids = [r["rid"] for r in requests if r["kind"] == kind and r["rid"] in latency]
        weights[kind] = len(rids) / max(1, len(all_ms))
        out.note(f"serve.class.{kind}.p50_ms", median([latency[i] for i in rids]), "ms",
                 f"{len(rids)} requests")
        host += weights[kind] * median([latency[i] for i in rids])
    if not traced:
        # One estimate per block, rescaled by the samples on either side of
        # it; the median over blocks ignores a minority of blocks that a
        # neighbour's burst of load slowed down.
        by_block: Dict[Tuple[int, str], List[float]] = {}
        for r in requests:
            if r["rid"] in latency:
                by_block.setdefault((r["block"], r["kind"]), []).append(latency[r["rid"]])
        per_block = [
            at_nominal_speed(sum(weight * median(by_block.get((index, kind), []))
                                 for kind, weight in weights.items()),
                             (speeds[index] + speeds[index + 1]) / 2)
            for index in range(len(spans))
        ]
    lag = [(rec[2] - rec[1]) * 1000.0 for rec in records.values()]
    out.note("serve.gen_lag_p99_ms", percentile(lag, 99), "ms", "generator lateness")
    for source, count in sorted(_count(answers.values()).items()):
        out.note(f"serve.served_from.{source}", count, "count")
    out.note("store.bytes_written", bytes_written, "bytes", "during the timed schedule")

    if not traced:
        out.note("latency_host_ms", host, "ms", "mix-weighted class medians, not rescaled")
        out.note("setup_host_s", median([s for s, _ in setups]), "s", "not rescaled")
        out.note("calibration_s", median(speeds), "s",
                 f"{len(speeds)} points in the gaps, nominal {CALIBRATION_NOMINAL_S}")
        out.end_to_end["latency_ms"] = (median(per_block), "ms")
        out.end_to_end["setup_s"] = (median([at_nominal_speed(s, c) for s, c in setups]), "s")
        out.end_to_end["peak_rss_mb"] = (peak_rss_mb(), "MB")
        return out

    import layers

    on_ms, off_ms, on_rids = [], [], set()
    for r in requests:
        if r["rid"] not in latency:
            continue
        due = records[r["rid"]][1]
        if any(lo <= due < hi for lo, hi in traced_blocks):
            on_ms.append(latency[r["rid"]])
            on_rids.add(r["rid"])
        else:
            off_ms.append(latency[r["rid"]])
    handle_s: Dict[int, float] = {}
    for span in tracer.spans:
        if span[2] == "serve.handle" and span[5] is not None:
            handle_s[span[5]] = handle_s.get(span[5], 0.0) + span[4] - span[3]
    client_s = sum(latency[rid] for rid in on_rids) / 1000.0
    transport = sum(latency[rid] / 1000.0 - handle_s.get(rid, 0.0) for rid in on_rids)
    passes = max(1, len(traced_blocks))
    sources = _count(answers[rid] for rid in on_rids if rid in answers)
    rejected = sum(1 for rid in on_rids if records[rid][5] == 429)
    for lo, hi in traced_blocks:
        tracer.record("pass", lo, hi)
    extra = {
        "serve.transport_share": transport / client_s if client_s else 0.0,
        "serve.served_from.store": sources.get("store", 0) / passes,
        "serve.served_from.simulated": sources.get("simulated", 0) / passes,
        "serve.served_from.coalesced": sources.get("coalesced", 0) / passes,
        "serve.rejected_429": rejected / passes,
        "store.bytes_written": bytes_written,
    }
    layers.summarize(out, tracer, overhead=median(on_ms) / median(off_ms) - 1.0,
                     extra=extra, unattributed=extra["serve.transport_share"])
    return out


def launch_generator(port: int, requests: List[dict], t0: float) -> Tuple[subprocess.Popen, str]:
    """Start ``loadgen.py`` on *requests* due from *t0*; return it and
    the path its results will be written to."""
    plan_path = os.path.join(work_dir(), "plan.json")
    results_path = os.path.join(work_dir(), "results.json")
    with open(plan_path, "w") as handle:
        json.dump({
            "port": port, "connections": CONNECTIONS, "t0": t0,
            "requests": [[r["offset"], r["rid"], r["kind"], r["body"]] for r in requests],
        }, handle)
    generator = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "loadgen.py"), plan_path, results_path],
        env=child_env(),
    )
    return generator, results_path


def _wait_until(moment: float) -> None:
    delay = moment - now()
    if delay > 0:
        time.sleep(delay)


def _calibrate_gaps(t0: float, spans: List[Tuple[float, float]]) -> List[float]:
    """One calibration per block, taken in the gap after it once it has
    drained (:data:`DRAIN_S`): three samples, about 60 ms."""
    speeds = []
    for _start, end in spans:
        _wait_until(t0 + end + DRAIN_S)
        speeds.append(calibrate(3))
    return speeds


def _toggle_blocks(tracer, t0: float, spans: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Trace every other block of the schedule; return the traced blocks
    as times.  The untraced blocks between them give the overhead."""
    traced = []
    for index, (start, end) in enumerate(spans):
        if index % 2 == 1:
            _wait_until(t0 + start)
            tracer.enabled = True
            _wait_until(t0 + end)
            tracer.enabled = False
            traced.append((t0 + start, t0 + end))
    return traced


def verify(out: Outcome, requests: List[dict], records: dict) -> Dict[int, str]:
    """Check statuses and answers; return ``rid -> served_from`` for 200s."""
    from repro.experiments.engine import LevelJob, execute_job
    from repro.serve.service import parse_query
    from repro.store.codec import encode_result

    direct: Dict[tuple, object] = {}
    answers: Dict[int, str] = {}
    simulated_in_group: Dict[int, int] = {}
    for request in requests:
        out.attempted += 1
        rid, kind = request["rid"], request["kind"]
        record = records.get(rid)
        label = f"serve-mix: request {rid} ({kind} {request['key']})"
        if record is None:
            out.fail(f"{label}: no response recorded")
            continue
        status, text = record[5], record[6]
        if kind == "malformed":
            if status != 400:
                out.fail(f"{label}: malformed body answered {status}, expected 400")
            continue
        if status != 200:
            out.fail(f"{label}: answered {status}: {text[:200]}")
            continue
        try:
            payload = json.loads(text)
            answers[rid] = payload["served_from"]
            key = request["key"]
            if key not in direct:
                spec = parse_query(json.loads(request["body"])).spec
                direct[key] = encode_result(execute_job(LevelJob(spec)))
            if payload["result"] != direct[key]:
                out.fail(f"{label}: served {payload['result']} != direct {direct[key]}")
        except (ValueError, KeyError, TypeError) as exc:
            out.fail(f"{label}: unreadable answer {exc!r}: {text[:200]}")
            continue
        if kind == "burst" and payload["served_from"] == "simulated":
            group = request["group"]
            simulated_in_group[group] = simulated_in_group.get(group, 0) + 1
            if simulated_in_group[group] > 1:
                out.fail(f"{label}: burst {group} simulated more than once")
    return answers


def _count(values) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return counts


