#!/usr/bin/env python3
"""The benchmark's manifest: workloads, metrics, units and bounds.

This file is the single source of `BENCHMARK.json` at the repository
root. After editing it, regenerate that file with

    python3 perfbench/manifest.py --write

`run.py` checks every result against the manifest: an end-to-end run
must report exactly `end_to_end`, a traced run the `per_layer` names.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST_PATH = os.path.join(ROOT, "BENCHMARK.json")


def _metric(name, unit, better, bound=None):
    m = {"name": name, "unit": unit, "better": better}
    if bound is not None:
        m["bound"] = bound
    return m


def _layer(name, unit, better="lower"):
    return _metric(name, unit, better)


MANIFEST = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 24,
    "workloads": [
        {"name": "fig4a", "why": "Fig. 4a sweep on three ISP maps: about 90% allocator time, "
                                 "no packet engine or daemon; the allocator's workload and the control"},
        {"name": "packet", "why": "sequential chunk engine on deep, many-flow and link-failure inputs: "
                                  "event queue, custody, detours and fault hooks, no allocator or daemon"},
        {"name": "packet-sharded", "why": "the chunk engine's region mode at two workers: the only "
                                          "workload that shows a cost moved onto the sharded path"},
        {"name": "serve", "why": "the daemon over TCP loopback: transport, protocol, host threads and "
                                 "checkpoint writes and resumes dominate, each engine does little"},
    ],
    "end_to_end": [
        _metric("setup_s", "s", "lower", 0.25),
        _metric("events_per_s", "1/s", "higher", 0.25),
        _metric("reply_p50_ms", "ms", "lower", 0.25),
        _metric("reply_p99_ms", "ms", "lower", 0.25),
        _metric("replies_per_s", "1/s", "higher", 0.25),
        _metric("peak_rss_mb", "MB", "lower", 0.15),
    ],
    "per_layer": [
        _layer("topology.generate_s", "s"),
        _layer("flowsim.workload_s", "s"),
        _layer("flowsim.paths_s", "s"),
        _layer("flowsim.paths_calls", "count"),
        _layer("flowsim.subpaths_per_flow", "count"),
        _layer("flowsim.allocate_s", "s"),
        _layer("flowsim.allocations", "count"),
        _layer("flowsim.allocate_us_p50", "us"),
        _layer("flowsim.allocate_us_p99", "us"),
        _layer("flowsim.flows_per_allocation", "count"),
        _layer("flowsim.rest_s", "s"),
        _layer("flowsim.allocate_share", "ratio"),
        _layer("packetsim.build_s", "s"),
        _layer("packetsim.run_s.fig3-deep", "s"),
        _layer("packetsim.run_s.dumbbell-mixed", "s"),
        _layer("packetsim.run_s.fattree-linkfail", "s"),
        _layer("packetsim.ns_per_chunk", "ns"),
        _layer("packetsim.chunks_delivered", "count", "higher"),
        _layer("packetsim.retransmits", "count"),
        _layer("packetsim.chunks_dropped", "count"),
        _layer("packetsim.chunks_detoured", "count"),
        _layer("packetsim.backpressure_msgs", "count"),
        _layer("packetsim.useful_ratio", "ratio", "higher"),
        _layer("cache.chunks_custodied", "count"),
        _layer("cache.chunks_rescued", "count"),
        _layer("cache.custody_peak_bytes", "B"),
        _layer("shard.run_s", "s"),
        _layer("shard.seq_run_s", "s"),
        _layer("shard.speedup", "ratio", "higher"),
        _layer("topology.partition_s", "s"),
        _layer("topology.cut_channels", "count"),
        _layer("server.reply_ms.open", "ms"),
        _layer("server.reply_ms.feed", "ms"),
        _layer("server.reply_ms.advance", "ms"),
        _layer("server.reply_ms.checkpoint", "ms"),
        _layer("server.reply_ms.resume", "ms"),
        _layer("server.reply_ms.stats", "ms"),
        _layer("server.reply_ms.close", "ms"),
        _layer("server.parse_us", "us"),
        _layer("service.advance_solo_ms", "ms"),
        _layer("server.overhead_ms", "ms"),
        _layer("server.cpu_s", "s"),
        _layer("server.cpu_per_wall", "ratio"),
        _layer("server.stats.advances", "count", "higher"),
        _layer("server.stats.events", "count", "higher"),
        _layer("server.stats.ckpt_writes", "count", "higher"),
        _layer("server.threads_per_idle_session", "count"),
        _layer("service.checkpoint_bytes", "B"),
        _layer("trace.overhead_pct", "%"),
    ],
}


def render(manifest=MANIFEST):
    """The exact text of `BENCHMARK.json`."""
    return json.dumps(manifest, indent=2) + "\n"


def load():
    """The committed `BENCHMARK.json`, parsed."""
    with open(MANIFEST_PATH) as f:
        return json.load(f)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: manifest.py --write")
    with open(MANIFEST_PATH, "w") as f:
        f.write(render())
