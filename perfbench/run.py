#!/usr/bin/env python3
"""perfbench: the suite's benchmark, one workload per invocation.

    python3 perfbench/run.py --workload fig4a|packet|packet-sharded|serve \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from the repository root. It builds the `inrpp` binary and the
harness in `perfbench/harness/` from source (into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs the workload for `--seconds`, and prints
every metric by name with its unit, then one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
the end-to-end metrics of `BENCHMARK.json`, `--trace 1` the per-layer
ones; a layer the workload does not exercise reads 0.

The run fails (`correct` false) when an output check fails or, at the
default seed, when a deterministic count drifts from `pinned.json`: a
drift is a behaviour change, never noise. It exits non-zero without a
result when the build or the harness fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import manifest  # noqa: E402

WORKLOADS = [w["name"] for w in manifest.MANIFEST["workloads"]]
HARNESS_TIMEOUT_S = 170


def load_pinned():
    with open(os.path.join(HERE, "pinned.json")) as f:
        return json.load(f)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build():
    """Build `inrpp` and the harness; return their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "inrpp-bench", "--bin", "inrpp"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "harness", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "inrpp"), os.path.join(release, "perfbench-harness")


def check_drift(workload, seed, counts, pinned):
    """Names of pinned counts that differ at the default seed."""
    if seed != pinned["default_seed"]:
        return []
    want = pinned["counts"].get(workload, {})
    return [k for k, v in counts.items() if k in want and want[k] != v]


def finish(workload, result, trace, pinned, seed):
    """Turn the harness result into the reported one, checked against
    the manifest."""
    spec = manifest.MANIFEST["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in spec:
        name = m["name"]
        if name not in got:
            if not trace:
                sys.exit(f"perfbench: {workload} did not report {name}")
            got[name] = {"value": 0, "unit": m["unit"]}
            result["notes"].append(f"{name}: layer not exercised by {workload}")
        if got[name]["unit"] != m["unit"] or got[name]["value"] is None:
            sys.exit(f"perfbench: {workload} reported {name} as {got[name]}")
        metrics[name] = got[name]
    extra = sorted(set(got) - set(metrics))
    if extra:
        sys.exit(f"perfbench: {workload} reported metrics outside the manifest: {extra}")
    attempted, failed = result["attempted"], result["failed"]
    drift = check_drift(workload, seed, result["counts"], pinned)
    if drift:
        attempted += 1
        failed += 1
        for k in drift:
            print(f"DRIFT: {k} = {result['counts'][k]}, pinned {pinned['counts'][workload][k]}: "
                  "a behaviour change, not noise", file=sys.stderr)
    return {
        "correct": result["correct"] and not drift,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def failed_ratio(final):
    """Failed operations over attempted ones."""
    return final["failed"] / final["attempted"]


def report_lines(workload, seed, seconds, trace, final, result):
    """The human-readable report: every metric by name with its unit."""
    yield f"perfbench {workload} seed={seed} seconds={seconds} trace={trace}"
    for name, m in final["metrics"].items():
        yield f"  {name:34} {m['value']:>16.6g} {m['unit']}"
    yield (f"  {'failed_ratio':34} {failed_ratio(final):>16.6g} "
           f"({final['failed']} of {final['attempted']})")
    for k, v in sorted(result["counts"].items()):
        yield f"  count {k} = {v}"
    for note in result["notes"]:
        yield f"  note: {note}"


def run(args):
    pinned = load_pinned()
    seed = pinned["default_seed"] if args.seed is None else args.seed
    seconds = args.seconds or manifest.MANIFEST["run_seconds"]
    inrpp, harness = build()
    work = os.path.join(target_dir(), "perfbench-work")
    cmd = [harness, "--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--inrpp", inrpp, "--work", work]
    # its own process group, so that a daemon the harness started cannot
    # outlive it even when the harness is killed
    harness_proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                    start_new_session=True)
    try:
        stdout, _ = harness_proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(harness_proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        harness_proc.wait()
    if stdout is None:
        sys.exit(f"perfbench: {args.workload} did not finish in {HARNESS_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if harness_proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: harness failed on {args.workload} (exit {harness_proc.returncode})")
    result = json.loads(lines[-1])
    final = finish(args.workload, result, args.trace == 1, pinned, seed)
    for line in report_lines(args.workload, seed, seconds, args.trace, final, result):
        print(line)
    print(json.dumps(final))


class SelfTest(unittest.TestCase):
    """The benchmark's own checks (the harness's are `cargo test`)."""

    def test_manifest_parses_back(self):
        self.assertEqual(json.loads(manifest.render()), manifest.MANIFEST)
        self.assertEqual(manifest.load(), manifest.MANIFEST,
                         "BENCHMARK.json is stale: run perfbench/manifest.py --write")

    def test_manifest_meets_the_contract(self):
        m = manifest.MANIFEST
        self.assertEqual(set(m), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(m["workloads"]) <= 8)
        self.assertTrue(all(len(w["why"]) <= 200 and set(w) == {"name", "why"}
                            for w in m["workloads"]))
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                      m["end_to_end"])
        self.assertTrue(all(0 < e["bound"] <= 0.25 for e in m["end_to_end"]))
        names = [x["name"] for x in m["workloads"] + m["end_to_end"] + m["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(len(n) <= 64 for n in names))
        self.assertTrue(len(manifest.render().encode()) <= 64 * 1024)

    def test_drift_is_checked_at_the_default_seed_only(self):
        pinned = {"default_seed": 7, "counts": {"w": {"events": 10}}}
        self.assertEqual(check_drift("w", 7, {"events": 11, "other": 1}, pinned), ["events"])
        self.assertEqual(check_drift("w", 7, {"events": 10}, pinned), [])
        self.assertEqual(check_drift("w", 8, {"events": 11}, pinned), [])

    def test_failed_checks_and_drift_fail_the_run(self):
        pinned = {"default_seed": 7, "counts": {"fig4a": {"events": 10}}}
        metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]}
                   for m in manifest.MANIFEST["end_to_end"]}
        result = {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics,
                  "counts": {"events": 12}, "notes": []}
        final = finish("fig4a", json.loads(json.dumps(result)), False, pinned, 7)
        self.assertEqual((final["correct"], final["attempted"], final["failed"]), (False, 5, 1))
        self.assertEqual(failed_ratio(final), 0.2)
        clean = finish("fig4a", json.loads(json.dumps(result)), False, pinned, 8)
        self.assertEqual((clean["correct"], clean["failed"], failed_ratio(clean)), (True, 0, 0))
        self.assertEqual(list(clean["metrics"]),
                         [m["name"] for m in manifest.MANIFEST["end_to_end"]])

    def test_unexercised_layers_read_zero(self):
        result = {"correct": True, "attempted": 1, "failed": 0, "counts": {}, "notes": [],
                  "metrics": {"shard.run_s": {"value": 0.2, "unit": "s"}}}
        final = finish("packet-sharded", result, True, {"default_seed": 0, "counts": {}}, 1)
        self.assertEqual(final["metrics"]["shard.run_s"]["value"], 0.2)
        self.assertEqual(final["metrics"]["flowsim.allocate_s"]["value"], 0)
        self.assertEqual(len(final["metrics"]), len(manifest.MANIFEST["per_layer"]))


def selftest():
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(SelfTest)
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    cargo = subprocess.run(
        ["cargo", "test", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "harness", "Cargo.toml")],
        cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=target_dir()))
    sys.exit(0 if ok and cargo.returncode == 0 else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        selftest()
    if not args.workload:
        ap.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
