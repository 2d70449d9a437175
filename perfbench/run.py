#!/usr/bin/env python3
"""The repo benchmark: builds perfbench, makes the seeded inputs, runs one
workload, and prints its result as the last line of stdout.

    python3 perfbench/run.py --workload n2v-offline-big --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. Build outputs, the input cache and JIT
scratch live under $CARGO_TARGET_DIR (default .bench_build). See README.md.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("n2v-offline-big", "serve-two-tenant", "ooc-deepwalk-half")
CACHE_FORMAT = 1          # bump when the generator or file formats change
EDGE_FACTOR = 16
BLOCK_BYTES = 4 << 20     # kDefaultBlockBytes
TINY_SCALE = 12
TINY_BLOCK_BYTES = 64 << 10
CACHED_GRAPHS = 3         # R-MAT entries kept in the input cache
CHILD_TIMEOUT_S = 170
FALLBACK_LLC_BYTES = 32 << 20

# End-to-end metrics: every workload emits all of them (--trace 0).
E2E = ["setup_s", "steps_per_s", "op_p50_us", "peak_rss_mb", "success_ratio"]
# Per-layer metrics each workload drives (--trace 1). The result line holds
# every per-layer metric of BENCHMARK.json; those of layers a workload does
# not drive read 0 there. The self-test checks both lists against the file.
_SAMPLING = ["sampling.rng_draws_per_step", "sampling.random_tx_per_step",
             "sampling.coalesced_tx_per_step", "sampling.bytes_per_step"]
_SCHEDULER = ["scheduler.walk_s", "scheduler.steps_per_pass", "scheduler.steals",
              "scheduler.refills", "pool.busy_share"]
PER_LAYER = {
    "n2v-offline-big": ["sim_ms", "graph.load_s", "runtime.prepare_s", "compiler.jit_compile_ms",
                        "compiler.jit_fallbacks", "runtime.rjs_share"] + _SAMPLING +
                       _SCHEDULER + ["obs.trace_overhead"],
    "ooc-deepwalk-half": ["sim_ms", "graph.block_open_s", "graph_cache.loads",
                          "graph_cache.hit_rate", "graph_cache.evictions", "graph_cache.read_mib", "ooc.parks_per_step",
                          "ooc.activations", "ooc.steps_per_activation"] + _SAMPLING +
                         ["scheduler.walk_s", "pool.busy_share", "obs.trace_overhead"],
    "serve-two-tenant": ["p50_us.near", "bulk_p50_us.near", "p90_us.half", "p99_us.half",
                         "p90_us.near", "p99_us.near", "bulk_p90_us.near", "bulk_p99_us.near", "max_qps_slo",
                         "graph.load_s", "runtime.prepare_s", "compiler.jit_compile_ms",
                         "compiler.jit_fallbacks", "scheduler.steps_per_pass",
                         "scheduler.steals", "scheduler.refills", "pool.busy_share",
                         "pool.jobs_per_batch", "pool.wakes_per_batch",
                         "coalescer.queries_per_batch"] +
                        [f"{m}.{q}" for m in ("coalescer.wait_us", "coalescer.complete_us",
                                              "service.run_us", "net.decode_us",
                                              "net.admit_us", "net.flush_us",
                                              "net.server_request_us")
                         for q in ("p50", "p99")] +
                        ["net.outside_server_us.p50", "net.cork_bytes_per_response",
                         "net.epollout_resumptions", "coalescer.would_block",
                         "coalescer.rejected", "client.send_lag_us.p99", "obs.trace_overhead"],
}


def log(text):
    print(f"run.py: {text}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fill_undriven(workload, result, spec):
    """Adds, as 0, the per-layer metrics of layers `workload` does not drive,
    so a traced result names every per-layer metric of the manifest."""
    metrics = result["metrics"]
    filled = [m for m in spec["per_layer"] if m["name"] not in metrics]
    for m in filled:
        metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    if filled:
        log(f"{workload} does not drive {len(filled)} per-layer metrics; they read 0")


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once and builds perfbench (a no-op when up to date)."""
    out = os.path.join(build_root(), "perfbench-build")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def llc_bytes():
    """Largest CPU cache in sysfs (the LLC), or a fallback."""
    best = 0
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in os.listdir(base):
            try:
                with open(os.path.join(base, entry, "size")) as f:
                    text = f.read().strip()
            except OSError:
                continue
            units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
            value = int(text.rstrip("KMG")) * units.get(text[-1], 1)
            best = max(best, value)
    except (OSError, ValueError):
        pass
    return best or FALLBACK_LLC_BYTES


def rmat_scale():
    """Smallest scale whose CSR (8 B row offsets, 4 B ids + 4 B weights per
    edge) is at least 4x the LLC."""
    bytes_per_node = 8 + EDGE_FACTOR * 8
    return max(TINY_SCALE + 1, math.ceil(math.log2(4 * llc_bytes() / bytes_per_node)))


def run_child(cmd):
    """Runs a perfbench process; returns (exit code, parsed last line or None)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 124, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode or 1, None


def cached_input(binary, key, files, gen_args):
    """Returns the cache paths for `key`, generating them in a child process
    when missing or when a recorded size or the key does not match."""
    cache = os.path.join(build_root(), "cache")
    os.makedirs(cache, exist_ok=True)
    name = "-".join(f"{k}{v}" for k, v in key.items())
    paths = {f: os.path.join(cache, f"{name}.{f}") for f in files}
    meta_path = os.path.join(cache, f"{name}.json")
    try:
        with open(meta_path) as f:
            meta = json.load(f)
        if meta["key"] == key and all(os.path.getsize(paths[f]) == meta["sizes"][f]
                                      for f in files):
            os.utime(meta_path)
            return paths
        log(f"input cache entry {name} does not match its key; regenerating")
    except (OSError, ValueError, KeyError):
        pass
    for path in list(paths.values()) + [meta_path]:
        if os.path.exists(path):
            os.remove(path)
    if key["kind"] == "rmat":
        evict_old_graphs(cache, keep=CACHED_GRAPHS - 1)
    cmd = [binary, "gen", "--kind", key["kind"], "--seed", str(key["seed"]),
           "--graph", paths["bin"]] + gen_args
    if "blk" in paths:
        cmd += ["--blocks", paths["blk"]]
    code, result = run_child(cmd)
    if code != 0 or result is None:
        raise RuntimeError(f"graph generation failed ({code})")
    m = result["metrics"]
    log(f"generated {name}: {int(m['nodes']['value'])} nodes, {int(m['edges']['value'])} "
        f"edges, {int(m['blocks']['value'])} blocks, {m['csr_mib']['value']:.0f} MiB CSR in "
        f"{m['generate_s']['value']:.1f} s (+{m['write_s']['value']:.1f} s write); "
        f"not part of setup_s")
    meta = {"key": key, "sizes": {f: os.path.getsize(p) for f, p in paths.items()}}
    with open(meta_path + ".tmp", "w") as f:
        json.dump(meta, f)
    os.replace(meta_path + ".tmp", meta_path)
    return paths


def evict_old_graphs(cache, keep):
    metas = sorted((os.path.getmtime(os.path.join(cache, f)), f) for f in os.listdir(cache)
                   if f.startswith("kindrmat") and f.endswith(".json"))
    for _, meta in metas[:max(0, len(metas) - keep)]:
        stem = meta[:-len(".json")]
        for suffix in (".json", ".bin", ".blk"):
            path = os.path.join(cache, stem + suffix)
            if os.path.exists(path):
                os.remove(path)


def inputs_for(binary, workload, seed, tiny):
    if workload == "serve-two-tenant":
        key = {"kind": "yt", "seed": seed, "v": CACHE_FORMAT}
        return cached_input(binary, key, ["bin"], [])
    scale = TINY_SCALE if tiny else rmat_scale()
    block_bytes = TINY_BLOCK_BYTES if tiny else BLOCK_BYTES
    key = {"kind": "rmat", "scale": scale, "ef": EDGE_FACTOR, "block": block_bytes,
           "seed": seed, "v": CACHE_FORMAT}
    return cached_input(binary, key, ["bin", "blk"],
                        ["--scale", str(scale), "--edge-factor", str(EDGE_FACTOR),
                         "--block-bytes", str(block_bytes)])


def prewarm(paths):
    """Reads the inputs once so the run finds them in the page cache: the
    measured run should not depend on what else evicted them."""
    for path in paths:
        with open(path, "rb") as f:
            while f.read(16 << 20):
                pass


def run_workload(binary, workload, seed, seconds, trace, tiny=False, corrupt=False):
    paths = inputs_for(binary, workload, seed, tiny)
    prewarm(paths.values())
    work = os.path.join(build_root(), "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--graph", paths["bin"], "--work-dir", work]
    if "blk" in paths:
        cmd += ["--blocks", paths["blk"]]
    if tiny:
        cmd.append("--tiny")
    if corrupt:
        cmd.append("--corrupt")
    try:
        return run_child(cmd)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_test(binary):
    """Tiny-scale run of every workload, both passes: exit 0, correct, and
    metric names exactly as BENCHMARK.json declares; then proves the output
    check trips on a corrupted path row."""
    spec = load_spec()
    declared = {"e2e": {m["name"] for m in spec["end_to_end"]},
                "layer": {m["name"] for m in spec["per_layer"]}}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for kind, emitted in (("e2e", set(E2E)), ("layer", set().union(*PER_LAYER.values()))):
        if emitted != declared[kind]:
            problems.append(f"{kind} names: run.py {sorted(emitted ^ declared[kind])} "
                            f"differ from BENCHMARK.json")
    for workload in WORKLOADS:
        for trace in (False, True):
            code, result = run_workload(binary, workload, 7, 2, trace, tiny=True)
            expected = PER_LAYER[workload] if trace else E2E
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: exit {code}")
                continue
            got = result["metrics"]
            if sorted(got) != sorted(expected):
                problems.append(f"{workload} trace={int(trace)}: emitted {sorted(got)}")
            problems += [f"{workload}: {n} unit {v['unit']} != {units.get(n)}"
                         for n, v in got.items() if units.get(n) != v["unit"]]
            if trace:
                fill_undriven(workload, result, spec)
                if set(got) != declared["layer"]:
                    problems.append(f"{workload}: filled result lacks per-layer metrics")
            log(f"self-test {workload} trace={int(trace)}: ok")
        code, result = run_workload(binary, workload, 7, 1, False, tiny=True, corrupt=True)
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: a corrupted path row was not caught (exit {code})")
        else:
            log(f"self-test {workload}: corrupted row caught (exit {code})")
    for problem in problems:
        log(f"SELF-TEST FAILED: {problem}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # Keep every file the run writes inside the checkout, the JIT
    # compiler's temporaries included.
    os.environ["TMPDIR"] = os.path.join(build_root(), "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    start = time.monotonic()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 1
    log(f"build checked in {time.monotonic() - start:.1f} s")
    if args.self_test:
        return self_test(binary)
    try:
        code, result = run_workload(binary, args.workload, args.seed, args.seconds,
                                    args.trace == 1)
    except (RuntimeError, OSError) as error:
        log(str(error))
        return 1
    if result is None:
        log(f"{args.workload} exited {code} without a result")
        return code or 1
    if args.trace == 1:
        fill_undriven(args.workload, result, load_spec())
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
