#!/usr/bin/env python3
"""Host-clock serving benchmark for the metaai fleet.

Builds hostbench/ (the repository's library plus one benchmark binary)
with CMake, runs it on a generated workload and prints, as the last
line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 hostbench/run.py --workload fleet_sharded --seed 3 \\
        --seconds 20 --trace 0        # end-to-end metrics, tracing off
    python3 hostbench/run.py --workload paper_cold --seed 3 --trace 1
                                      # per-layer metrics from the traced run
    python3 hostbench/run.py --report --seed 3
                                      # every workload, both runs, one table
    python3 hostbench/run.py --self-test
                                      # tiny sizes: metric names, units, checks
    python3 hostbench/run.py --pin 0-31
                                      # refresh pins.json for these seeds

Figures read on the host's steady clock are labelled "host", those
read on the CPU clock of the one thread doing the work "host_cpu", and
figures of the simulated system "virtual" (their units end in
"_virtual"). Every result records the SIMD level, thread count, nproc
and seed it was measured with; results that differ in any of these must
not be compared.

A pass is Fleet::Run plus the requests/timeseries/alerts JSONL exports.
A pass that crashes (the benchmark process dies on a signal) is recorded
as failed: all its requests count in `failed` and in failed_share, and the
measurement continues in a fresh process if time remains. Crashed passes
are never re-run. A pass whose predictions differ from the execute replay,
whose exports differ from the first pass's, or whose export digest
differs from the one pinned for its seed fails its check: its requests
count as failed and `correct` is false.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".hostbench_out"
PINS = HERE / "pins.json"
WORKLOADS = ("fleet_sharded", "fleet_overload", "paper_cold")
# Set-ups per measured run (setup_s is their median).
SETUPS = {"fleet_sharded": 21, "fleet_overload": 21, "paper_cold": 3}
# Hard ceiling on one invocation's benchmark time, crashes included.
RUN_LIMIT_S = 150.0

# All end-to-end metrics: name -> (unit, clock, direction).
END_TO_END = {
    "served_per_s": ("req/s", "host", "higher"),
    "served_per_s_1t": ("req/s", "host", "higher"),
    "setup_s": ("s", "host", "lower"),
    "peak_rss_mb": ("MB", "host", "lower"),
    "goodput_slo_rps": ("req/s_virtual", "virtual", "higher"),
    "latency_p50_ms": ("ms_virtual", "virtual", "lower"),
    "latency_p99_ms": ("ms_virtual", "virtual", "lower"),
    "latency_p999_ms": ("ms_virtual", "virtual", "lower"),
    "accuracy": ("share", "virtual", "higher"),
    "failed_share": ("share", "-", "lower"),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_threads():
    return max(1, min(4, nproc()))


# ---------------------------------------------------------------------------
# Build


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources (src/) not found next to hostbench/")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=300).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "hostbench_serve",
           "-j", str(worker_threads())]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=850).returncode != 0:
        raise BenchError("build failed")
    binary = out / "hostbench_serve"
    if not binary.is_file():
        raise BenchError("benchmark binary missing after build")
    return binary


# ---------------------------------------------------------------------------
# Benchmark processes


def run_binary(binary, args, timeout_s):
    """Runs the benchmark binary; returns (events, returncode). A negative
    return code is the signal that killed it."""
    proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        raise BenchError(f"benchmark binary exceeded {timeout_s:.0f} s: "
                         f"{' '.join(args)}")
    events = []
    for line in out.splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a line cut short by a crash
    if proc.returncode > 0:
        raise BenchError(f"benchmark binary exited {proc.returncode}: "
                         f"{err.strip()}")
    return events, proc.returncode


def crash_name(returncode):
    try:
        return signal.Signals(-returncode).name
    except ValueError:
        return f"signal {-returncode}"


def load_pins():
    try:
        return json.loads(PINS.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def pin_key(identity):
    return "/".join([identity["simd"], identity["scale"],
                     identity["workload"], str(identity["seed"])])


def check_pin(identity, digest):
    """True/False against the pinned digest; None when unpinned."""
    pinned = load_pins().get(pin_key(identity))
    return None if pinned is None else pinned == digest


def median(values):
    return statistics.median(values) if values else 0.0


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


# ---------------------------------------------------------------------------
# Measured run (tracing off)


def measure(binary, workload, seed, seconds, tiny=False):
    threads = worker_threads()
    started = time.monotonic()
    setups, passes, failed_passes, crashes = [], [], [], []
    rss, virtuals = [], []
    identity = None
    while True:
        remaining = seconds - (time.monotonic() - started)
        args = ["--workload", workload, "--seed", str(seed), "--mode",
                "measure", "--threads", str(threads), "--seconds",
                f"{max(remaining, 0.0):.3f}", "--setups",
                str(1 if tiny else SETUPS[workload])]
        if tiny:
            args.append("--tiny")
        limit = RUN_LIMIT_S - (time.monotonic() - started)
        events, rc = run_binary(binary, args, max(limit, 1.0))
        in_flight = None
        requests = 0
        for ev in events:
            kind = ev["event"]
            if kind == "identity":
                identity = ev
            elif kind == "setup":
                setups.append(ev["seconds"])
                requests = ev["requests"]
            elif kind == "virtual":
                virtuals.append(ev)
            elif kind == "pass_begin":
                in_flight = ev
            elif kind == "pass":
                in_flight = None
                passes.append(ev)
            elif kind == "end":
                rss.append(ev["peak_rss_mb"])
        if rc == 0:
            break
        # Crashed: the pass in flight (or, outside any pass, the work the
        # process was doing) is a failed pass. It is not run again.
        lost = in_flight["requests"] if in_flight else max(requests, 1)
        crashes.append({"signal": crash_name(rc),
                        "threads": in_flight["threads"] if in_flight else None,
                        "requests": lost})
        failed_passes.append(lost)
        where = (f"pass at {in_flight['threads']} threads" if in_flight
                 else "outside a pass")
        log(f"hostbench: benchmark binary died on {crash_name(rc)} "
            f"({where}); recorded as a failed pass")
        if seconds - (time.monotonic() - started) < 3.0 or \
                time.monotonic() - started > RUN_LIMIT_S / 2:
            break
    if identity is None:
        raise BenchError("benchmark binary printed no identity")

    pinned = None
    good = {1: [], threads: []}
    attempted = sum(failed_passes)
    failed = sum(failed_passes)
    refused = 0
    correct = True
    for p in passes:
        attempted += p["submitted"]
        ok = p["replay_match"] and p["exports_match"]
        pin = check_pin(identity, p["digest"])
        if pin is not None:
            pinned = pin if pinned is None else (pinned and pin)
            ok = ok and pin
        if not ok:
            correct = False
            failed += p["submitted"]
            continue
        refused += p["refused"]
        good.setdefault(p["threads"], []).append(
            p["served"] / (p["run_s"] + p["export_s"]))
    if len({json.dumps(v, sort_keys=True) for v in virtuals}) > 1:
        correct = False  # a restart changed the simulated outcome
    if not virtuals:
        raise BenchError("benchmark binary printed no virtual-clock outcome")
    v = virtuals[0]
    values = {
        "served_per_s": median(good[threads]),
        "served_per_s_1t": median(good[1]),
        "setup_s": median(setups),
        "peak_rss_mb": max(rss) if rss else 0.0,
        "goodput_slo_rps": v["goodput_slo_rps"],
        "latency_p50_ms": v["latency_p50_ms"],
        "latency_p99_ms": v["latency_p99_ms"],
        "latency_p999_ms": v["latency_p999_ms"],
        "accuracy": v["accuracy"],
        "failed_share": (refused + failed) / attempted if attempted else 0.0,
    }
    if not good[threads] or not good[1]:
        correct = False
    counts = {
        "served_per_s":
            f"{len(good[threads])} passes at {threads} threads, "
            f"quartile spread {quartile_spread(good[threads]):.3f}",
        "served_per_s_1t": f"{len(good[1])} passes at 1 thread, "
                           f"quartile spread {quartile_spread(good[1]):.3f}",
        "setup_s": f"{len(setups)} set-ups, "
                   f"quartile spread {quartile_spread(setups):.3f}",
        "peak_rss_mb": f"{len(rss)} process(es)",
        "goodput_slo_rps": f"{v['slo_within']} within SLO over "
                           f"{v['virtual_duration_s']:.4f} virtual s",
        "latency_p50_ms": f"{v['served']} served",
        "latency_p99_ms": f"{v['served']} served",
        "latency_p999_ms": f"{v['served']} served",
        "accuracy": f"{v['correct']}/{v['labeled']} labelled",
        "failed_share": f"{refused + failed}/{attempted} requests "
                        f"({len(crashes)} crashed pass(es))",
    }
    return {
        "identity": identity,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "units": {k: u for k, (u, _, _) in END_TO_END.items()},
        "clocks": {k: c for k, (_, c, _) in END_TO_END.items()},
        "counts": counts,
        "checks": {
            "passes": len(passes),
            # A pass is reported only after the replay it is checked
            # against has run.
            "replay_compared": len(passes),
            "replay_match": all(p["replay_match"] for p in passes),
            "exports_match": all(p["exports_match"] for p in passes),
            "digest_pinned": pinned,
            "crashes": crashes,
        },
        "passes_req_per_s": {str(t): v for t, v in good.items()},
        "setups_s": setups,
    }


# ---------------------------------------------------------------------------
# Traced run (per-layer metrics)


def trace(binary, workload, seed, tiny=False):
    threads = worker_threads()
    started = time.monotonic()
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    attempted = failed = 0
    crashes = []
    while True:
        args = ["--workload", workload, "--seed", str(seed), "--mode",
                "trace", "--threads", str(threads), "--spans-out",
                str(spans)]
        if tiny:
            args.append("--tiny")
        limit = RUN_LIMIT_S - (time.monotonic() - started)
        events, rc = run_binary(binary, args, max(limit, 1.0))
        identity = next((e for e in events if e["event"] == "identity"), None)
        setup = next((e for e in events if e["event"] == "setup"), None)
        plan = next((e for e in events if e["event"] == "plan"), None)
        requests = (plan["passes"] if plan else 1) * \
            (setup["requests"] if setup else 1)
        attempted += requests
        if rc == 0:
            break
        failed += requests
        crashes.append({"signal": crash_name(rc), "requests": requests})
        log(f"hostbench: traced run died on {crash_name(rc)}; "
            "recorded as failed, the per-layer figures need a complete run")
        if time.monotonic() - started > RUN_LIMIT_S / 2:
            raise BenchError("traced run crashed and no time is left")
    checks = next(e for e in events if e["event"] == "checks")
    layers = [e for e in events if e["event"] == "layer"]
    pin = check_pin(identity, checks["digest"])
    correct = all(checks[k] for k in ("replay_match", "exports_match",
                                      "shards_match", "frames_match"))
    correct = correct and pin is not False
    if not correct:
        failed = attempted
    return {
        "identity": identity,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "values": {e["name"]: e["value"] for e in layers},
        "units": {e["name"]: e["unit"] for e in layers},
        "clocks": {e["name"]: e["clock"] for e in layers},
        "counts": {e["name"]: f"n={e['count']:g}" for e in layers},
        "checks": {**{k: checks[k] for k in ("replay_match", "exports_match",
                                             "shards_match", "frames_match")},
                   "digest_pinned": pin, "crashes": crashes,
                   "spans": str(spans.relative_to(ROOT))},
    }


# ---------------------------------------------------------------------------
# Output


def print_table(title, result):
    ident = result["identity"]
    print(f"== {title}: workload={ident['workload']} seed={ident['seed']} "
          f"simd={ident['simd']} threads={ident['threads']} "
          f"nproc={ident['nproc']} scale={ident['scale']}")
    for name, value in result["values"].items():
        print(f"  {name:38s} {value:>16.6g} {result['units'][name]:<14s} "
              f"{result['clocks'][name]:<8s} {result['counts'][name]}")
    print(f"  checks: {json.dumps(result['checks'])}")


def save(result, trace_flag):
    OUT_DIR.mkdir(exist_ok=True)
    ident = result["identity"]
    path = OUT_DIR / (f"result-{ident['workload']}-seed{ident['seed']}-"
                      f"trace{trace_flag}.json")
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def contract_line(result, names):
    metrics = {}
    for name in names:
        metrics[name] = {"value": result["values"][name],
                         "unit": result["units"][name]}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Modes


def self_test(binary):
    """Tiny sizes: every named metric prints with its unit, and the
    correctness checks run, on every workload."""
    spec = benchmark_spec()
    problems = []
    for workload in WORKLOADS:
        before = len(problems)
        m = measure(binary, workload, 1, 0.0, tiny=True)
        t = trace(binary, workload, 1, tiny=True)
        for entry in spec["end_to_end"]:
            if m["units"].get(entry["name"]) != entry["unit"]:
                problems.append(f"{workload}: end-to-end {entry['name']} "
                                "missing or unit differs")
        for name in END_TO_END:
            if name not in m["values"]:
                problems.append(f"{workload}: {name} not reported")
        for entry in spec["per_layer"]:
            if t["units"].get(entry["name"]) != entry["unit"]:
                problems.append(f"{workload}: per-layer {entry['name']} "
                                "missing or unit differs")
        mc, tc = m["checks"], t["checks"]
        if mc["passes"] < 2 or mc["replay_compared"] < 2:
            problems.append(f"{workload}: passes were not checked")
        if not (mc["replay_match"] and mc["exports_match"]):
            problems.append(f"{workload}: measured passes failed a check")
        if mc["digest_pinned"] is not True or tc["digest_pinned"] is not True:
            problems.append(f"{workload}: tiny seed-1 digest not pinned or "
                            "not matching")
        if not t["correct"]:
            problems.append(f"{workload}: traced run failed a check")
        print(f"self-test {workload}: "
              f"{'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print(f"  {p}")
    return 0 if not problems else 1


def pin(binary, seeds, tiny):
    pins = load_pins()
    for seed in seeds:
        for workload in WORKLOADS:
            args = ["--workload", workload, "--seed", str(seed), "--mode",
                    "measure", "--threads", "1", "--seconds", "0",
                    "--setups", "1"] + (["--tiny"] if tiny else [])
            events, rc = run_binary(binary, args, 600)
            ident = next(e for e in events if e["event"] == "identity")
            digests = {e["digest"] for e in events if e["event"] == "pass"}
            if rc != 0 or len(digests) != 1:
                raise BenchError(f"cannot pin {workload} seed {seed}")
            pins[pin_key(ident)] = digests.pop()
            log(f"pinned {pin_key(ident)}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--pin", metavar="SEEDS")
    ap.add_argument("--tiny", action="store_true",
                    help="with --pin: pin the self-test size")
    args = ap.parse_args()
    try:
        spec = benchmark_spec()
        binary = build()
        if args.self_test:
            return self_test(binary)
        if args.pin:
            return pin(binary, parse_seeds(args.pin), args.tiny)
        if args.report:
            for workload in WORKLOADS:
                for trace_flag in (0, 1):
                    result = (trace(binary, workload, args.seed) if trace_flag
                              else measure(binary, workload, args.seed,
                                           args.seconds))
                    save(result, trace_flag)
                    print_table("traced run (per layer)" if trace_flag
                                else "end to end", result)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        if args.trace:
            result = trace(binary, args.workload, args.seed)
            names = [e["name"] for e in spec["per_layer"]]
        else:
            result = measure(binary, args.workload, args.seed, args.seconds)
            names = [e["name"] for e in spec["end_to_end"]]
        save(result, args.trace)
        print_table("traced run (per layer)" if args.trace else "end to end",
                    result)
        print(contract_line(result, names), flush=True)
        return 0
    except (BenchError, OSError, KeyError, ValueError, StopIteration,
            subprocess.SubprocessError) as err:
        log(f"hostbench: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
