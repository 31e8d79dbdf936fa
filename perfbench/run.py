#!/usr/bin/env python3
"""Repository benchmark: reproduction and serving, end to end and per layer.

    python3 perfbench/run.py --workload repro-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a checkout. The first run builds the library,
`rpe_cli` and the benchmark's own binary (`rpe_perfbench`) into
`$CARGO_TARGET_DIR` (default `.bench_build`). Workloads, metrics and the
layer map are documented in perfbench/README.md; names and units come from
BENCHMARK.json.

With `--trace 0` the last stdout line is one JSON object holding every
end-to-end metric; with `--trace 1` it holds every per-layer metric, and
the tracing overhead on each end-to-end metric is printed before it. The
exit code is non-zero when any output check fails.
"""

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
PERFBENCH = os.path.join(BUILD, "rpe_perfbench")
RPE_CLI = os.path.join(BUILD, "rpe", "rpe_cli")

# serve-steady starts `rpe_cli serve-tcp` this many times per run; setup_s
# is the median start. The server's flags and the client's load shape are
# fixed in perfbench/src/serve.h (`rpe_perfbench serve-prep` prints them).
SPAWNS = 11
# A run is flagged as disturbed when the host stole more than this share of
# its CPU time.
STEAL_FLAG = 0.05

# Per-layer metrics each workload exercises; the others are reported as 0
# (that layer does no work on that workload).
LAYERS = {
    "repro-cold": {
        "workload.build_s", "optimizer.plan_us", "exec.execute_ms.light",
        "exec.execute_ms.join", "exec.getnext_per_s", "exec.observations",
        "exec.failed", "selection.make_record_us", "selection.record_yield",
        "mart.train_s", "mart.fit_rows_per_s", "mart.predict_us_per_row",
        "selection.select_us", "harness.evaluate_ms",
    },
    "serve-steady": {
        "workload.build_s", "optimizer.plan_us", "exec.execute_ms.light",
        "exec.getnext_per_s", "exec.observations", "exec.failed",
        "selection.make_record_us", "selection.record_yield",
        "mart.retrain_s", "mart.predict_us_per_row", "selection.select_us",
        "selection.decide_us", "selection.progress_ns", "serving.open_us",
        "serving.advance_ns_per_step", "serving.close_us",
        "serving.inproc_sessions_per_s", "serving.snapshot_load_ms",
        "serving.snapshot_encode_ms", "serving.swap_us",
        "serving.ingest_push_ns", "wire.encode_ns.open",
        "wire.encode_ns.advance", "wire.encode_ns.close",
        "wire.encode_ns.ingest_batch", "wire.decode_ns.open",
        "wire.decode_ns.advance", "wire.decode_ns.close",
        "wire.decode_ns.ingest_batch", "wire.bytes_per_session",
        "net.rtt_us.open", "net.rtt_us.advance", "net.rtt_us.close",
        "net.rtt_us.ingest_batch", "net.frontend_us_per_advance",
        "loadgen.late_p99_ms", "ingest.accepted", "ingest.dropped",
        "ingest.shed", "ingest.retrains", "ingest.wait_s",
    },
}


def cpu_split():
    """(server CPUs, client CPUs): on 4 or more CPUs the server and the
    client each get two of their own, so neither is time-sliced behind the
    other's threads (the client's generator spins before each due time).
    Fewer CPUs: no pinning."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None, None
    return set(cpus[:2]), set(cpus[2:4])


def pinned(cpus):
    """preexec_fn pinning a child process to `cpus` (None: unpinned)."""
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# Build and host fingerprint

def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", BUILD, "-j", jobs, "--target",
                 "rpe_perfbench", "rpe_cli"]):
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit("build failed: " + " ".join(cmd))


def source_digest():
    """Commit id when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha1:" + h.hexdigest()


def steal_seconds():
    """CPU time the host has stolen from all CPUs since boot (/proc/stat)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def fingerprint():
    nproc = len(os.sched_getaffinity(0))
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as fh:
        for line in fh:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    simd = [line for line in subprocess.run(
        [RPE_CLI, "version"], capture_output=True, text=True).stdout.splitlines()
        if line.startswith("simd:")]
    return {
        "nproc": nproc,
        "loadavg_before": os.getloadavg()[0],
        "steal_before_s": steal_seconds(),
        "started": time.monotonic(),
        "simd": simd[0] if simd else "unknown",
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": version[0] if version else compiler,
        "commit": source_digest(),
    }


# ---------------------------------------------------------------------------
# Subprocess helpers

def run_json(args, cpus=None, timeout=170):
    """Run an rpe_perfbench subcommand; return its last-line JSON report."""
    done = subprocess.run([PERFBENCH] + [str(a) for a in args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=timeout, preexec_fn=pinned(cpus))
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise CheckFailed("%s printed no report (exit %d)"
                          % (args[0], done.returncode))
    report = json.loads(lines[-1])
    report["exit"] = done.returncode
    return report


def start_server(files):
    """Spawn serve-tcp over the fixed corpus (rebuilt in-process by
    rpe_perfbench); return (process, port, seconds to `listening`)."""
    cmd = [RPE_CLI, "serve-tcp"] + files["server_args"] + [
        "--model", files["model"], "--port", "0"]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            preexec_fn=pinned(cpu_split()[0]))
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        while time.monotonic() - t0 < 60:
            if not sel.select(timeout=1):
                continue
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("listening on 127.0.0.1:"):
                port = int(line.split(":")[1].split()[0])
                return proc, port, time.monotonic() - t0
    finally:
        sel.close()
    stop_server(proc)
    raise CheckFailed("serve-tcp did not start")


def peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def stop_server(proc):
    """SIGTERM (drain) and wait; returns the exit code."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    return proc.returncode


# ---------------------------------------------------------------------------
# Workloads

def checks_of(report, prefix):
    return [dict(c, name=prefix + c["name"]) for c in report.get("checks", [])]


def run_repro(seed, trace, trace_dir):
    args = ["repro", "--seed", seed]
    if trace:
        args += ["--trace", 1, "--trace-out",
                 os.path.join(trace_dir, "repro-cold-%d.json" % seed)]
    report = run_json(args)
    result = {"checks": checks_of(report, ""), "attempted": report["attempted"],
              "failed": report["failed"], "metrics": report["metrics"],
              "exit": report["exit"], "info": report.get("info", {})}
    if trace:
        result["overhead"] = (json.loads(report["info"]["untraced"])["metrics"],
                              json.loads(report["info"]["traced"])["metrics"])
    return result


def serve_pass(seed, traced, files, trace_dir):
    """One fresh server (after SPAWNS timed starts) and one client run."""
    setups, proc = [], None
    try:
        for i in range(SPAWNS):
            if proc is not None:
                stop_server(proc)
            proc, port, seconds = start_server(files)
            setups.append(seconds)
        args = client_args(seed, files) + ["--port", port,
                                           "--server-pid", proc.pid]
        if traced:
            args += ["--trace", 1, "--trace-out",
                     os.path.join(trace_dir, "serve-steady-%d.json" % seed)]
        report = run_json(["serve-client"] + args, cpus=cpu_split()[1])
        rss = peak_rss_mb(proc.pid)
    finally:
        code = stop_server(proc) if proc is not None else 0
    report["checks"].append({"name": "server drained and exited 0",
                             "ok": code == 0, "detail": "exit %d" % code})
    report["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                    "unit": "s", "samples": len(setups)}
    report["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB",
                                        "samples": 1}
    return report


def client_args(seed, files):
    return ["--seed", seed, "--seconds", files["seconds"],
            "--model", files["model"], "--stream", files["stream"]]


def run_serve(seed, seconds, trace, trace_dir):
    work = os.path.join(BUILD, "runs", "steady-%d-%d" % (seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        checks = []
        selftest = run_json(["stall-selftest"])
        checks += checks_of(selftest, "stall self-test: ")
        prep = run_json(["serve-prep", "--seed", seed, "--dir", work])
        if prep["exit"] != 0:
            raise CheckFailed("serve-prep failed")
        files = {"model": os.path.join(work, "model.rpsn"),
                 "stream": os.path.join(work, "stream.rpsn"),
                 "server_args": prep["server_args"], "seconds": seconds}
        base = serve_pass(seed, False, files, trace_dir)
        checks += checks_of(base, "")
        result = {"attempted": base["attempted"], "failed": base["failed"],
                  "metrics": base["metrics"], "exit": base["exit"],
                  "info": base.get("info", {})}
        if trace:
            traced = serve_pass(seed, True, files, trace_dir)
            checks += checks_of(traced, "traced: ")
            retrains = int(traced["info"]["retrains"])
            layers = run_json(["serve-layers"] + client_args(seed, files)
                              + ["--retrains", retrains], cpus=cpu_split()[1])
            checks += checks_of(layers, "layers: ")
            metrics = dict(traced["metrics"])
            metrics.update(layers["metrics"])
            per_step = traced["info"]["advance_steps_per_request"]
            metrics["net.frontend_us_per_advance"] = {
                "value": metrics["net.rtt_us.advance"]["value"]
                - metrics["serving.advance_ns_per_step"]["value"] * per_step
                / 1e3
                - (metrics["wire.encode_ns.advance"]["value"]
                   + metrics["wire.decode_ns.advance"]["value"]) / 1e3,
                "unit": "us", "samples": metrics["net.rtt_us.advance"]["samples"]}
            metrics["ingest.wait_s"] = {
                "value": traced["metrics"]["swap_s"]["value"]
                - metrics["mart.retrain_s"]["value"],
                "unit": "s", "samples": metrics["swap_s"]["samples"]}
            result["metrics"] = metrics
            result["overhead"] = (base["metrics"], traced["metrics"])
            result["exit"] = max(base["exit"], traced["exit"], layers["exit"])
        result["checks"] = checks
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Reporting

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def print_table(title, rows):
    log(title)
    for name, value, unit, samples in rows:
        log("  %-32s %16.6g %-9s n=%s" % (name, value, unit, samples))


def run_workload(name, seed, seconds, trace, spec):
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    host = fingerprint()
    if name == "repro-cold":
        result = run_repro(seed, trace, trace_dir)
    else:
        result = run_serve(seed, seconds, trace, trace_dir)
    host["loadavg_after"] = os.getloadavg()[0]
    # The load average counts the benchmark's own threads, so whether the
    # host disturbed the run is judged by the CPU time it stole instead.
    elapsed = time.monotonic() - host.pop("started")
    host["steal_s"] = steal_seconds() - host.pop("steal_before_s")
    host["steal_share"] = host["steal_s"] / (elapsed * os.cpu_count())
    host["disturbed"] = host["steal_share"] > STEAL_FLAG
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, rows = {}, []
    missing = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if trace and m["name"] not in LAYERS[name]:
                got = {"value": 0, "unit": m["unit"], "samples": 0}
            else:
                missing.append(m["name"])
                continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        rows.append((m["name"], got["value"], m["unit"], got["samples"]))
    if not trace:
        gated = {m["name"] for m in wanted}
        for extra, got in sorted(result["metrics"].items()):
            if extra not in gated:
                rows.append((extra + " (not gated)", got["value"],
                             got["unit"], got["samples"]))
    checks = result["checks"] + [{
        "name": "every metric reported", "ok": not missing,
        "detail": "missing: " + ", ".join(missing) if missing else "all"}]
    print_table("%s seed %d (%s):" % (name, seed,
                                      "traced" if trace else "untraced"), rows)
    if trace:
        untraced, traced = result["overhead"]
        log("tracing overhead (traced / untraced - 1):")
        for m in spec["end_to_end"]:
            a = untraced.get(m["name"], {}).get("value")
            b = traced.get(m["name"], {}).get("value")
            if a is not None and b is not None:
                log("  %-18s %14.6g %14.6g %+8.2f%%" % (
                    m["name"], a, b, 100.0 * (b / a - 1) if a else 0.0))
    for c in checks:
        if not c["ok"]:
            log("CHECK FAILED: %s (%s)" % (c["name"], c["detail"]))
    if host["disturbed"]:
        log("WARNING: the host stole %.1f%% of the CPU time during the run"
            % (100 * host["steal_share"]))
    correct = all(c["ok"] for c in checks) and result["exit"] == 0
    record = {"workload": name, "seed": seed, "trace": trace, "host": host,
              "checks": checks, "metrics": metrics,
              "samples": {r[0]: r[3] for r in rows},
              "info": result["info"],
              "overhead": result.get("overhead")}
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-%d-trace%d.json" % (
            name, seed, trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"host": host}))
    return {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in todo):
        parser.error("unknown workload %s (one of %s)" % (args.workload,
                                                          ", ".join(names)))
    build()
    results = {}
    for name in todo:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, spec)
        except (CheckFailed, subprocess.TimeoutExpired) as e:
            log("%s: %s" % (name, e))
            return 1
    if len(todo) == 1:
        out = results[todo[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
