#!/usr/bin/env python3
"""Mondrian pipeline benchmark: region detection + template inference over
one generated corpus per run, on Spark local[nproc] in one JVM.

Usage, from the repository root:

    python3 perfbench/run.py --workload deco-static --seed 0 --seconds 1 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  deco-static    Deco-like corpus, Static Radius detection
  fuste-dynamic  Fuste-like corpus, Dynamic Radius detection
  deco-cc        Deco-like corpus at 1/4 scale, Connected Components; not in
                 BENCHMARK.json, whose runs must fit a fixed time budget

--seed 0 is the canonical corpus; any other seed re-draws the files of the
canonical templates. --trace 0 reports the end-to-end metrics (medians over
at least two pipelines, made for --seconds); --trace 1 reports per-layer
metrics from a traced run and writes its spans to
.bench_build/traces/<workload>.jsonl. The last stdout line is the JSON
result; earlier lines hold the environment record and any problems found.
The program is built from source on first use (see build.py).
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import build  # noqa: E402

WORKLOADS = ["deco-static", "fuste-dynamic", "deco-cc"]
RUN_TIMEOUT_S = 170
# A fixed heap and the throughput collector: with G1 and a growing heap the
# pipeline times varied more from run to run.
HEAP = "4g"

# Module openings Spark needs on Java 17 (what spark-submit passes).
ADD_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--scale", type=float, help="corpus plan scale (default: the workload's own)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        classes, jars, source = build.build()
    except build.BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    tmp = os.path.join(build.OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", "-XX:-UsePerfData", "-XX:+UseParallelGC", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
            f"-Dspark.local.dir={tmp}",
            f"-Dperfbench.commit={git_commit()}", f"-Dperfbench.source={source}"]
           + ADD_OPENS
           + ["-cp", os.pathsep.join([classes, os.path.join(jars, "*")]), "perfbench.PipelineBench",
              "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace),
              "--trace-dir", os.path.join(build.ROOT, ".bench_build", "traces")])
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=build.ROOT, start_new_session=True)

    def stop(signum=None, frame=None):
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        if signum is not None:
            sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: benchmark exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
