#!/usr/bin/env python3
"""Run one workload of the TED benchmark.

    python3 tedbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark from source if needed (build.py),
then runs one JVM that sets up the workload's input from the seed,
measures it for the given seconds and checks every output. The JVM prints
each metric by name and unit; its last line, repeated here as the last
line of standard output, is the JSON result. With --trace 1 it also
writes the spans of the traced run to tedbench/target/traces/.
See tedbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = os.path.join(HERE, "target")

# One fixed heap for every workload, sized and touched at start, with the
# stop-the-world parallel collector, keeps GC alike across calls.
JVM_FLAGS = [
    "-Xms3g", "-Xmx3g", "-XX:+AlwaysPreTouch", "-XX:+UseParallelGC",
    "-XX:-UsePerfData", "-Xss16m",
]

# Compiling in the foreground makes the JIT compile at the same points in
# every run. With background compilation, one JVM in two compiled TED's
# hot path into code allocating 16% more than the other (538 MB against
# 463 MB a call on ted-aids3200). The single-threaded workloads compile
# everything in the foreground. Spark generates and compiles code on every
# query, which foreground compilation slows by half, so the Spark workload
# compiles only the program's own methods in the foreground.
WORKLOAD_FLAGS = {
    "ted-aids3200": ["-XX:-BackgroundCompilation"],
    "base-aids200": ["-XX:-BackgroundCompilation"],
    "dist-pubchem1800": ["-XX:CompileCommand=quiet",
                         "-XX:CompileCommand=BackgroundCompilation,repro.*::*,false"],
}

# The module openings Spark's own launcher passes on Java 17.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_FLAGS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    built = subprocess.run([sys.executable, os.path.join(HERE, "build.py")],
                           stdout=subprocess.PIPE, text=True)
    if built.returncode != 0:
        sys.exit("run: build failed")
    classpath = built.stdout.strip().splitlines()[-1]

    threads = min(4, os.cpu_count() or 1)
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = ([java] + JVM_FLAGS + WORKLOAD_FLAGS[args.workload]
           + ["-XX:ParallelGCThreads=%d" % threads]
           + ["--add-opens=%s=ALL-UNNAMED" % m for m in OPENS]
           + ["-Djava.io.tmpdir=" + tmp,
              "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
              "-cp", classpath, "repro.tedbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace,
              "--golden", os.path.join(HERE, "golden.txt"),
              "--work-dir", TARGET])
    if args.trace == "1":
        cmd += ["--spans", os.path.join(TARGET, "traces", "%s-seed%d.tsv.gz" % (args.workload, args.seed))]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(170, proc.kill)
    watchdog.start()
    last = None
    try:
        for line in proc.stdout:
            print(line, end="", flush=True)
            last = line
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or last is None:
        sys.exit("run: benchmark JVM exited with code %d" % proc.returncode)
    json.loads(last)  # the result line must be JSON

if __name__ == "__main__":
    main()
