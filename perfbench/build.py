#!/usr/bin/env python3
"""Builds the benchmark: compiles the program's sources (src/main/scala) and
the benchmark's (perfbench/src) with the Scala compiler shipped in the Spark
distribution, into .bench_build/perfbench/classes.

A build is skipped when the digest of the sources and the compiler
classpath matches the last successful build.

Usage: python3 perfbench/build.py
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(OUT, "classes")
STAMP = os.path.join(OUT, "classes.sha256")
BUILD_TIMEOUT_S = 600


class BuildError(Exception):
    pass


def spark_jars():
    """The jars of the Spark distribution at $SPARK_HOME, or else of the first
    spark-submit on the PATH that belongs to a full distribution."""
    homes = [os.environ["SPARK_HOME"]] if os.environ.get("SPARK_HOME") else [
        os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit"))))
        for d in os.environ.get("PATH", "").split(os.pathsep)
        if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        jars = os.path.join(home, "jars")
        if glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
            return jars
    raise BuildError("no Spark distribution with a Scala compiler: set SPARK_HOME")


def sources():
    program = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True))
    if not program:
        raise BuildError("program sources src/main/scala/**/*.scala not found")
    return program + sorted(glob.glob(os.path.join(HERE, "src", "*.scala")))


def digest(files, jars):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    h.update("\n".join(sorted(os.listdir(jars))).encode())
    return h.hexdigest()


def build():
    """Compiles if needed; returns (classes dir, Spark jars dir, source digest)."""
    jars = spark_jars()
    files = sources()
    want = digest(files, jars)
    if os.path.isdir(CLASSES) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == want:
                return CLASSES, jars, want
    tmp = CLASSES + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    javatmp = os.path.join(OUT, "tmp")
    os.makedirs(javatmp, exist_ok=True)
    cmd = ["java", "-XX:-UsePerfData", "-Xmx2g", f"-Djava.io.tmpdir={javatmp}", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + files
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        raise BuildError("compilation timed out")
    if rc != 0:
        raise BuildError(f"compilation failed with exit code {rc}")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(tmp, CLASSES)
    with open(STAMP, "w") as fh:
        fh.write(want + "\n")
    return CLASSES, jars, want


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        sys.exit(2)
