#!/usr/bin/env python3
"""Build file of the TED benchmark.

Compiles the program (src/main/scala of the checkout) together with the
benchmark sources (tedbench/src) with the Scala compiler that ships in
the Spark distribution's jars, into tedbench/target/classes. A stamp of
every source file's path and content skips the build when nothing
changed. Run from anywhere: `python3 tedbench/build.py`. Prints the
runtime classpath on its last line of standard output.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSES = os.path.join(TARGET, "classes")
STAMP = os.path.join(TARGET, "classes.stamp")


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else ""
    if not jars or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        sys.exit("build: no Spark distribution with a Scala compiler found "
                 "(set SPARK_HOME)")
    return jars


def sources():
    program = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"),
                               recursive=True))
    bench = sorted(glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True))
    if not program:
        sys.exit("build: no program sources under src/main/scala")
    if not bench:
        sys.exit("build: no benchmark sources under tedbench/src")
    return program + bench


def stamp_of(files, jars):
    h = hashlib.sha256()
    for name in sorted(os.listdir(jars)):
        h.update(name.encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    jars = spark_jars()
    files = sources()
    stamp = stamp_of(files, jars)
    classpath = CLASSES + os.pathsep + os.path.join(jars, "*")
    if os.path.exists(STAMP) and open(STAMP).read() == stamp:
        return classpath
    os.makedirs(TARGET, exist_ok=True)
    fresh = CLASSES + ".new"
    shutil.rmtree(fresh, ignore_errors=True)
    os.makedirs(fresh)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, "-Xss8m", "-Xmx2g", "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + TARGET,
           "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-classpath", os.path.join(jars, "*"),
           "-d", fresh] + files
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        shutil.rmtree(fresh, ignore_errors=True)
        sys.exit("build: scalac failed")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(fresh, CLASSES)
    with open(STAMP, "w") as fh:
        fh.write(stamp)
    return classpath


if __name__ == "__main__":
    print(build())
