#!/usr/bin/env python3
"""Build file of the benchmark.

Compiles the repository's main Scala sources together with the benchmark's
own sources (perfbench/src) into the build directory, using the Scala
compiler and the Spark jars of the Spark distribution the repository builds
against. Run from the repository root:

    python3 perfbench/build.py

The build directory is $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). A build is skipped when a stamp of every source
file's path and content matches the previous build.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO_SOURCES = Path("src/main/scala")
BENCH_SOURCES = Path(__file__).resolve().parent / "src"
# A managed dependency that the Spark distribution does not ship; the
# benchmark calls nothing that uses it.
SKIPPED_IMPORT = "org.duckdb"


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def spark_jars() -> Path:
    """The jars directory of the Spark distribution: $SPARK_HOME, else the
    one behind spark-submit on PATH."""
    homes = []
    if os.environ.get("SPARK_HOME"):
        homes.append(Path(os.environ["SPARK_HOME"]))
    submit = shutil.which("spark-submit")
    if submit:
        homes.append(Path(submit).resolve().parent.parent)
    for home in homes:
        if list((home / "jars").glob("scala-compiler-*.jar")):
            return home / "jars"
    raise SystemExit("perfbench: no Spark distribution with a Scala compiler found; set SPARK_HOME")


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def sources() -> list:
    if not REPO_SOURCES.is_dir():
        raise SystemExit(f"perfbench: {REPO_SOURCES} not found; run from the repository root")
    repo = sorted(p for p in REPO_SOURCES.rglob("*.scala")
                  if SKIPPED_IMPORT not in p.read_text(encoding="utf-8"))
    return repo + sorted(BENCH_SOURCES.rglob("*.scala"))


def stamp(files) -> str:
    h = hashlib.sha256()
    for p in files:
        h.update(str(p).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def build() -> tuple:
    """Compile if the sources changed; returns (classes dir, source stamp)."""
    files = sources()
    sha = stamp(files)
    out = build_dir()
    classes, stamp_file = out / "classes", out / "classes.sha256"
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == sha:
        return classes, sha
    tmp = out / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    args = out / "scalac.args"
    args.write_text("\n".join(str(p) for p in files) + "\n")
    print(f"perfbench: compiling {len(files)} Scala files", file=sys.stderr)
    cmd = [java(), "-Xmx1g", "-cp", str(spark_jars() / "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp), f"@{args}"]
    if subprocess.run(cmd).returncode != 0:
        raise SystemExit("perfbench: compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp_file.write_text(sha)
    return classes, sha


if __name__ == "__main__":
    print(build()[0])
