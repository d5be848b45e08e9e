#!/usr/bin/env python3
"""Harmony benchmark: one workload, one closed-loop run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the program when its sources changed
(see build.py), then runs it in one JVM with a local Spark master. The last
line of stdout is the result object; with --trace 0 it holds the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer ones. See
perfbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

JVM_SECONDS = 170
HEAP = "-Xmx2g"
# Module openings Spark needs on JDK 17 (as spark-submit passes them).
OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def commit() -> str:
    if not Path(".git").exists():  # a plain checkout; do not pick up an enclosing repository
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def check_result(line: str, spec: dict, trace: int) -> str:
    """Why the result line breaks the BENCHMARK.json contract, or ''."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {n: m.get("unit") for n, m in res["metrics"].items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    return ""


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)  # unwinds through main's finally, which stops the JVM


def main() -> int:
    for sig in (signal.SIGTERM, signal.SIGHUP, signal.SIGINT):
        signal.signal(sig, on_signal)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    classes, sha = build.build()

    out = build.build_dir()
    for d in ("spark-local", "tmp", "traces"):
        (out / d).mkdir(parents=True, exist_ok=True)
    cmd = [build.java(), HEAP, *OPENS,
           f"-Dlog4j.configurationFile={Path(__file__).resolve().parent / 'log4j2.properties'}",
           f"-Djava.io.tmpdir={out / 'tmp'}",
           f"-Dspark.sql.warehouse.dir={out / 'tmp' / 'warehouse'}",
           f"-Dperfbench.traceDir={out / 'traces'}",
           f"-Dperfbench.commit={commit()}",
           f"-Dperfbench.sourceSha={sha}",
           "-cp", f"{classes}:{build.spark_jars() / '*'}",
           "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # SPARK_LOCAL_DIRS outranks spark.local.dir, so set it for the JVM
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(out / "spark-local"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=JVM_SECONDS)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {JVM_SECONDS} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    lines = stdout.rstrip("\n").splitlines()
    problem = check_result(lines[-1], spec, args.trace) if lines else "no output"
    if problem:
        print("\n".join(lines[:-1]))
        print(f"perfbench: {problem}", file=sys.stderr)
        return proc.returncode or 4
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
