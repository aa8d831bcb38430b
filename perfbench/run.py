#!/usr/bin/env python3
"""Run the RStore benchmark: build once per checkout, then one JVM per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--dataset-seed <n>]
    python3 perfbench/run.py --selfcheck

The program and the benchmark code are compiled from source with sbt,
through the benchmark's own build in this directory (it depends on the
repository's root project, whose build is used unchanged). The resulting
classpath and the program's JVM options are cached in
.bench_build/perfbench/ and reused while no source or build file changes.

Each run is one fresh JVM with a fixed 3 GB heap and the parallel collector
(no concurrent GC threads competing with the timed calls). Its last line of standard
output is the result JSON; build output and progress go to standard error.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORK = os.path.join(REPO, ".bench_build", "perfbench")
HEAP = "3g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Files whose content decides the build: program sources, both builds.
BUILD_INPUTS = ["build.sbt", "project", "src/main", "jobs", "perfbench/build.sbt",
                "perfbench/project", "perfbench/src"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    for top in BUILD_INPUTS:
        path = os.path.join(REPO, top)
        if os.path.isfile(path):
            yield path
        for d, subdirs, files in os.walk(path):
            subdirs[:] = sorted(s for s in subdirs if s != "target")
            yield from (os.path.join(d, f) for f in sorted(files))


def source_stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, REPO).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile with sbt unless the cached build matches the sources; return
    (classpath, JVM options)."""
    if not (os.path.isfile(os.path.join(REPO, "build.sbt"))
            and os.path.isdir(os.path.join(REPO, "src", "main", "scala"))):
        fail(f"no program sources next to {HERE} (expected build.sbt and src/main/scala)")
    stamp = source_stamp()
    cache = os.path.join(WORK, "launch.txt")
    if os.path.isfile(cache):
        with open(cache) as fh:
            lines = fh.read().splitlines()
        if lines and lines[0] == stamp:
            return lines[1], lines[2:]
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.offline=true",
           "compile", "export Runtime/fullClasspath", "print Compile/run/javaOptions"]
    try:
        p = subprocess.run(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("sbt not found on PATH")
    except subprocess.TimeoutExpired:
        fail(f"build took more than {BUILD_TIMEOUT_S} s")
    sys.stderr.write(p.stdout)
    if p.returncode != 0:
        fail(f"build failed (sbt exit {p.returncode})")
    out = p.stdout.splitlines()
    cps = [line for line in out if not line.startswith(("[", "*")) and "classes" in line]
    opts = [line[2:].strip() for line in out if line.startswith("* -")]
    if not cps:
        fail("sbt printed no classpath")
    os.makedirs(WORK, exist_ok=True)
    with open(cache, "w") as fh:
        fh.write("\n".join([stamp, cps[-1]] + opts) + "\n")
    return cps[-1], opts


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--dataset-seed", type=int,
                    help="seed of the generated history (default: the workload's fixed seed)")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run the output checks on corrupted inputs instead of a workload")
    args = ap.parse_args()
    if not args.selfcheck and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    classpath, jvm_opts = build()
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", f"-Djava.io.tmpdir={tmp}", *jvm_opts,
           "-cp", classpath, "repro.perfbench.Bench"]
    if args.selfcheck:
        cmd.append("--selfcheck")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", args.trace, "--work-dir", WORK]
        if args.dataset_seed is not None:
            cmd += ["--dataset-seed", str(args.dataset_seed)]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = subprocess.Popen(cmd, cwd=REPO, stdin=subprocess.DEVNULL)
    try:
        code = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run took more than {RUN_TIMEOUT_S} s", 124)
    finally:
        if p.poll() is None:  # timed out or interrupted: stop the JVM and wait for it
            p.kill()
            p.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
