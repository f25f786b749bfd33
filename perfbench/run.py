#!/usr/bin/env python3
"""Build redspider from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the root of a checkout.  The build goes to _build (dune's
default), the run's scratch files to .perfbench_run; both are ignored by
git.  The last line of standard output is the run's JSON result.

--selftest feeds every checker a corrupted output (it must reject it)
and checks determinism: two runs of each workload with the same seed and
a fixed number of rounds must submit byte-identical job sequences and,
on paper-batch, report identical allocation and Obs counters.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-batch", "daemon-repeat", "daemon-mutate"]
BENCH_EXE = os.path.join("_build", "default", "perfbench", "main.exe")
DAEMON_EXE = os.path.join("_build", "default", "bin", "redspider.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            fail("run from the root of a redspider checkout (missing %s)" % need)
    cmd = ["dune", "build", "--root", ".", "./" + BENCH_EXE, "./" + DAEMON_EXE]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed: " + " ".join(cmd))


def commit():
    if not os.path.isdir(".git"):
        return "none"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_md5():
    """Digest of the program's sources, naming the code when git cannot."""
    h = hashlib.md5()
    for top in ("lib", "bin"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".c")) or f == "dune":
                    p = os.path.join(root, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def bench(args):
    return [BENCH_EXE] + args + ["--daemon-exe", DAEMON_EXE,
                                 "--commit", commit(),
                                 "--source-md5", source_md5()]


def info_lines(out, key):
    prefix = "# %s " % key
    return [json.loads(l[len(prefix):]) for l in out.splitlines()
            if l.startswith(prefix)]


def selftest():
    ok = subprocess.run([BENCH_EXE, "--selftest"]).returncode == 0
    for w in WORKLOADS:
        seen = []
        for _ in range(2):
            r = subprocess.run(
                bench(["--workload", w, "--seed", "11", "--seconds", "1",
                       "--trace", "1", "--rounds", "3"]),
                capture_output=True, text=True, timeout=600)
            if r.returncode != 0:
                print(r.stderr, file=sys.stderr)
                fail("determinism run of %s failed" % w)
            det = info_lines(r.stdout, "determinism")[0]
            res = json.loads(r.stdout.strip().splitlines()[-1])
            seen.append((det, res["attempted"], res["failed"]))
        same = seen[0] == seen[1]
        ok = ok and same
        print("determinism %-14s %s  %s" % (
            w, "same" if same else "DIFFERENT", json.dumps(seen[0][0])[:160]))
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    build()
    if argv == ["--selftest"]:
        sys.exit(selftest())
    os.execv(BENCH_EXE, bench(argv))


if __name__ == "__main__":
    main()
