#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Build output goes to stderr; the benchmark's own stdout is passed through,
so its last line is the result object.  Everything the run writes stays
inside the checkout: dune's build directory and `.perfbench-work/`.
"""

import hashlib
import os
import signal
import subprocess
import sys

WORK = ".perfbench-work"
BENCH_EXE = "_build/default/perfbench/main.exe"
SERVE_EXE = "_build/default/bin/mpsoc_par.exe"


def git_rev(root):
    """HEAD's commit when the checkout is a git work tree, read from
    .git directly; None otherwise."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def tree_digest(root):
    """sha256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    names = ["dune-project"]
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs.sort()
            names += [os.path.relpath(os.path.join(d, f), root) for f in sorted(files)]
    for name in names:
        h.update(name.encode() + b"\0")
        with open(os.path.join(root, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def pin_closed_loop(args):
    """Run a closed-loop workload on one core: the benchmark and its
    host-speed calibrator (a child it starts) then share that core, so
    the calibrator measures the core the ops ran on.  serve-mixed is
    left free: its daemon and client run side by side."""
    if "--workload" not in args or not hasattr(os, "sched_setaffinity"):
        return
    i = args.index("--workload")
    if i + 1 < len(args) and args[i + 1] != "serve-mixed":
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError as e:
            print("perfbench: running unpinned: %s" % e, file=sys.stderr)


def main():
    root = os.getcwd()
    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin", "perfbench/dune")):
        print("perfbench: run from the root of a source checkout "
              "(dune-project, lib/, bin/ and perfbench/ are needed)", file=sys.stderr)
        return 2
    tmp = os.path.join(root, WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(DUNE_CACHE="disabled", TMPDIR=tmp,
               XDG_CACHE_HOME=os.path.join(root, WORK, "cache"))
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/main.exe", "bin/mpsoc_par.exe"],
            stdout=sys.stderr, env=env)
    except FileNotFoundError:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    rev = git_rev(root)
    rev = ("git:" + rev if rev else "none") + " tree:" + tree_digest(root)
    pin_closed_loop(sys.argv[1:])
    run = subprocess.Popen(
        [BENCH_EXE] + sys.argv[1:]
        + ["--serve-exe", SERVE_EXE, "--work-dir", WORK, "--rev", rev,
           "--host-cores", str(os.cpu_count())],
        env=env)
    # pass a stop request on, so the benchmark can stop its daemons
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, _frame: run.send_signal(signum))
    return run.wait()


if __name__ == "__main__":
    sys.exit(main())
