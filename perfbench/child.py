"""Child interpreters of the benchmark, and the parent side that starts them.

Run as a script, this file is the child.  It pins BLAS threads before
numpy loads, then does one of two jobs and prints one JSON line:

    child.py setup --module M [--orders 10,20]   time a fresh set-up
    child.py cli [--trace] -- ARGV...            run gausscolloc.cli.main(ARGV)

``spawn`` is the parent side: it starts one child, waits for it to end,
and returns its wall time, exit code and payload.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from envpin import ROOT, child_env

# Far above the slowest operation (props --n-max 300, about 3.5 s), and
# low enough that a hung child still lets a run end within three minutes.
CHILD_TIMEOUT_S = 60.0


def spawn(args):
    """Run one child to completion: (wall seconds, returncode, payload, stderr).

    The payload is the child's last stdout line as JSON, or None.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err = f"{err}\nchild timed out after {CHILD_TIMEOUT_S:g} s"
    finally:
        if proc.poll() is None:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    payload = None
    if proc.returncode == 0 and out.strip():
        try:
            payload = json.loads(out.strip().splitlines()[-1])
        except ValueError:
            payload = None
    return wall, proc.returncode, payload, err


def _maxrss_kb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _setup(module, orders):
    import importlib

    from envpin import import_package

    t0 = time.perf_counter()
    pkg = import_package()
    importlib.import_module(module)
    t1 = time.perf_counter()
    phases = {"import_s": t1 - t0}
    if orders:
        import solves

        _, more = solves.setup(pkg, orders)
        phases.update(more)
    phases["setup_s"] = sum(phases.values())
    return phases


def _cli(argv, traced):
    import contextlib
    import io

    from envpin import import_package

    t0 = time.perf_counter()
    pkg = import_package()
    import gausscolloc.cli as cli
    import_s = time.perf_counter() - t0

    main = cli.main
    buf = io.StringIO()
    if traced:
        from tracer import Tracer, summarize

        tracer = Tracer()
        main = tracer.wrap(f"cli.main.{argv[0]}", main)
        with tracer.installed(pkg), contextlib.redirect_stdout(buf):
            t1 = time.perf_counter()
            code = main(argv)
            main_s = time.perf_counter() - t1
        spans = tracer.spans()
        extra = {"summary": summarize(spans), "spans": [list(sp) for sp in spans]}
    else:
        with contextlib.redirect_stdout(buf):
            t1 = time.perf_counter()
            code = main(argv)
            main_s = time.perf_counter() - t1
        extra = {}
    return {"exit": code, "output": buf.getvalue(), "import_s": import_s,
            "main_s": main_s, "maxrss_kb": _maxrss_kb(), **extra}


def main(argv=None):
    from envpin import BenchSetupError, pin_threads

    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--module", required=True)
    p.add_argument("--orders", default="")
    p = sub.add_parser("cli")
    p.add_argument("--trace", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    try:
        pin_threads()
        if args.mode == "setup":
            payload = _setup(args.module, [int(n) for n in args.orders.split(",") if n])
        else:
            cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
            payload = _cli(cli_argv, args.trace)
    except BenchSetupError as exc:
        print(f"child: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
