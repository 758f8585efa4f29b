#!/usr/bin/env python3
"""Build and run the end-to-end benchmark; see perfbench/README.md.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--smoke] [--seed N] [--seconds S]

The first form prints a host record, the workload record and, as its
last line, the result JSON. The second runs every workload named in
BENCHMARK.json untraced and traced, prints each end-to-end metric with
its unit and the tracing overhead, and checks that every metric named
in BENCHMARK.json is emitted with its unit and that no check failed;
--smoke does so at tiny scale in seconds.

Every run gets a fresh plan-cache directory (so the plan cache's disk
tier and the Tier B .cmxs cache start empty) and temp directory, both
under .perfbench/ and deleted when the run ends.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (dune-project or lib/ missing)")
    built = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        fail("build failed")


def host_record():
    def cache_bytes(level):
        try:
            out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"],
                                 capture_output=True, text=True).stdout.strip()
            return int(out) if int(out) > 0 else None
        except (OSError, ValueError):
            return None

    ocamlopt = shutil.which("ocamlopt")
    version = None
    if ocamlopt:
        version = subprocess.run(
            [ocamlopt, "-version"], capture_output=True, text=True
        ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "ocaml": version,
        "ocamlopt_found": ocamlopt is not None,
    }


def run_once(workload, seed, seconds, trace, smoke=False):
    """Run the benchmark executable once and return its stdout lines."""
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    env = {k: v for k, v in os.environ.items() if not k.startswith("RTRT_")}
    env["RTRT_PLAN_CACHE_DIR"] = os.path.join(run_dir, "cache")
    env["TMPDIR"] = run_dir
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-file",
                os.path.join(WORK, f"trace-{workload}-seed{seed}.jsonl")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload}: run did not finish")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{workload}: exited with code {proc.returncode}")
    return out.splitlines()


def run_all(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds else (1 if args.smoke else spec["run_seconds"])
    problems = []
    print("host " + json.dumps(host_record()))
    for w in spec["workloads"]:
        name = w["name"]
        results = {}
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines = run_once(name, args.seed, seconds, trace, args.smoke)
            result = json.loads(lines[-1])
            results[trace] = result
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{name} trace={trace}: {m['name']} missing or wrong unit")
            if trace == 0:
                print(lines[-2])
        print(f"{name}  (error rate {results[0]['failed']}/{results[0]['attempted']})")
        for m in spec["end_to_end"]:
            v = results[0]["metrics"].get(m["name"], {}).get("value")
            print(f"  {m['name']:<16} {v!s:>24} {m['unit']}")
        overhead = (results[1]["metrics"]["trace.total_s"]["value"]
                    - results[0]["metrics"]["total_s"]["value"])
        print(f"  tracing overhead (traced - untraced total_s): {overhead:+.4f} s")
        shares = {k: v["value"] for k, v in results[1]["metrics"].items()
                  if k.endswith(".share") or k == "unattributed_share"}
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
        print("  largest self-time shares: "
              + ", ".join(f"{k} {v:.3f}" for k, v in top))
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.all and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required without --all")
    build()
    if args.all:
        sys.exit(run_all(args))
    lines = run_once(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print("host " + json.dumps(host_record()))
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
