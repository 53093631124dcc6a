"""Benchmark of the secantlab CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a source checkout: the program is taken from ./src, never from
an installed package.  One client drives the CLI in a closed loop: each
instance is a fresh `python -m secantlab.cli` process, started when the
previous one has exited (`verify --jobs 1`).  The instances of the workload
run in turn until --seconds have elapsed and each has run at least once.

--trace 0 reports the end-to-end metrics:
  wall_s       wall time of one pass over the instances: the sum over
               instances of the median of the instance's scaled wall times
  setup_s      median, over SETUP_REPEATS fresh processes, of the scaled
               wall time of importing secantlab.cli and parsing every input
               file of the workload
  peak_rss_mb  largest, over instances, of the median child max-RSS
  ok_frac      instances that succeed, over instances attempted
--trace 1 runs each instance once under traced.py and reports the
per-layer metrics, summed over the workload's instances.

Scaled wall time.  The benchmark shares a 2-core VM with other tenants, and
each core's speed drifts by up to half over seconds to minutes, the two
cores independently; CPU time drifts with wall time.  So the benchmark and
its children are pinned to one core, a fixed pure-Python probe is timed on
that core just before every child starts, and each child's wall time is
scaled by PROBE_REF_S / probe: the time it would take on the reference host
speed, at which the probe takes PROBE_REF_S.  The raw wall times and probe
times are printed too.

An instance fails on a non-zero exit, on a value that differs from the
expected-answer table (expected.py), or on output bytes that differ from the
instance's first run.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy

import expected
import gen_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = 1      # the children share the one core they are pinned to
SETUP_REPEATS = 7
# host_probe() in the fast phases of the reference host (Intel Xeon VM,
# 2 vCPUs, Python 3.11)
PROBE_REF_S = 0.015
MAX_DEGREE = 4


@dataclass
class Instance:
    name: str
    args: list      # secantlab CLI arguments
    inputs: list    # input files, parsed by the set-up probe
    check: object   # parsed JSON output -> list of differences


def _curve(work: Path, g: int, d: int, seed: int) -> str:
    path = work / f"g{g}_d{d}.curve"
    path.write_text(gen_inputs.curve_text(g, d, seed))
    return str(path)


def _verify(name, path, k, seed, rows, max_degree=None) -> Instance:
    args = ["verify", "--file", path, "--k", str(k), "--jobs", "1",
            "--format", "json", "--seed", str(seed)]
    if max_degree is not None:
        args += ["--max-degree", str(max_degree)]
    return Instance(name, args, [path],
                    partial(expected.check_verify, rows=rows))


def ranks(seed: int, work: Path) -> list:
    """Koszul ranks: untruncated `verify --k 1` on the rational normal curve
    (the cut strands of the full resolution), then `betti --ideal-file
    --max-degree` on Hankel minors (the uncut strands of the truncated
    path)."""
    out = [_verify(f"rnc-d{d}", _curve(work, 0, d, seed), 1, seed,
                   expected.rnc_secant_rows(d)) for d in (5, 6)]
    d = 8
    path = work / f"hankel{d}.ideal"
    path.write_text(gen_inputs.hankel_minors_text(d, seed))
    args = ["betti", "--ideal-file", str(path), "--max-degree",
            str(MAX_DEGREE), "--format", "json", "--seed", str(seed)]
    fields = expected.hankel_truncated_betti(d, MAX_DEGREE)
    out.append(Instance(f"hankel-d{d}", args, [str(path)],
                        partial(expected.check_betti, fields=fields)))
    return out


def join(seed: int, work: Path) -> list:
    """Secant joins: the elliptic sextic (sugar pair selection) and the
    rational normal curve for k = 2 (graded), Betti table cut at degree 4."""
    return [_verify(f"g{g}-d{d}-k{k}", _curve(work, g, d, seed), k, seed,
                    expected.truncated_rows(g, d, k), MAX_DEGREE)
            for g, d, k in ((1, 6, 1), (0, 6, 2))]


_VERIFY_HOOKS = ["homalg.hilbert_data", "homalg.minimal_free_resolution",
                 "gb.buchberger", "gb.normal_form", "curves.parse_curve_file",
                 "oracle.verify", "ideal_ops.secant_join",
                 "curves.rational_normal_curve"]
# workload -> (instances, hooks that must fire in its traced pass)
WORKLOADS = {
    "ranks": (ranks, _VERIFY_HOOKS + ["cli.parse_ideal_file"]),
    "join": (join, _VERIFY_HOOKS + ["curves.embed"]),
}

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "ok_frac": "ratio"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SECANTLAB_PAIR_BUDGET", None)
    threads = str(BLAS_THREADS)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    return env


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "pythonhashseed": "0"}


def spawn(cmd, env, stdout_path: Path) -> tuple:
    """Run cmd to completion: (wall seconds, max RSS in MB, exit code)."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


class Runner:
    """Runs instances and checks every output against the expected answers
    and against the first run of the same instance."""

    def __init__(self, env, work: Path):
        self.env, self.work = env, work
        self.reference = {}     # instance name -> bytes of its first run
        self.attempted = 0
        self.failures = []

    def run(self, inst, tracing: bool = False) -> tuple:
        """Run one instance: (wall seconds, max RSS in MB)."""
        out = self.work / f"{inst.name}.json"
        if tracing:
            cmd = [sys.executable, str(HERE / "traced.py"),
                   str(self.work / f"{inst.name}.layers.json"), "--",
                   *inst.args]
        else:
            cmd = [sys.executable, "-m", "secantlab.cli", *inst.args]
        wall, rss, code = spawn(cmd, self.env, out)
        self._check(inst, out, code)
        return wall, rss

    def _check(self, inst, out: Path, code: int):
        self.attempted += 1
        data = out.read_bytes()
        if code != 0:
            err = out.with_suffix(".err").read_text(errors="replace")
            problems = [f"exit code {code}: {err.strip()[-400:]}"]
        else:
            try:
                problems = inst.check(json.loads(data))
            except (ValueError, KeyError, TypeError) as e:
                problems = [f"unreadable output: {e!r}"]
            first = self.reference.setdefault(inst.name, data)
            if data != first:
                problems.append("output bytes differ from the first run")
        if problems:
            self.failures.append((inst.name, problems))


def host_probe() -> float:
    """Seconds of a fixed pure-Python dict workload on this core, the
    fastest of three tries."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table = {}
        for i in range(100_000):
            table[i] = i * i
        total = 0
        for i in range(100_000):
            total += table[i]
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup(instances, env, work: Path) -> tuple:
    """(raw walls, probe times) of SETUP_REPEATS set-up probes."""
    files = [f for inst in instances for f in inst.inputs]
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *files]
    walls, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(host_probe())
        wall, _, code = spawn(cmd, env, work / "setup_probe.out")
        if code != 0:
            err = (work / "setup_probe.err").read_text(errors="replace")
            raise SystemExit(f"set-up probe failed: {err.strip()}")
        walls.append(wall)
    return walls, probes


def scaled_median(walls, probes) -> float:
    """Median of the wall times scaled to the reference host speed."""
    return statistics.median(w * PROBE_REF_S / p
                             for w, p in zip(walls, probes))


def layer_metrics(instances, work: Path, must_fire) -> dict:
    """Sum the traced instances' per-layer metrics; fail loudly if a hook
    that must fire on this workload recorded no call."""
    calls, metrics = {}, {}
    for inst in instances:
        path = work / f"{inst.name}.layers.json"
        if not path.exists():
            err = (work / f"{inst.name}.err").read_text(errors="replace")
            raise SystemExit(f"traced run of {inst.name} failed:\n{err}")
        layers = json.loads(path.read_text())
        print(f"{inst.name} calls:", json.dumps(layers["calls"]))
        for table, part in ((calls, layers["calls"]),
                            (metrics, layers["metrics"])):
            for key, value in part.items():
                table[key] = table.get(key, 0) + value
    silent = [label for label in must_fire if not calls.get(label)]
    if silent:
        raise SystemExit(f"hooks recorded no call: {', '.join(silent)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "secantlab" / "cli.py").is_file():
        sys.exit(f"error: no secantlab sources under {SRC}")
    # children inherit the core, so host_probe() times the core they run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    build, must_fire = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    instances = build(args.seed, work)
    env = child_env()
    print("environment:", json.dumps(environment(), sort_keys=True))

    runs = Runner(env, work)
    if args.trace:
        traced_wall = sum(runs.run(inst, tracing=True)[0]
                          for inst in instances)
        values = layer_metrics(instances, work, must_fire)
        values["trace.wall_s"] = traced_wall
        metrics = {name: {"value": value,
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in sorted(values.items())}
    else:
        setup_walls, setup_probes = measure_setup(instances, env, work)
        walls = {inst.name: [] for inst in instances}
        probes = {inst.name: [] for inst in instances}
        rss = {inst.name: [] for inst in instances}
        deadline = time.perf_counter() + args.seconds
        for inst in itertools.cycle(instances):
            if time.perf_counter() >= deadline and all(walls.values()):
                break
            probes[inst.name].append(host_probe())
            wall, mb = runs.run(inst)
            walls[inst.name].append(wall)
            rss[inst.name].append(mb)
        values = {"wall_s": sum(scaled_median(walls[name], probes[name])
                                for name in walls),
                  "setup_s": scaled_median(setup_walls, setup_probes),
                  "peak_rss_mb": max(statistics.median(mbs)
                                     for mbs in rss.values()),
                  "ok_frac": 1 - len(runs.failures) / runs.attempted}
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in values.items()}
        for name, ws, ps in [("set-up", setup_walls, setup_probes),
                             *((n, walls[n], probes[n]) for n in walls)]:
            print(f"{name}: walls (s) {[round(w, 3) for w in ws]}, "
                  f"probes (ms) {[round(1000 * p, 1) for p in ps]}")

    for name, problems in runs.failures:
        print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({"correct": not runs.failures,
                      "attempted": runs.attempted,
                      "failed": len(runs.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
