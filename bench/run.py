"""koszulkit benchmark: three workloads, each case a fresh CLI process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a koszulkit checkout.  Workloads:
  sl2_takiff      `check --checks all` on sl2_adjoint_takiff, --max-degree 4
  sweedler_bialg  `check --checks all` on sweedler_optional, --max-degree 5
  koszul_sweep    20 presentations relabelled by the seed (bench/inputs.py),
                  `--checks validate,hilbert,dual,koszul --max-degree 5`

The inputs are set up SETUP_REPEATS times (the median is setup_s); then
whole rounds of the workload's cases run one at a time, closed loop, as
long as another round, timed like the last one, fits in --seconds (at
least one round).  Every report is checked by bench/oracles.py.  A case
whose process ends without a report counts as failed.

--trace 0 prints the end-to-end metrics; --trace 1 runs every case under
bench/spans.py and prints the per-layer metrics instead.  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import inputs
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sl2_takiff", "sweedler_bialg", "koszul_sweep")
SETUP_REPEATS = 11
CASE_LIMIT_S = 170          # a single case longer than this aborts the run

E2E_UNITS = {"verdict_s": "s", "verdict_cpu_s": "s", "cases_per_s": "1/s",
             "peak_rss_mb": "MB", "setup_s": "s"}
GROUPS = {
    # group -> span names; inclusive time counts outermost spans only
    "exactlin.rref": ("exactlin.rref",),
    "exactlin.matmul": ("exactlin.Mat.__matmul__",),
    "exactlin.kron": ("exactlin.kron",),
    "graded.homology": ("graded.homology",),
    "graded.d_squared": ("graded.check_d_squared",),
    "quadratic.grow": ("quadratic.grow",),
    "action.act_on_tensor": ("action.ActionProvider.act_on_tensor",),
    "action.delta_power": ("action.Bialgebra.delta_power",),
    "duality.complex": ("duality.I_complex", "duality.P_complex",
                        "duality.socI_complex", "duality.topP_complex"),
    "duality.identify": ("duality.identify_socI", "duality.identify_topP"),
    "duality.roundtrip": ("duality.roundtrip_A", "duality.roundtrip_B"),
}
GROUP_OF = {name: g for g, names in GROUPS.items() for name in names}
PER_LAYER = [
    "exactlin.self_s", "exactlin.rref.calls", "exactlin.rref.entries",
    "exactlin.matmul.calls", "exactlin.matmul.entries",
    "exactlin.kron.calls", "exactlin.kron.entries",
    "graded.self_s", "graded.homology.calls", "graded.d_squared.calls",
    "quadratic.self_s", "quadratic.grow.s", "quadratic.grow.calls",
    "quadratic.grow.ambient",
    "action.self_s", "action.act_on_tensor.s", "action.act_on_tensor.calls",
    "action.act_on_tensor.entries", "action.delta_power.s",
    "action.delta_power.calls",
    "duality.self_s", "duality.complex.s", "duality.complex.cells",
    "duality.identify.s", "duality.roundtrip.s",
    "cli.self_s",
    "trace.verdict_s", "trace.spans",
]


def layer_unit(metric):
    return "s" if metric.endswith(("_s", ".s")) else "count"


# ---------------------------------------------------------------------------
# one case in a fresh process

class CaseTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CaseTimeout


def run_case(case, workdir, trace_path=None):
    """Run one CLI invocation; returns (wall, cpu, rss_mb, code, report
    or None, last stderr line)."""
    for path in (case.out, trace_path):
        if path and os.path.exists(path):
            os.remove(path)
    argv = [sys.executable, os.path.join(HERE, "case.py")]
    if trace_path:
        argv += ["--trace", trace_path]
    argv += case.argv
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CASE_LIMIT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except CaseTimeout:
            proc.kill()
            proc.wait()
            raise SystemExit("case %s killed after %d s" % (case.name,
                                                           CASE_LIMIT_S))
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    report = None
    if os.path.exists(case.out):
        with open(case.out, encoding="utf-8") as f:
            report = json.load(f)
    with open(err_path, encoding="utf-8", errors="replace") as f:
        lines = f.read().strip().splitlines()
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            code, report, lines[-1] if lines else "")


# ---------------------------------------------------------------------------
# set-up

def make_cases(workload, seed, workdir):
    if workload == "koszul_sweep":
        return inputs.sweep_cases(seed, workdir)
    fixture = inputs.FIXTURES[workload][0]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "case.py"), "fixtures",
         "--name", fixture, "--out-dir", workdir],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, check=True)
    paths = proc.stdout.split()
    return [inputs.fixture_case(workload, workdir, paths)]


def set_up(workload, seed, workdir):
    """Set up SETUP_REPEATS times from scratch; (median seconds, cases)."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        os.makedirs(workdir)
        cases = make_cases(workload, seed, workdir)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), cases


# ---------------------------------------------------------------------------
# spans -> per-layer numbers

def layer_numbers(spans):
    """Per-layer totals of one traced case (see spans.py for the format)."""
    table, names, parent = spans["table"], spans["name"], spans["parent"]
    start, end = spans["start"], spans["end"]
    work = dict(spans["work"])
    out = dict.fromkeys(PER_LAYER, 0)
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    # inside[i]: groups open at span i, itself included
    inside = []
    for i, p in enumerate(parent):
        name = table[names[i]]
        outer = inside[p] if p >= 0 else frozenset()
        g = GROUP_OF.get(name)
        layer = name.split(".", 1)[0]
        out[layer + ".self_s"] += dur[i] - child[i]
        if g is not None:
            if g not in outer and g + ".s" in out:
                out[g + ".s"] += dur[i]
            if g + ".calls" in out:
                out[g + ".calls"] += 1
            for key in (g + ".entries", g + ".ambient", g + ".cells"):
                if key in out:
                    out[key] += work[i]
            outer = outer | {g}
        inside.append(outer)
    out["trace.spans"] = len(dur)
    return out


# ---------------------------------------------------------------------------
# the timed loop

def run(workload, seed, seconds, traced):
    workdir = os.path.join(HERE, "_work", "%s.%d" % (workload, os.getpid()))
    try:
        return measure(workload, seed, seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, seed, seconds, traced, workdir):
    setup_s, cases = set_up(workload, seed, workdir)
    walls, cpus, rss, round_layers = [], [], [], []
    attempted = failed = 0
    total_wall = 0.0
    problems = []
    failures = {}
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        layers = dict.fromkeys(PER_LAYER, 0)
        for case in cases:
            trace_path = (os.path.join(workdir, case.name + ".spans.json")
                          if traced else None)
            wall, cpu, mb, code, report, last = run_case(case, workdir,
                                                         trace_path)
            attempted += 1
            total_wall += wall
            rss.append(mb)
            if traced:
                with open(trace_path, encoding="utf-8") as f:
                    numbers = layer_numbers(json.load(f))
                for m in PER_LAYER:
                    layers[m] += numbers[m]
            if report is None:
                failed += 1
                failures[last] = failures.get(last, 0) + 1
                continue
            walls.append(wall)
            cpus.append(cpu)
            exp = inputs.complete_expectation(case.expect)
            bad = oracles.check_report(report, code, exp)
            if bad:
                problems.append((case.name, bad))
        round_layers.append(layers)
        # start another round only if one more fits in the run
        now = time.perf_counter()
        if now + (now - t_round) - t_start > seconds:
            break
    for last, count in sorted(failures.items()):
        print("failed %d case(s): %s" % (count, last), file=sys.stderr)
    for name, bad in problems[:10]:
        print("INCORRECT %s: %s" % (name, "; ".join(bad)), file=sys.stderr)
    if not walls:
        raise SystemExit("no case of %s completed" % workload)
    correct = not problems
    median = statistics.median
    if traced:
        metrics = {}
        for m in PER_LAYER:
            vals = [r[m] for r in round_layers]
            if layer_unit(m) == "s":
                metrics[m] = median(vals)
            else:
                metrics[m] = vals[0]
                if any(v != vals[0] for v in vals):
                    print("count %s differs between rounds: %r" % (m, vals),
                          file=sys.stderr)
                    correct = False
        metrics["trace.verdict_s"] = median(walls)
    else:
        metrics = {
            "verdict_s": median(walls),
            "verdict_cpu_s": median(cpus),
            "cases_per_s": len(walls) / total_wall,
            "peak_rss_mb": max(rss),
            "setup_s": setup_s,
        }
    units = layer_unit if traced else E2E_UNITS.get
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units(k)}
                        for k, v in metrics.items()}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "koszulkit", "cli.py")):
        print("no koszulkit sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
