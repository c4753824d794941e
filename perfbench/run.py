#!/usr/bin/env python3
"""qftarith benchmark: times CLI operations end to end and checks every result.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Run it from the repository root; NAME is a workload below, or ``all``.  This
process is a closed loop with one client: it starts the next operation only
when the previous one has finished, and at most one simulating child runs
at a time.  Children import ``qftarith`` from this
checkout's ``src`` with BLAS and OpenMP pinned to one thread.  Operands come
from ``--seed``; the program sees only the operands.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  BENCHMARK.json at the repository root names the metrics and
their units.  Each run also writes ``perfbench/results/BENCH_*.json`` with
the environment, every operation and, when traced, every span.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from oracle import Op, check, check_accuracy
from spans import STAGES, Span, self_times, totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10
KERNELS = ("H.c0", "PHASE.c0", "PHASE.c1", "PHASE.c2", "X.cN")

SETUP_PROBE = (
    "import time; t = time.perf_counter(); import qftarith.cli; "
    "t = time.perf_counter() - t; import json, numpy, qftarith; "
    "print(json.dumps({'import_s': t, 'numpy': numpy.__version__, "
    "'qftarith': qftarith.__file__}))"
)


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


# -- workloads -------------------------------------------------------------
# Each yields batches of operations; a run ends only on a batch boundary.


def mul_n5(rng: random.Random):
    """One 21-qubit multiplication per fresh CLI process: the kernels' workload."""
    while True:
        yield [Op("mul", (rng.randrange(32), rng.randrange(32)), 5)]


def mul_all_n3(rng: random.Random):
    """All 64 inputs of the 13-qubit multiplier per batch, in one process:
    build and per-gate dispatch dominate, and inputs share one circuit."""
    pairs = [(x, y) for x in range(8) for y in range(8)]
    while True:
        rng.shuffle(pairs)
        yield [Op("mul", pair, 3) for pair in pairs]


def wide_add_dec(rng: random.Random):
    """A 20-qubit add and a 20-qubit decrement, each in a fresh CLI process:
    wide registers, and none of the multiplier's gates."""
    while True:
        yield [Op("add", (rng.randrange(1 << 10), rng.randrange(1 << 10)), 10),
               Op("dec", (rng.randrange(1 << 20),), 20)]


WORKLOADS = {
    "mul-n5": (mul_n5, "process"),
    "mul-all-n3": (mul_all_n3, "inprocess"),
    "wide-add-dec": (wide_add_dec, "process"),
}


# -- child processes ---------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(cmd: list[str]) -> tuple[int, str, float, int]:
    """Run one child to completion: (exit code, stdout, wall s, peak RSS KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage.ru_maxrss


def parse_reply(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise BenchmarkError(f"worker gave no reply (see its stderr): {text[-200:]!r}")


class ProcessExecutor:
    """A fresh interpreter per operation, as a CLI user pays for it."""

    def __init__(self):
        self.peak_rss_kib = 0

    def run(self, mode: str, op: Op) -> tuple[float, dict]:
        if mode == "plain":
            rc, out, wall, rss = spawn([sys.executable, "-m", "qftarith", *op.argv()])
            self.peak_rss_kib = max(self.peak_rss_kib, rss)
            return wall, {"rc": rc, "stdout": out}
        rc, out, wall, _ = spawn([sys.executable, str(WORKER), mode, *op.argv()])
        if rc != 0:
            raise BenchmarkError(f"worker exited {rc} on {op.argv()}")
        return wall, parse_reply(out)

    def close(self) -> int:
        return self.peak_rss_kib


class InProcessExecutor:
    """One worker process that calls ``qftarith.cli.main`` for every operation."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(WORKER)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                                     text=True)

    def run(self, mode: str, op: Op) -> tuple[float, dict]:
        timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            self.proc.stdin.write(json.dumps({"mode": mode, "argv": op.argv()}) + "\n")
            self.proc.stdin.flush()
            reply = parse_reply(self.proc.stdout.readline())
        except BrokenPipeError:
            raise BenchmarkError("worker died (see its stderr)")
        finally:
            timer.cancel()
        return reply["elapsed"], reply

    def close(self) -> int:
        try:
            self.proc.stdin.close()
            self.proc.stdout.read()
        except BrokenPipeError:
            pass
        timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
            self.proc.stdout.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss


# -- environment and set-up --------------------------------------------------


def setup_probe() -> dict:
    """Time a fresh interpreter's import of ``qftarith.cli``, several times."""
    probes = []
    for _ in range(SETUP_PROBES):
        rc, out, _, _ = spawn([sys.executable, "-c", SETUP_PROBE])
        if rc != 0:
            raise BenchmarkError(f"importing qftarith.cli failed (exit {rc})")
        probes.append(json.loads(out))
    if not Path(probes[0]["qftarith"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"qftarith imported from {probes[0]['qftarith']}, not {SRC}")
    return {"setup_s": statistics.median(p["import_s"] for p in probes),
            "import_s": [p["import_s"] for p in probes],
            "numpy": probes[0]["numpy"]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level) and \
                    (index / "type").read_text().strip() in ("Unified", "Data"):
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return result.stdout.strip() or "unknown"


def environment(numpy_version: str) -> dict:
    env = child_env()
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "l2_cache": cache_size(2),
        "l3_cache": cache_size(3),
        "thread_vars": {var: env[var] for var in THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


# -- measurement -------------------------------------------------------------


def run_op(executor, op: Op, op_id: int, trace: bool) -> dict:
    latency, reply = executor.run("plain", op)
    record = {"op": op_id, "argv": op.argv(), "latency_s": latency,
              "problems": check(op, reply["rc"], reply["stdout"])}
    if not trace:
        return record
    latency, traced = executor.run("trace", op)
    _, replayed = executor.run("replay", op)
    record["trace_latency_s"] = latency
    record["problems"] += check(op, traced["rc"], traced["stdout"])
    record["problems"] += [f"replay: {p}" for p in check(op, replayed["rc"], replayed["stdout"])]
    if "accuracy" in traced:
        record["accuracy"] = traced["accuracy"]
        record["problems"] += check_accuracy(**traced["accuracy"])
    record["spans"] = [{**span, "op": op_id} for span in traced["spans"]]
    record.update((key, replayed[key]) for key in ("kernels", "gates", "state_bytes")
                  if key in replayed)
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], float, int]:
    """Run whole batches until ``seconds`` have passed: (records, window s, peak RSS KiB)."""
    make_batches, mode = WORKLOADS[workload]
    batches = make_batches(random.Random(seed))
    executor = InProcessExecutor() if mode == "inprocess" else ProcessExecutor()
    records: list[dict] = []
    try:
        start = time.perf_counter()
        while not records or time.perf_counter() - start < seconds:
            for op in next(batches):
                records.append(run_op(executor, op, len(records), trace))
        window = time.perf_counter() - start
    finally:
        peak = executor.close()
    return records, window, peak


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return None
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / len(ordered),
            "samples": len(ordered)}


def end_to_end(records: list[dict], window: float, peak_kib: int, setup_s: float) -> dict:
    passed = sum(1 for r in records if not r["problems"])
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(r["latency_s"] for r in records),
        "ops_per_s": passed / window,
        "peak_rss_mb": peak_kib / 1024,
    }


def layer_values(record: dict) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    spans = [Span(**s) for s in record["spans"]]
    spent = totals(spans)
    own = totals(spans, self_times(spans))
    kernels = record["kernels"]
    v: dict[str, float] = {}
    for key in KERNELS:
        seconds, calls, _ = kernels.get(key, (0.0, 0, 0))
        v[f"qstate.kernel.{key}_s"] = seconds
        v[f"qstate.kernel.{key}_calls"] = calls
    v["qstate.kernel_s"] = sum(k[0] for k in kernels.values())
    v["qstate.bytes_touched"] = sum(k[2] for k in kernels.values())
    v["qstate.state_bytes"] = record["state_bytes"]
    v["qstate.alloc_s"] = spent.get("qstate.alloc", 0.0)
    v["qstate.readout_s"] = spent.get("qstate.readout", 0.0)
    v["circuit.run_s"] = spent["circuit.run"]
    for stage in STAGES:
        v[f"circuit.run.{stage}_s"] = spent.get(f"circuit.run.{stage}", 0.0)
    v["circuit.dispatch_s"] = v["circuit.run_s"] - v["qstate.kernel_s"]
    v["circuit.gates"] = record["gates"]
    v["multiplier.build_s"] = spent.get("multiplier.build", 0.0)
    v["arith.build_s"] = spent.get("arith.build", 0.0)
    v["cli.self_s"] = own["cli.main"]
    return v


def per_layer(records: list[dict]) -> dict:
    """Mean per operation of each layer figure; accuracy is the worst operation."""
    passed = [r for r in records if not r["problems"]]
    if not passed:
        raise BenchmarkError("no traced operation passed its checks")
    values = [layer_values(r) for r in passed]
    out = {name: statistics.fmean(v[name] for v in values) for name in values[0]}
    for name in ("norm_drift", "off_basis_mass"):
        out[f"qstate.{name}"] = max(r["accuracy"][name] for r in records if "accuracy" in r)
    out["trace.overhead_s"] = (statistics.median(r["trace_latency_s"] for r in records)
                               - statistics.median(r["latency_s"] for r in records))
    return out


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = setup_probe()
    records, window, peak = measure(workload, seed, seconds, trace)
    computed = per_layer(records) if trace else end_to_end(records, window, peak, setup["setup_s"])
    units = declared_metrics(trace)
    if set(units) != set(computed):
        raise BenchmarkError(f"BENCHMARK.json and the benchmark disagree on metrics: "
                             f"{sorted(set(units) ^ set(computed))}")
    failed = sum(1 for r in records if r["problems"])
    latencies = [r["latency_s"] for r in records]
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": computed[name], "unit": unit} for name, unit in units.items()},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "samples": len(records), "window_s": window, "fail_ratio": failed / len(records),
        "op_tail_s": tail(latencies), "setup_import_s": setup["import_s"],
        "environment": environment(setup["numpy"]), "result": result, "operations": records,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"BENCH_{workload}_seed{seed}{'_trace' if trace else ''}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload}  seed {seed}  ops {len(records)}  failed {failed}  "
          f"window {window:.2f} s  {'traced' if trace else 'untraced'}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    t = report["op_tail_s"]
    print(f"  {'op_tail_s':32s} " + (f"{t['value']:.6g} s (p{t['percentile']:.1f} of {t['samples']})"
                                     if t else f"n/a (needs > {TAIL_BEYOND} ops)"))
    print(f"  {'fail_ratio':32s} {report['fail_ratio']:.6g} ({failed}/{len(records)})")
    for r in records:
        if r["problems"]:
            print(f"  FAILED {' '.join(r['argv'])}: {'; '.join(r['problems'])}")
    print(f"  results: {path.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qftarith" / "__init__.py").is_file():
        print(f"error: no qftarith sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
