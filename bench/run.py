"""End-to-end and per-layer benchmark of the optomech CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, one summary each
    python3 bench/run.py --self-test         # check the tracing shim

Run from the root of a source checkout; the package is imported from
``src/``. A workload (see workloads.py) is a seeded list of CLI commands,
run one after another as fresh ``python -m optomech.cli`` processes: a
closed loop with one client, so interpreter start and import are counted.

With ``--trace 0`` a run times ``--help`` (set-up), then repeats passes
over the command list while one more fits in ``--seconds`` (at least one
pass) and sums each command's median over the passes. With ``--trace 1`` it runs one
untraced pass, then one pass with every command under trace_shim.py, and
reports per-layer metrics. Every command's output is checked after each
pass, outside the timed region. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIM = BENCH / "trace_shim.py"
SETUP_SAMPLES = 6
E2E_METRICS = ("job_s", "setup_s", "cpu_s", "peak_rss_mb")
MB = 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class CommandRun:
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    code: int


@dataclass
class Pass:
    job_s: float
    runs: list
    failures: list = field(default_factory=list)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.maxrss_kib for r in self.runs) / MB


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OPTOMECH_CACHE_DIR", None)  # its keys ignore the tolerance profile
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, workdir: Path, log: Path) -> CommandRun:
    """Run one process to completion; wall time and its own rusage."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                      proc.returncode)


def cli_argv(args) -> list:
    return [sys.executable, "-m", "optomech.cli", *args]


def run_pass(commands, workdir: Path, trace_dir: Path | None = None) -> Pass:
    for cmd in commands:
        cmd.out.unlink(missing_ok=True)
    runs = []
    start = time.perf_counter()
    for i, cmd in enumerate(commands):
        if trace_dir is None:
            argv = cli_argv(cmd.argv)
        else:
            argv = [sys.executable, str(SHIM), str(trace_dir / f"{i}.json"),
                    "--", *cmd.argv]
        runs.append(run_child(argv, workdir, workdir / f"{cmd.label}.log"))
    result = Pass(time.perf_counter() - start, runs)
    for cmd, run in zip(commands, runs):
        try:
            problem = cmd.check(run.code, cmd.out)
        except Exception as exc:  # a malformed or missing output fails the command
            problem = f"check raised {exc!r}"
        if problem:
            log = (workdir / f"{cmd.label}.log").read_text(errors="replace")
            last = (log.strip().splitlines() or [""])[-1]
            result.failures.append(f"{cmd.label}: {problem}"
                                   + (f" [{last}]" if last else ""))
    return result


def median(values) -> float:
    return float(statistics.median(values))


def timed_passes(commands, workdir: Path, seconds: float) -> list:
    """Passes while the next one, as long as the last, still ends within
    ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while (not passes
           or time.perf_counter() - start + passes[-1].job_s <= seconds):
        passes.append(run_pass(commands, workdir))
    return passes


def per_command_median(passes, attr: str) -> float:
    """Sum over the command list of each command's median over passes.

    A burst of load on the shared host slows one or two commands of a
    pass; the per-command median drops it where a median of pass totals
    would keep it whenever it hits most passes.
    """
    return sum(median([getattr(p.runs[i], attr) for p in passes])
               for i in range(len(passes[0].runs)))


def merge_traces(trace_dir: Path) -> dict:
    spans, counts = {}, {}
    for path in sorted(trace_dir.glob("*.json")):
        data = json.loads(path.read_text())
        for name, values in data["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += values[k]
        for name, value in data["counts"].items():
            if name == "cfi_homodyne.u_peak_bytes":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}


def layer_metrics(trace: dict, untraced: list, traced: Pass, commands) -> dict:
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    import workloads
    from trace_shim import COUNTS, SPANS
    walls = {cmd.label: median([p.runs[i].wall_s for p in untraced])
             for i, cmd in enumerate(commands)}
    for label in workloads.COMMAND_LABELS:
        put(f"cli.{label}.wall_s", walls.get(label, 0.0), "s")
    for name in SPANS:
        calls, busy, self_time = trace["spans"].get(name, (0, 0.0, 0.0))
        put(f"{name}.calls", calls, "count")
        put(f"{name}.busy_s", busy, "s")
        put(f"{name}.self_s", self_time, "s")
    for name in COUNTS:
        unit = "B" if name.endswith("bytes_computed") or name.endswith("_bytes") else "count"
        put(name, trace["counts"].get(name, 0), unit)
    lookups = trace["spans"].get("f_closed_form", (0,))[0]
    misses = trace["counts"].get("f_closed_form.misses", 0)
    put("coefficients.catalog_hit_ratio",
        (lookups - misses) / lookups if lookups else 0.0, "ratio")
    put("trace.overhead_s", traced.job_s - median([p.job_s for p in untraced]), "s")
    return metrics


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs",
                                      "libscipy_openblas*.so")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (Path(index, f).read_text().strip()
                             for f in ("level", "type", "size"))
        caches[f"L{level}{kind[0].lower()}"] = size
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "caches": caches, "machine": platform.machine()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    import workloads
    commands = workloads.build(name, seed, workdir)

    def start_ups(n: int) -> list:
        return [run_child(cli_argv(["--help"]), workdir, workdir / "help.log").wall_s
                for _ in range(n)]

    # the first start-up fills the OS file cache and the bytecode cache and
    # is discarded: every command is a fresh process, so no other state
    # carries over between passes. Set-up samples are split before and
    # after the passes so that they see the same machine load.
    start_ups(1)
    setup = [] if trace else start_ups(SETUP_SAMPLES // 2)
    # a traced run needs one untraced pass, for the per-command walls and
    # the tracing overhead
    passes = timed_passes(commands, workdir, 0 if trace else seconds)
    if not trace:
        setup += start_ups(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    measured = list(passes)
    if trace:
        trace_dir = workdir / "trace"
        trace_dir.mkdir()
        traced = run_pass(commands, workdir, trace_dir)
        measured.append(traced)
        metrics = layer_metrics(merge_traces(trace_dir), passes, traced, commands)
    else:
        metrics = {
            "job_s": {"value": per_command_median(passes, "wall_s"), "unit": "s"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "cpu_s": {"value": per_command_median(passes, "cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": median([p.peak_rss_mb for p in passes]),
                            "unit": "MB"},
        }
    attempted = sum(len(p.runs) for p in measured)
    failures = [f for p in measured for f in p.failures]
    return {"name": name, "passes": len(passes), "setup_samples": len(setup),
            "commands": [c.label for c in commands], "attempted": attempted,
            "failures": failures, "metrics": metrics}


def print_summary(result: dict):
    name, n = result["name"], result["passes"]
    print(f"== {name}: {n} pass(es) of {len(result['commands'])} commands "
          f"({', '.join(result['commands'])})")
    for metric, entry in result["metrics"].items():
        line = f"  {metric:<40} {entry['value']:>16.6g} {entry['unit']:<6}"
        if metric in E2E_METRICS:
            samples = result["setup_samples"] if metric == "setup_s" else n
            line += f" median of {samples}"
        print(line)
    failed = len(result["failures"])
    print(f"  {'fail_ratio':<40} {failed / result['attempted']:>16.6g} ratio  "
          f"{failed} of {result['attempted']} commands")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def self_test(workdir: Path) -> int:
    """A traced 201-point catalog-hit nongauss: exact counts, twice."""
    import workloads
    commands = [c for c in workloads.build("hit-cli", 0, workdir)
                if c.label == "nongauss"]
    seen = []
    for attempt in range(2):
        trace_dir = workdir / f"self-test-{attempt}"
        trace_dir.mkdir()
        result = run_pass(commands, workdir, trace_dir)
        if result.failures:
            print(f"self-test: command failed: {result.failures}")
            return 1
        trace = merge_traces(trace_dir)
        seen.append(({k: v[0] for k, v in trace["spans"].items()}, trace["counts"]))
    calls, counts = seen[0]
    ok = (calls.get("report") == workloads.GRID_STEPS
          and calls.get("f_closed_form") == workloads.GRID_STEPS
          and counts.get("f_closed_form.misses", 0) == 0
          and seen[0] == seen[1])
    print(f"self-test {'ok' if ok else 'FAILED'}: calls {calls}, counts {counts}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is stopped and the
    # scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "optomech" / "cli.py").is_file():
        print(f"error: no optomech sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {list(workloads.WORKLOADS)} or all")

    base = ROOT / ".bench_tmp" / str(os.getpid())
    base.mkdir(parents=True)
    try:
        if args.self_test:
            return self_test(base)
        print(f"# env: {json.dumps(environment(), sort_keys=True)}")
        results = []
        for name in names:
            workdir = base / name
            workdir.mkdir()
            results.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), workdir))
            print_summary(results[-1])
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['name']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    failed = sum(len(r["failures"]) for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
