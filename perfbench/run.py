"""silting-forge benchmark runner (standard library only).

Run from the root of a checkout:

    python3 perfbench/run.py --workload suites --seed 1 --seconds 25 --trace 0

Workloads: ``suites``, ``odd-fields`` and ``cli`` (see ``NOTES.md`` for why
each exists and what each metric should move).  The runner never imports
``silting_forge``: it starts one fresh interpreter at a time, hands it only
the inputs made from ``--seed``, checks every answer, and prints one JSON
object as the last line of standard output.

``--trace 0`` reports the end-to-end metrics with tracing off.  Its times are
reference seconds (``hook/refclock.py``): wall time scaled by the host's speed
as sampled inside each child, so that a host that slows down for a while does
not read as a slower program.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics
listed in ``BENCHMARK.json``, plus ``trace_overhead_ratio``; it also checks
that tracing changed no answer.  Details of every run, with the environment
and sample counts, go to ``.perfbench_out/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cliscript

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suites", "odd-fields", "cli")
SETUP_SAMPLES = 5  # set-up children before the passes, and as many after them
RUN_LIMIT_S = 170.0  # children still running then are killed: the run must end within 180 s


class ChildFailed(Exception):
    pass


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, trace: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.work = Path(".perfbench_out") / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs = self.work / "inputs"
        # ``hook`` holds the sitecustomize that starts the reference clock.
        path = os.pathsep.join([str(root / "src"), str(HERE / "hook")])
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path)
        self.env.pop("SILTING_FORGE_CACHE", None)
        self.env.pop("PERFBENCH_REFCLOCK", None)
        self.refclock = not trace  # traced children time with perf_counter
        self.ref_s = 0.0
        self.work_s = 0.0
        self.children = 0
        self.peak_rss_mb = 0.0
        self.passes = 0
        self.attempted = 0
        # One entry per failed operation, keyed by (pass, kind): an operation
        # that fails two checks still counts once.
        self.failures: dict[tuple[int, str], str] = {}

    def fail(self, kind: str, reason: str):
        self.failures.setdefault((self.passes, kind), reason)

    # -- processes --------------------------------------------------------
    def spawn(self, argv: list[str]) -> tuple[int, float | None, Path]:
        """Run one child to completion; return (exit code, seconds, stdout file).

        The seconds are the runner's wall time around the whole process,
        scaled to reference seconds by the child's clock when it runs, and
        None when a child that should have run the clock wrote none.
        ``os.wait4`` gives the child's own peak RSS.  A timer kills a child
        that would overrun the run's time limit."""
        self.children += 1
        stdout = self.work / f"child{self.children}.out"
        clock_file = self.work / f"child{self.children}.clock.json"
        env = dict(self.env, PERFBENCH_REFCLOCK=str(clock_file)) if self.refclock else self.env
        with open(stdout, "wb") as out, open(self.work / f"child{self.children}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=self.root)
            signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, max(self.time_left(), 0.001))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        if self.refclock and clock_file.exists():
            clock = json.loads(clock_file.read_text())
            self.ref_s += clock["ref_s"]
            self.work_s += clock["work_s"]
            # Start-up before the clock and exit after it run at the
            # process's average speed; the sampler's own time is left out.
            wall = (wall - clock["handler_s"]) * clock["ref_s"] / clock["work_s"]
        elif self.refclock:
            wall = None
        return proc.returncode, wall, stdout

    def child(self, role: str, trace: int = 0) -> dict:
        out = self.work / f"{role}{self.children + 1}.json"
        code, _, _ = self.spawn([
            sys.executable, str(HERE / "child.py"), role, "--workload", self.workload,
            "--seed", str(self.seed), "--inputs", str(self.inputs), "--trace", str(trace),
            "--out", str(out),
        ])
        if code != 0 or not out.exists():
            raise ChildFailed(f"{role} child exited with {code}; see {self.work}")
        return json.loads(out.read_text())

    # -- passes -----------------------------------------------------------
    def run_pass(self, trace: int) -> dict:
        """One pass over the workload: {kind: (seconds, answer)} plus traces."""
        self.passes += 1
        if self.workload == "cli":
            return self._cli_pass(trace)
        try:
            result = self.child("pass", trace)
        except ChildFailed as exc:
            self.attempted += 1
            self.fail("pass child", str(exc))
            return {"ops": {}, "traces": [], "import_s": []}
        ops = {}
        for op in result["ops"]:
            self.attempted += 1
            if op["error"]:
                self.fail(op["kind"], op["error"])
            ops[op["kind"]] = (op["seconds"], op["answer"])
        traces = [result["trace"]] if trace else []
        return {"ops": ops, "traces": traces, "import_s": [result["import_s"]]}

    def _cli_pass(self, trace: int) -> dict:
        ops, traces, import_s = {}, [], []
        for kind, argv, check in cliscript.script(str(self.inputs)):
            self.attempted += 1
            trace_out = self.work / f"trace{self.children + 1}.json"
            if trace:
                cmd = [sys.executable, str(HERE / "child.py"), "cli", "--out", str(trace_out), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "silting_forge.cli", *argv]
            code, seconds, stdout = self.spawn(cmd)
            text = stdout.read_text()
            try:
                reason = f"exit code {code}" if code >= 3 or code < 0 else check(json.loads(text), code)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
            if seconds is None:
                reason = reason or "exited without writing its reference clock"
            else:
                ops[kind] = (seconds, text)
            if reason:
                self.fail(kind, reason)
            if trace and trace_out.exists():
                summary = json.loads(trace_out.read_text())
                traces.append(summary["trace"])
                import_s.append(summary["import_s"])
        return {"ops": ops, "traces": traces, "import_s": import_s}

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()


def _same_answers(bench: Bench, first: dict, second: dict, label: str):
    """Fail each operation of the latest pass whose answer differs from ``first``."""
    for kind, (_, answer) in second.items():
        if kind in first and first[kind][1] != answer:
            bench.fail(kind, f"answer differs between {label}")


def measure(bench: Bench, seconds: int) -> tuple[dict, dict]:
    """Untraced run: whole passes until ``seconds`` is used, with set-up
    samples before and after them."""
    bench.child("setup")  # discarded: it pays for compiling the bytecode
    setups = [bench.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    samples: dict[str, list] = {}
    first: dict = {}
    pass_walls = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        result = bench.run_pass(trace=0)
        pass_walls.append(time.perf_counter() - t)
        if first:
            _same_answers(bench, first, result["ops"], "passes")
        else:
            first = result["ops"]
        for kind, (secs, _) in result["ops"].items():
            samples.setdefault(kind, []).append(secs)
        estimate = statistics.median(pass_walls)
        if time.perf_counter() - start + estimate > seconds or estimate > bench.time_left() - 5:
            break
    # The host's speed shifts over seconds; samples from both ends of the run
    # see more than one speed.
    setups += [bench.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    per_kind = {kind: statistics.median(v) for kind, v in samples.items()}
    if not per_kind:
        raise ChildFailed("no operation completed")
    metrics = {
        "pass_s": sum(per_kind.values()),
        "peak_rss_mb": bench.peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    details = {
        "passes": len(pass_walls),
        "pass_wall_s": statistics.median(pass_walls),
        "host_speed": bench.ref_s / bench.work_s,
        "setup_samples": setups,
        "per_kind_median_s": per_kind,
        "parts": _parts(bench.workload, per_kind),
    }
    return metrics, details


def _parts(workload: str, per_kind: dict) -> dict:
    """The per-part numbers named by the workload design, from the kind medians."""
    if workload == "suites":
        return {f"{kind}_s": secs for kind, secs in per_kind.items()}
    if workload == "odd-fields":
        return {
            "f3_s": sum(s for k, s in per_kind.items() if k.startswith("f3.")),
            "q_s": sum(s for k, s in per_kind.items() if k.startswith("q.")),
        }
    return {
        "cli_s": sum(per_kind.values()),
        "cli_cmd_p50_ms": statistics.median(per_kind.values()) * 1000,
    }


def _merge_traces(traces: list) -> dict:
    per_name: dict = {}
    counters: dict = {}
    checks = 0
    for trace in traces:
        for name, entry in trace["per_name"].items():
            slot = per_name.setdefault(name, {"calls": 0, "self_s": 0.0})
            slot["calls"] += entry["calls"]
            slot["self_s"] += entry["self_s"]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        checks += trace["checks_in_enumeration"]
    return {"per_name": per_name, "counters": counters, "checks_in_enumeration": checks}


def layer_value(name: str, merged: dict, extra: dict):
    if name in extra:
        return extra[name]
    base, _, field = name.rpartition(".")
    if field in ("calls", "self_s"):
        return merged["per_name"].get(base, {}).get(field, 0)
    return merged["counters"].get(name, 0)


def measure_traced(bench: Bench, names: list) -> tuple[dict, dict]:
    """One untraced and one traced pass: per-layer numbers and tracing cost."""
    bench.child("setup")  # compiles the bytecode and writes the cli workload's input files
    plain = bench.run_pass(trace=0)
    traced = bench.run_pass(trace=1)
    _same_answers(bench, plain["ops"], traced["ops"], "traced and untraced passes")
    merged = _merge_traces(traced["traces"])
    enumerated = merged["counters"].get("silting.enumerate_silting.results", 0)
    checks = merged["checks_in_enumeration"]
    plain_s = sum(s for s, _ in plain["ops"].values())
    traced_s = sum(s for s, _ in traced["ops"].values())
    extra = {
        "silting.check_yield": enumerated / checks if checks else 0.0,
        "cli.import_s": statistics.median(traced["import_s"]) if traced["import_s"] else 0.0,
        "trace_overhead_ratio": traced_s / plain_s if plain_s else 0.0,
    }
    metrics = {name: layer_value(name, merged, extra) for name in names}
    return metrics, {"untraced_pass_s": plain_s, "traced_pass_s": traced_s, "trace": merged}


# -- environment -----------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "sympy_found": importlib.util.find_spec("sympy") is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "silting_forge" / "__init__.py").is_file():
        print("perfbench: run from the root of a silting-forge checkout (src/ not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    bench = Bench(root, args.workload, args.seed, args.trace)
    try:
        if args.trace:
            metrics, details = measure_traced(bench, list(units))
        else:
            metrics, details = measure(bench, args.seconds)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failed = len(bench.failures)
    failures = [f"pass {n} {kind}: {reason}" for (n, kind), reason in sorted(bench.failures.items())]
    details.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        attempted=bench.attempted,
        failed=failed,
        fail_ratio=failed / bench.attempted,
        failures=failures,
        environment=environment(root),
    )
    (bench.work / "result.json").write_text(json.dumps(details, indent=2, sort_keys=True))
    summary = {k: details[k] for k in ("passes", "pass_wall_s", "host_speed", "parts", "fail_ratio", "environment") if k in details}
    if args.trace:
        summary["trace_overhead_ratio"] = metrics["trace_overhead_ratio"]
    print(json.dumps(summary, sort_keys=True))
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
