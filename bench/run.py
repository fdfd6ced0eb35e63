"""gaborlab benchmark: real CLI invocations, gated, timed end to end and traced.

    python3 bench/run.py --workload frame-build|frame-verify|suites \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from any directory; the program is taken from `src/` of the checkout
that holds this file, and every file the run writes goes to
`.bench_work/<workload>/` there.

With `--trace 0` the run measures:

* `setup_s`: median time from spawning a fresh interpreter to the end of
  `import gaborlab.cli`, over several spawns;
* `wall_s`: median time of one pass of the workload's fixed command list,
  each command a subprocess timed from spawn to exit; passes repeat for
  `--seconds` (at least MIN_PASSES of them);
* `peak_rss_mb`: median over passes of the largest peak resident set of any
  command in the pass, from the `os.wait4` rusage of each child.

With `--trace 1` it runs one untimed subprocess pass for the per-command
figures, then calls `gaborlab.cli.main` in-process for each command: one
pass untraced and two passes with `spans.install` wrappers.  It reports the
per-layer metrics, the tracing overhead, and fails unless every count
repeats exactly between the two traced passes.

Every command passes the gate in `gate.py` and must produce the same metric
block in every pass of a run, traced or not.  On frame-build the written
generic and one geometric frame are re-checked by the exact oracle in
`oracle.py` after the passes.  The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import gate
import oracle
import workloads
from workloads import Command

MIN_PASSES = 3
SETUP_SPAWNS = 7
ORACLE_FRAMES = ("build_p4_504_generic", "build_p5_K3")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
IMPORT_PROBE = "import time, gaborlab.cli; print(time.monotonic_ns())"
CLI_ENTRY = "import sys; from gaborlab.cli import main; sys.exit(main())"


@dataclass
class Outcome:
    seconds: float
    rss_mb: float  # peak resident set in MiB (2^20 bytes)
    code: int
    stderr: str


class Run:
    """One benchmark run: its checkout, work directory and gate tally."""

    def __init__(self, root: Path, workload: str):
        self.root = root
        self.src = root / "src"
        self.work = root / ".bench_work" / workload
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(self.src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.attempted = 0
        self.failures: List[str] = []
        self.blocks: Dict[str, str] = {}

    def tally(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))

    def gate(self, cmd: Command, outcome: Outcome, pass_name: str) -> None:
        problems, block = gate.check(cmd, outcome.code, outcome.stderr)
        if block is not None and self.blocks.setdefault(cmd.label, block) != block:
            problems.append("metric block differs from the first pass")
        self.tally(f"{pass_name} {cmd.label}", problems)

    def spawn(self, cmd: Command) -> Outcome:
        for path in cmd.outputs:
            path.unlink(missing_ok=True)
        with open(self.work / "stderr.txt", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", CLI_ENTRY, *cmd.argv], cwd=self.root,
                                    env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return Outcome(seconds, usage.ru_maxrss / 1024, proc.returncode, err.read())

    def subprocess_pass(self, commands: List[Command], pass_name: str) -> Dict[str, Outcome]:
        outcomes = {}
        for cmd in commands:
            outcomes[cmd.label] = self.spawn(cmd)
            self.gate(cmd, outcomes[cmd.label], pass_name)
        return outcomes

    def setup_seconds(self) -> List[float]:
        """Spawn-to-end-of-import times of fresh interpreters (after one warm-up)."""
        times = []
        for _ in range(SETUP_SPAWNS + 1):
            start = time.monotonic_ns()
            done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=self.root,
                                  env=self.env, capture_output=True, text=True, check=True)
            times.append((int(done.stdout.strip()) - start) / 1e9)
        return times[1:]


def inprocess(cmd: Command, main, rec=None) -> Outcome:
    """Call gaborlab.cli.main for one command; with rec, under a root span."""
    for path in cmd.outputs:
        path.unlink(missing_ok=True)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    root = rec.name_id(f"cli.{cmd.label}") if rec is not None else None
    start = time.perf_counter()
    span = rec.open(root) if rec is not None else None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(cmd.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed command, not a failed benchmark
            traceback.print_exc()
            code = 1
    if rec is not None:
        rec.close(span)
    return Outcome(time.perf_counter() - start, 0.0, code, err.getvalue())


def median_by_label(passes: List[Dict[str, Outcome]], field: str) -> Dict[str, float]:
    return {label: statistics.median(getattr(p[label], field) for p in passes)
            for label in passes[0]}


def tail(values: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"none: {n} samples, a percentile needs ten beyond it (max {max(values):.4f} s)"
    i = n - 11  # sorted index with exactly ten samples above it
    return f"p{100 * (i + 1) // n} = {sorted(values)[i]:.4f} s ({n} samples)"


def environment(root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown: not a git checkout"


def command_table(run: Run, commands: List[Command], seconds: Dict[str, float],
                  rss: Dict[str, float]) -> List[dict]:
    """Per-command medians; on frame-build the rungs of the scaling table."""
    rows = []
    for cmd in commands:
        row = {"label": cmd.label, "s": seconds[cmd.label], "rss_mb": rss[cmd.label]}
        if cmd.frame_out is not None:
            frame = json.loads(cmd.frame_out.read_text())
            row["total"] = sum(frame["plan"]["sizes"])
            row["translate_bits_max"] = max(abs(tn).bit_length()
                                            for (tn, _td), _s in frame["selection"])
        rows.append(row)
    return rows


def check_oracle(run: Run, commands: List[Command]) -> List[str]:
    """Oracle verdicts on the written frames, compared with the program's certificate."""
    lines = []
    problems = oracle.selftest()
    run.tally("oracle self-test", problems)
    lines.append(f"oracle self-test (item-4 reproducer flagged): {'ok' if not problems else problems}")
    by_label = {c.label: c for c in commands}
    for label in ORACLE_FRAMES:
        cmd = by_label[label]
        try:
            frame = json.loads(cmd.frame_out.read_text())
            claimed = json.loads(cmd.out.read_text())["assertions"]
        except (OSError, ValueError, KeyError) as exc:
            run.tally(f"oracle {label}", [f"frame or report unreadable: {exc}"])
            continue
        disjoint, clear, detail = oracle.certify_frame_json(frame)
        agree = (disjoint == claimed.get("difference_sets_disjoint")
                 and clear == claimed.get("difference_sets_clear_of_base"))
        run.tally(f"oracle {label}", [] if agree else [
            f"oracle says disjoint={disjoint} clear={clear} ({detail}), program says "
            f"{claimed.get('difference_sets_disjoint')}/{claimed.get('difference_sets_clear_of_base')}"])
        lines.append(f"oracle {label}: disjoint={disjoint} clear={clear}, "
                     f"{'agrees with' if agree else 'DISAGREES with'} the program")
    return lines


def timed(run: Run, commands: List[Command], seconds: int) -> dict:
    setup = run.setup_seconds()
    passes: List[Dict[str, Outcome]] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run.subprocess_pass(commands, f"pass {len(passes) + 1}"))
    pass_s = [sum(o.seconds for o in p.values()) for p in passes]
    pass_rss = [max(o.rss_mb for o in p.values()) for p in passes]
    return {
        "metrics": {"setup_s": statistics.median(setup), "wall_s": statistics.median(pass_s),
                    "peak_rss_mb": statistics.median(pass_rss)},
        "detail": {"setup_s": setup, "pass_s": pass_s, "pass_peak_rss_mb": pass_rss,
                   "passes": len(passes), "wall_s_tail": tail(pass_s)},
        "commands": command_table(run, commands, median_by_label(passes, "seconds"),
                                  median_by_label(passes, "rss_mb")),
        "samples": {c.label: [p[c.label].seconds for p in passes] for c in commands},
    }


def traced(run: Run, commands: List[Command]) -> dict:
    import spans

    run.tally("self-time self-test", spans.selftest())
    once = run.subprocess_pass(commands, "untraced subprocess pass")
    sys.path.insert(0, str(run.src))
    import gaborlab.cli

    if not Path(gaborlab.cli.__file__).resolve().is_relative_to(run.src.resolve()):
        raise RuntimeError(f"gaborlab imported from {gaborlab.cli.__file__}, not {run.src}")
    main = gaborlab.cli.main

    def inprocess_pass(name: str, rec=None) -> float:
        total = 0.0
        for cmd in commands:
            outcome = inprocess(cmd, main, rec)
            run.gate(cmd, outcome, name)
            total += outcome.seconds
        return total

    untraced_s = inprocess_pass("in-process untraced pass")
    recorders, traced_s = [], []
    for k in (1, 2):
        rec = spans.Recorder()
        uninstall = spans.install(rec)
        try:
            traced_s.append(inprocess_pass(f"traced pass {k}", rec))
        finally:
            uninstall()
        rec.save(run.work / f"trace_{k}.npz")
        recorders.append(rec)
    first, second = (spans.summarize(r) for r in recorders)
    differ = sorted(k for k in first["counts"].keys() | second["counts"].keys()
                    if first["counts"].get(k) != second["counts"].get(k))
    run.tally("counts repeat across traced passes",
              [f"{k}: {first['counts'].get(k)} != {second['counts'].get(k)}" for k in differ])
    overhead = statistics.median(traced_s) / untraced_s - 1.0
    labels = {c.label for c in commands}
    metrics, absent = {}, {}
    for label in workloads.all_labels():
        for suffix, unit, field in ((".s", "s", "seconds"), (".rss_mb", "MB", "rss_mb")):
            name = f"cli.{label}{suffix}"
            metrics[name] = (getattr(once[label], field) if label in labels else 0.0, unit)
            if label not in labels:
                absent[name] = "command not in this workload"
    for name in (*spans.SPAN_METRICS, *spans.COUNTER_METRICS):
        if name.endswith(".self_s"):
            value = statistics.mean(spans.layer_value(s, name) for s in (first, second))
            calls = spans.layer_value(first, name[: -len(".self_s")] + ".calls")
        else:
            value = calls = spans.layer_value(first, name)
        metrics[name] = (value, spans.metric_unit(name))
        if not calls:
            absent[name] = "not called on this workload"
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.spans"] = (len(recorders[0].start), "count")
    (run.work / "trace_summary.json").write_text(json.dumps(
        {"passes": [first, second], "untraced_s": untraced_s, "traced_s": traced_s},
        indent=1, sort_keys=True))
    return {"metrics": metrics, "absent": absent,
            "detail": {"untraced_inprocess_s": untraced_s, "traced_s": traced_s,
                       "counters_compared": len(first["counts"]), "counters_differing": differ},
            "commands": command_table(run, commands, {k: o.seconds for k, o in once.items()},
                                      {k: o.rss_mb for k, o in once.items()})}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    parser.add_argument("--seed", type=int, default=workloads.RECORDED_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "gaborlab" / "cli.py").is_file():
        print(f"error: no gaborlab sources under {root / 'src'}", file=sys.stderr)
        return 2
    run = Run(root, args.workload)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    setup_cmds, commands = workloads.prepare(args.workload, run.work, args.seed)
    for cmd in setup_cmds:
        outcome = run.spawn(cmd)
        problems, _ = gate.check(cmd, outcome.code, outcome.stderr)
        if problems:
            print(f"error: set-up command {cmd.label} failed: {problems}", file=sys.stderr)
            return 1

    def shown(cmd: Command) -> str:
        return " ".join(cmd.argv).replace(f"{root}{os.sep}", "")

    machine = environment(root)
    result = traced(run, commands) if args.trace else timed(run, commands, args.seconds)
    oracle_lines = check_oracle(run, commands) if args.workload == "frame-build" else []

    print(f"gaborlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, seconds {args.seconds}")
    print(f"why: {workloads.WHY[args.workload]}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    print("closed loop, one client, one command at a time:")
    for cmd in setup_cmds:
        print(f"  (untimed set-up) gaborlab {shown(cmd)}")
    for cmd in commands:
        print(f"  {cmd.label}: gaborlab {shown(cmd)}")
    print(f"{'command':28s} {'s':>9s} {'rss_mb':>9s} {'total':>6s} {'bits':>6s}")
    for row in result["commands"]:
        print(f"{row['label']:28s} {row['s']:9.4f} {row['rss_mb']:9.1f} "
              f"{row.get('total', '-'):>6} {row.get('translate_bits_max', '-'):>6}")
    for key, value in result["detail"].items():
        print(f"{key}: {value}")
    for line in oracle_lines:
        print(line)

    failed = len(run.failures)
    for failure in run.failures:
        print(f"FAILED {failure}")
    if args.trace:
        metrics = result["metrics"]
        for name, (value, unit) in metrics.items():
            note = f"  (absent: {result['absent'][name]})" if name in result["absent"] else ""
            print(f"{name:52s} {value:>14.6g} {unit}{note}")
    else:
        metrics = {name: (result["metrics"][name], unit) for name, unit in END_TO_END.items()}
        for name, (value, unit) in metrics.items():
            print(f"{name:12s} {value:.6f} {unit}")
    print(f"failed_frac {failed / run.attempted:.6f} ratio ({failed} of {run.attempted} operations)")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": machine, "failures": run.failures, **result,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (run.work / "result.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
