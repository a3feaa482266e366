#!/usr/bin/env python3
"""Time-to-verdict benchmark for the `dl-lab` command line.

    python3 perfbench/run.py --workload enum-fold --seed 0 --seconds 20 --trace 0

A workload is a fixed list of `dl-lab` invocations (see workloads.json, which
also records the layers it loads; BENCHMARK.json says why it exists).  One pass
runs the list in order, each invocation as a fresh `python -m dllab.cli` child
process, because users pay interpreter start and table building on every run.
The load is a closed loop with one client: one child at a time, no `--jobs`,
no `--out`.  Passes repeat until `--seconds` have elapsed (at least one).

Every invocation is checked: exit status 0, every claim of a `verify` report
passing, and the sha256 of its standard output equal to the digest recorded
for the default seed.  For another seed, where no digest is recorded, every
pass of the run must give the same bytes.  An invocation failing any check
counts in `failed`.

With `--trace 0` the run prints the end-to-end metrics.  With `--trace 1` it
makes one untraced pass, one pass that counts calls and one pass that samples
times (tracer.py), and prints the per-module metrics.  Human-readable lines
come first; the last line of standard output is one JSON object.  `--workload all` runs every workload in
turn and prefixes each metric name with the workload's name.

Exit status: 0 when a result was printed, 1 when the run's time budget ran
out first, 2 when the program under test cannot be found next to the
benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import INCLUSIVE, MODULES  # noqa: E402

DEFAULT_SEED = 0
# A run must end within 180 s; children are killed once this budget is spent.
RUN_BUDGET_S = 170.0


def load_workloads():
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)["workloads"]


# -- one child process ---------------------------------------------------------


@dataclass
class Outcome:
    """Wall time, rusage and output of one finished child."""

    wall_s: float
    cpu_s: float
    maxrss_kb: int
    status: int
    stdout: bytes
    stderr: bytes
    trace: dict | None = None  # the tracer's numbers, for a traced child

    @property
    def digest(self):
        return hashlib.sha256(self.stdout).hexdigest()


def run_child(cmd, tmpdir, deadline):
    """Run cmd to completion and reap it with os.wait4.

    A timer kills the child at `deadline` (a perf_counter value); a child that
    died of that kill raises TimeoutError.  The child is reaped only after it
    has exited and the timer has been told so under a lock, so the timer never
    signals a reaped process, and a child that exits as the timer fires is
    judged by its status.
    """
    # dl-lab does no BLAS work (its matrix products are over integers), so an
    # OpenBLAS thread pool only adds spinning threads whose CPU time depends
    # on whether the machine's other core is free; one child is one thread.
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryFile(dir=tmpdir) as out, tempfile.TemporaryFile(dir=tmpdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        lock = threading.Lock()
        exited, killed = [], []

        def expire():
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)
                    killed.append(True)

        timer = threading.Timer(deadline - t0, expire)
        timer.start()
        try:
            # Wait for the exit but leave the child unreaped, so its pid
            # cannot be reused while the timer may still signal it.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                exited.append(True)
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
        timer.cancel()
        timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed and proc.returncode == -signal.SIGKILL:
            raise TimeoutError
        out.seek(0)
        err.seek(0)
        return Outcome(
            wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, proc.returncode, out.read(), err.read()
        )


# -- checks --------------------------------------------------------------------


def invocation_argv(inv, seed):
    argv = list(inv["argv"])
    if "seed_offset" in inv:
        argv += ["--seed", str(seed + inv["seed_offset"])]
    return argv


def check(inv, out, seed, seen):
    """Return None if the invocation's output is correct, else the reason.

    `seen` maps invocation ids to the digest first seen in this run; it stands
    in for the recorded digest when the seed has none.
    """
    if out.status != 0:
        return f"exit status {out.status}"
    if inv["argv"][0] == "verify":
        try:
            claims = json.loads(out.stdout)["claims"]
        except (ValueError, KeyError, TypeError):
            return "report is not a JSON object with claims"
        bad = [c.get("claim") for c in claims if c.get("status") != "pass"]
        if bad:
            return f"claims not passing: {bad}"
    want = inv["sha256"] if seed == DEFAULT_SEED or "seed_offset" not in inv else None
    want = want or seen.setdefault(inv["id"], out.digest)
    if out.digest != want:
        return f"stdout sha256 {out.digest} != {want}"
    return None


# -- passes --------------------------------------------------------------------


class Run:
    """State shared by the passes of one benchmark run."""

    def __init__(self, seed, tmpdir, deadline):
        self.seed = seed
        self.tmpdir = tmpdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.seen = {}

    def invoke(self, workload, inv, mode=None):
        """Run one invocation, check it, and return its Outcome.

        `mode` runs it under tracer.py ("count" or "sample"); the Outcome of a
        passing traced invocation carries the tracer's numbers.
        """
        argv = invocation_argv(inv, self.seed)
        if mode:
            fd, stats = tempfile.mkstemp(dir=self.tmpdir, suffix=".json")
            os.close(fd)
            cmd = [sys.executable, str(HERE / "tracer.py"), mode, stats, *argv]
        else:
            cmd = [sys.executable, "-m", "dllab.cli", *argv]
        self.attempted += 1
        try:
            out = run_child(cmd, self.tmpdir, self.deadline)
        except TimeoutError:
            self.failed += 1
            _note(f"{workload}: {inv['id']} killed at the run's time budget")
            raise
        reason = check(inv, out, self.seed, self.seen)
        if reason:
            self.failed += 1
            tail = out.stderr.decode(errors="replace").strip().splitlines()[-3:]
            _note(f"{workload}: {inv['id']} failed: {reason} {tail}")
        elif mode:
            with open(stats) as fh:
                out.trace = json.load(fh)
        return out

    def one_pass(self, name, workload, mode=None):
        return [self.invoke(name, inv, mode) for inv in workload["invocations"]]


def _note(msg):
    print(msg, file=sys.stderr, flush=True)


def measure_setup(run):
    """Seconds from a fresh interpreter to the end of `import dllab.cli`."""
    cmd = [sys.executable, "-c", "import dllab.cli; print(dllab.cli.__file__)"]
    out = run_child(cmd, run.tmpdir, run.deadline)
    where = Path(out.stdout.decode().strip())
    if out.status != 0 or SRC not in where.parents:
        _note(f"dllab.cli does not import from {SRC}: {out.stderr.decode()[-300:]}")
        sys.exit(2)
    return out.wall_s


def end_to_end(name, workload, run, seconds):
    """Repeat passes for `seconds`; return metrics and human-readable lines.

    A set-up sample precedes every invocation, so the set-up samples spread
    over the run as the invocations do, rather than catching one moment of
    the machine.
    """
    t0 = time.perf_counter()
    walls, cpus, setup, rss = [], [], [], 0
    per_inv = {inv["id"]: [] for inv in workload["invocations"]}
    while True:
        outs = []
        for inv in workload["invocations"]:
            setup.append(measure_setup(run))
            outs.append(run.invoke(name, inv))
        walls.append(sum(o.wall_s for o in outs))
        cpus.append(sum(o.cpu_s for o in outs))
        rss = max([rss] + [o.maxrss_kb for o in outs])
        for inv, o in zip(workload["invocations"], outs):
            per_inv[inv["id"]].append(o.wall_s)
        if time.perf_counter() - t0 >= seconds:
            break
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss / 1024, "MB"),
    }
    lines = [
        f"wall_s  median {metrics['wall_s'][0]:.4f} s, {_tail(walls)}",
        f"cpu_s  median {metrics['cpu_s'][0]:.4f} s over {len(cpus)} passes",
        f"setup_s  median {metrics['setup_s'][0]:.4f} s, {_tail(setup)}",
        f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.2f} MB (max over children)",
    ]
    lines += [
        f"cli.{i}.wall_s  median {statistics.median(v):.4f} s" for i, v in per_inv.items()
    ]
    return metrics, lines


def _tail(samples):
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    p = 100 - 1000 / n if n else 0
    if p < 50:
        return f"n={n}; no percentile has ten samples beyond it"
    cut = statistics.quantiles(samples, n=100, method="inclusive")[int(p) - 1]
    return f"p{int(p)} {cut:.4f} s, n={n}"


def layer_names(workloads):
    """Every per-layer metric name, in a fixed order."""
    names = []
    for m in MODULES:
        names += [f"{m}.calls", f"{m}.self_s"]
    names += [
        "ffield.field_builds",
        "ffield.build_s",
        "matmodel.member_ratio",
        "repkit.group_mul_calls",
        *INCLUSIVE.values(),
    ]
    names += [f"cli.{inv['id']}.wall_s" for w in workloads.values() for inv in w["invocations"]]
    names += ["cli.report_bytes", "trace.overhead_ratio", "trace.unattributed_s"]
    return names


def per_layer(name, workload, run, workloads):
    """An untraced, a counted and a sampled pass; return per-layer metrics and lines."""
    plain = run.one_pass(name, workload)
    counted = run.one_pass(name, workload, "count")
    sampled = run.one_pass(name, workload, "sample")
    # check() has compared every stdout with the recorded digest, or with the
    # untraced pass where the seed has none.
    counts = [o.trace for o in counted if o.trace]
    times = [o.trace for o in sampled if o.trace]
    values = dict.fromkeys(layer_names(workloads), 0.0)
    for m in MODULES:
        values[f"{m}.calls"] = sum(c["calls"][m] for c in counts)
        values[f"{m}.self_s"] = sum(t["self_s"][m] for t in times)
    for metric in INCLUSIVE.values():
        values[metric] = sum(t["inclusive_s"][metric] for t in times)
    values["ffield.field_builds"] = sum(c["field_builds"] for c in counts)
    values["ffield.build_s"] = sum(c["build_s"] for c in counts)
    xh = sum(c["in_xh_calls"] for c in counts)
    values["matmodel.member_ratio"] = sum(c["in_xh_true"] for c in counts) / xh if xh else 0.0
    values["repkit.group_mul_calls"] = sum(c["group_mul_calls"] for c in counts)
    for inv, o in zip(workload["invocations"], plain):
        values[f"cli.{inv['id']}.wall_s"] = o.wall_s
    values["cli.report_bytes"] = sum(len(o.stdout) for o in plain)
    plain_wall = sum(o.wall_s for o in plain)
    counted_wall = sum(o.wall_s for o in counted)
    sampled_wall = sum(o.wall_s for o in sampled)
    self_total = sum(values[f"{m}.self_s"] for m in MODULES)
    values["trace.overhead_ratio"] = counted_wall / plain_wall
    values["trace.unattributed_s"] = sampled_wall - self_total
    metrics = {k: (v, _layer_unit(k)) for k, v in values.items()}
    lines = [
        f"trace.overhead_ratio base: counted pass {counted_wall:.4f} s,"
        f" untraced pass {plain_wall:.4f} s",
        f"sampled wall {sampled_wall:.4f} s = module self {self_total:.4f} s"
        f" + unattributed {values['trace.unattributed_s']:.4f} s"
        " (interpreter start, imports, code outside the modules);"
        f" {sum(t['samples'] for t in times)} samples",
        f"sampled pass {sampled_wall / plain_wall - 1:+.1%} on the untraced pass"
        " (the sampler's cost and the machine's drift)",
    ]
    if xh:
        lines.append(f"matmodel.member_ratio base: {xh} in_Xh calls")
    return metrics, lines


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.report_bytes":
        return "bytes"
    return "count"


# -- entry point ---------------------------------------------------------------


def main(argv=None):
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workloads = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dllab" / "cli.py").is_file():
        _note(f"no dl-lab sources at {SRC}; run from a checkout of the repository")
        return 2
    names = list(workloads) if args.workload == "all" else [args.workload]
    metrics = {}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmpdir:
        run = Run(args.seed, tmpdir, start + RUN_BUDGET_S * len(names))
        try:
            for name in names:
                w = workloads[name]
                attempted, failed = run.attempted, run.failed
                if args.trace:
                    got, lines = per_layer(name, w, run, workloads)
                else:
                    got, lines = end_to_end(name, w, run, args.seconds)
                attempted, failed = run.attempted - attempted, run.failed - failed
                lines.append(f"failed_frac  {failed / attempted:g} ({failed}/{attempted})")
                print(f"== {name} (seed {args.seed})")
                for line in lines:
                    print(f"  {line}")
                for key, (value, unit) in got.items():
                    full = f"{name}.{key}" if args.workload == "all" else key
                    metrics[full] = {"value": value, "unit": unit}
        except TimeoutError:
            _note("run time budget spent before the workload finished")
            return 1
    for key, m in metrics.items():
        print(f"{key} {m['value']} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
