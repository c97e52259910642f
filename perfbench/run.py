#!/usr/bin/env python3
"""The cubecount benchmark: cold CLI workloads, exact-output gates, a traced per-layer run.

    python3 perfbench/run.py --workload series --seed 7 --seconds 10 --trace 0

Each workload is a fixed list of `cubecount` commands.  A pass runs them one
after another, each in a fresh process (perfbench/child.py), the way a shell
runs them: one child at a time, `--threads` unset and CUBECOUNT_THREADS
cleared, so no command starts a worker pool.  A run repeats passes for about
--seconds seconds and prints, as the last line of stdout, one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Every command's output is
checked: exit code 0, stdout (and the sample CSV) byte-identical to the
SHA-256 recorded in perfbench/expected.json, JSON valid against its schema in
docs/schemas/, and identical bytes each time the command runs in one run.

--trace 0 reports the end-to-end metrics:
  wall_s       wall time of one pass, summed over its commands (median over passes)
  setup_s      spawn-to-`import cubecount.cli`-done time of one child (median over
               every child of the run, the first import probe included) times
               the number of commands in a pass
  peak_rss_mb  largest max-RSS of any child in a pass (median over passes)

--trace 1 runs one untraced pass, then one traced pass
(perfbench/traced_child.py) and reports the per-layer metrics from its spans.
The tracing overhead, traced minus untraced work time (wall minus set-up), is
printed on the line before the result.

Times are reported in reference seconds: each child's measured times are
scaled by the machine speed measured just before and after it (see
calibrate()).  The line before the result holds the environment record and,
for --trace 0, the same medians in plain measured seconds; for --trace 1, the
tracing overhead.

The `sample` command takes its seed from --seed.  At the default seed its
digests are checked like every other command's; at any other seed only its
schema, and that its two passes (the `sample` workload always makes at least
two) agree byte for byte.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
EXPECTED_FILE = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 7
DEADLINE_S = 165.0  # a run, result included, must end within 180 s
REF_KERNEL_S = 0.020  # a reference second is a second of a machine running _kernel() in 20 ms
KERNEL_CALLS = 20

SAMPLE_ARGV = ("sample --d 10 --lam 1 --samples 1000 --thin 4096 --seed {seed} "
               "--csv {csv}")


class Command:
    """One CLI invocation of a workload.

    schema: the file in docs/schemas/ its stdout must satisfy.
    r_strata: the R_j whose cluster_sum grid the traced run must see; the
    grid, interpolated again, must give the R_j recorded in expected.json.
    """

    def __init__(self, name: str, schema: str, argv: str, r_strata=()):
        self.name = name
        self.schema = schema
        self.argv = argv.split()
        self.r_strata = tuple(r_strata)
        self.seeded = "{seed}" in argv


# Why each workload exists is in perfbench/README.md.
WORKLOADS = {
    "series": [
        Command("rj", "series_table", "rj --j 3", (1, 2, 3)),
        Command("count", "log_count", "count --beta 1/2 --d 23 --t 4", (1, 2, 3)),
    ],
    "bigcount": [
        Command("count-half", "log_count", "count --beta 1/2 --d 24 --t 3", (1, 2)),
        Command("count-third", "log_count", "count --beta 1/3 --d 23 --t 3", (1, 2)),
        Command("zeta", "log_count", "zeta --lam 1 --d 24 --t 3", (1, 2)),
    ],
    "census": [
        Command("polymers", "polymers", "polymers --d 9 --max-size 4"),
        Command("symbolic", "polymers", "polymers --max-size 3 --mode symbolic"),
    ],
    "sample": [
        Command("sample", "sampler_summary", SAMPLE_ARGV),
        Command("oracle", "oracle", "oracle --d 5 --lam 1"),
    ],
}


# -- machine speed ----------------------------------------------------------------------


def _kernel() -> int:
    """Fixed pure-Python work of the program's kind: integer arithmetic,
    hashing of small frozensets, set growth and one big-integer product."""
    seen = set()
    x = 0
    for i in range(20000):
        x = (x * 31 + i) % 1000003
        seen.add(frozenset((x, i & 255)))
    return len(seen) + ((3 ** 20000) * (7 ** 20000)).bit_length()


def calibrate() -> float:
    """Mean time of one _kernel() call, in seconds, over KERNEL_CALLS calls.

    The machine this benchmark was built on changes speed by tens of percent
    from minute to minute, and a child's time moves with the kernel's
    (correlation about 0.8).  Every child is bracketed by two calibrations,
    and its times are scaled by REF_KERNEL_S over their mean, so that runs
    made at different moments can be compared.
    """
    t0 = time.perf_counter()
    for _ in range(KERNEL_CALLS):
        _kernel()
    return (time.perf_counter() - t0) / KERNEL_CALLS


# -- children --------------------------------------------------------------------------


def spawn(argv: list[str], out_path: str, err_path: str, env: dict,
          timeout_s: float):
    """Run argv to completion; return (spawn ns, exit ns, exit code, rusage).

    The child is killed when it outlives timeout_s (exit code -9).  Both
    times are CLOCK_MONOTONIC, the clock the child's mark is written in.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd = os.open(out_path, flags, 0o644)
    try:
        err_fd = os.open(err_path, flags, 0o644)
        try:
            actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                       (os.POSIX_SPAWN_DUP2, out_fd, 1),
                       (os.POSIX_SPAWN_DUP2, err_fd, 2)]
            t0 = time.monotonic_ns()
            pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        finally:
            os.close(err_fd)
    finally:
        os.close(out_fd)
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            if not select.select([pidfd], [], [], max(timeout_s, 0.0))[0]:
                os.kill(pid, signal.SIGKILL)
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(pid, 0)
        t1 = time.monotonic_ns()
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    return t0, t1, os.waitstatus_to_exitcode(status), usage


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


def sha256(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


class Execution:
    """What one child did: times in ns, peak RSS in KiB, outputs, problems.

    scale converts its measured times to reference seconds per ns.
    """

    def __init__(self, cmd: Command, t0: int, t1: int, mark: int | None,
                 code: int, usage, stdout: bytes, csv: bytes | None, stderr: bytes,
                 scale: float):
        self.cmd = cmd
        self.scale = scale
        self.wall_ns = t1 - t0
        self.setup_ns = None if mark is None else mark - t0
        self.work_ns = None if mark is None else t1 - mark
        self.code = code
        self.maxrss_kb = usage.ru_maxrss
        self.stdout = stdout
        self.csv = csv
        self.stderr = stderr
        self.problems: list[str] = []
        self.trace: dict | None = None  # the span file of a traced child


class Run:
    """One benchmark run: the children it started and every check on them."""

    def __init__(self, workload: str, seed: int, root: str, work: str,
                 expected: dict, deadline_s: float = DEADLINE_S):
        self.workload = workload
        self.commands = WORKLOADS[workload]
        self.seed = seed
        self.root = root
        self.work = work
        self.expected = expected.get("commands", {})
        self.expected_r = expected.get("r_poly_sha256", {})
        self.deadline = time.monotonic() + deadline_s
        self.env = dict(os.environ)
        self.env.pop("CUBECOUNT_THREADS", None)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.executions: list[Execution] = []
        self.first_output: dict[str, tuple[bytes, bytes | None]] = {}
        self._tags = 0
        self.kernel_s: list[float] = [calibrate()]

    def _scale(self) -> float:
        """Calibrate after a child; the factor from its ns to reference s."""
        self.kernel_s.append(calibrate())
        return 1e-9 * REF_KERNEL_S / statistics.fmean(self.kernel_s[-2:])

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def _paths(self):
        self._tags += 1
        base = os.path.join(self.work, f"c{self._tags}")
        return {k: f"{base}.{k}" for k in ("mark", "out", "err", "csv", "spans")}

    def probe(self) -> tuple[int, float]:
        """Import cubecount.cli in a child; return its set-up ns and their scale.

        Exits the benchmark, printing no result, when the import fails.
        """
        p = self._paths()
        argv = [sys.executable, os.path.join(HERE, "child.py"), p["mark"]]
        t0, _, code, _ = spawn(argv, p["out"], p["err"], self.env, self.time_left())
        scale = self._scale()
        mark = _read(p["mark"])
        if code != 0 or mark is None:
            sys.stderr.write((_read(p["err"]) or b"").decode(errors="replace"))
            raise SystemExit(f"error: `import cubecount.cli` failed (exit {code})")
        return int(mark) - t0, scale

    def execute(self, cmd: Command, traced: bool = False) -> Execution:
        p = self._paths()
        args = [a.format(seed=self.seed, csv=p["csv"]) for a in cmd.argv]
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced_child.py"),
                    p["mark"], p["spans"], *args]
        else:
            argv = [sys.executable, os.path.join(HERE, "child.py"), p["mark"], *args]
        t0, t1, code, usage = spawn(argv, p["out"], p["err"], self.env,
                                    self.time_left())
        scale = self._scale()
        mark = _read(p["mark"])
        ex = Execution(cmd, t0, t1, None if mark is None else int(mark), code,
                       usage, _read(p["out"]) or b"", _read(p["csv"]),
                       _read(p["err"]) or b"", scale)
        self.check(ex)
        if traced:
            spans = _read(p["spans"])
            if spans is not None:
                ex.trace = json.loads(spans)
            self.check_trace(ex)
        self.executions.append(ex)
        return ex

    # -- checks ------------------------------------------------------------------------

    def check(self, ex: Execution) -> None:
        cmd = ex.cmd
        if ex.code != 0:
            tail = ex.stderr.decode(errors="replace").strip().splitlines()[-1:]
            ex.problems.append(f"exit code {ex.code} {tail}")
            return
        if ex.setup_ns is None:
            ex.problems.append("no import mark written")
        first = self.first_output.setdefault(cmd.name, (ex.stdout, ex.csv))
        if first != (ex.stdout, ex.csv):
            ex.problems.append("output differs from this command's first run")
        if not cmd.seeded or self.seed == DEFAULT_SEED:
            want = self.expected.get(f"{self.workload}/{cmd.name}")
            if want is None or want["argv"] != " ".join(cmd.argv):
                ex.problems.append("no digest recorded for this command line")
            else:
                if sha256(ex.stdout) != want["stdout_sha256"]:
                    ex.problems.append("stdout differs from the recorded digest")
                if sha256(ex.csv) != want.get("csv_sha256"):
                    ex.problems.append("CSV differs from the recorded digest")
        problem = self.schema_problem(cmd.schema, ex.stdout)
        if problem:
            ex.problems.append(problem)

    def schema_problem(self, schema: str, stdout: bytes) -> str | None:
        import jsonschema

        with open(os.path.join(self.root, "docs", "schemas", f"{schema}.json")) as f:
            spec = json.load(f)
        try:
            jsonschema.validate(json.loads(stdout), spec)
        except (ValueError, jsonschema.ValidationError) as e:
            return f"stdout fails schema {schema}: {str(e).splitlines()[0]}"
        return None

    def check_trace(self, ex: Execution) -> None:
        if ex.trace is None:
            ex.problems.append("traced child wrote no spans")
            return
        refits = ex.trace["r_refit_sha256"]
        for j in ex.cmd.r_strata:
            if str(j) not in refits:
                ex.problems.append(f"no traced cluster_sum grid for R_{j}")
            elif refits[str(j)] != self.expected_r.get(str(j)):
                ex.problems.append(f"traced cluster_sum grid does not give the "
                                   f"recorded R_{j}")

    @property
    def failed(self) -> int:
        return sum(1 for ex in self.executions if ex.problems)

    def report_problems(self) -> None:
        for ex in self.executions:
            for problem in ex.problems:
                print(f"FAILED {self.workload}/{ex.cmd.name}: {problem}",
                      file=sys.stderr)
            if ex.stderr.strip() and not ex.problems:
                print(f"stderr of {self.workload}/{ex.cmd.name}: "
                      f"{ex.stderr.decode(errors='replace').strip()}", file=sys.stderr)


# -- the two kinds of run -----------------------------------------------------------------


def run_pass(run: Run, traced: bool = False) -> list[Execution]:
    out = []
    for cmd in run.commands:
        out.append(run.execute(cmd, traced))
        if run.time_left() <= 0:
            break
    return out


def timed_run(run: Run, seconds: int, probe: tuple[int, float]) -> tuple[dict, dict]:
    """Passes until the next one would end after `seconds`.

    Returns the end-to-end metrics, in reference seconds, and the same
    medians as measured.  A workload with a seeded command makes at least two
    passes, so that its output is compared byte for byte at every seed.
    """
    min_passes = 2 if any(c.seeded for c in run.commands) else 1
    passes = []
    start = time.monotonic()
    while run.time_left() > 0:
        passes.append(run_pass(run))
        elapsed = time.monotonic() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    for i, p in enumerate(passes):
        print(f"pass {i}: " + ", ".join(
            f"{ex.cmd.name} {ex.wall_ns * 1e-9:.3f}s" for ex in p), file=sys.stderr)
    setups = [probe] + [(ex.setup_ns, ex.scale) for p in passes for ex in p
                        if ex.setup_ns is not None]
    n = len(run.commands)
    metrics = {
        "wall_s": statistics.median(sum(ex.wall_ns * ex.scale for ex in p)
                                    for p in passes),
        "setup_s": statistics.median(ns * scale for ns, scale in setups) * n,
        "peak_rss_mb": statistics.median(max(ex.maxrss_kb for ex in p) / 1024
                                         for p in passes),
    }
    measured = {
        "wall_s": statistics.median(1e-9 * sum(ex.wall_ns for ex in p) for p in passes),
        "setup_s": statistics.median(1e-9 * ns for ns, _ in setups) * n,
    }
    return metrics, measured


class Spans:
    """Aggregates, in reference seconds, over the spans of a run's traced commands."""

    def __init__(self, executions: list[Execution]):
        self.spans = []  # (name, dur s, attrs, nested dur s, has same-name ancestor)
        self.tallied: dict[str, float] = {}
        for ex in executions:
            raw = ex.trace["spans"]
            nested_ns = [0] * len(raw)
            for name, parent, calls, t_ns in ex.trace["tallies"]:
                self.tallied[name] = self.tallied.get(name, 0.0) + t_ns * ex.scale
                if parent >= 0:
                    nested_ns[parent] += t_ns
            for name, start, end, parent, attrs in raw:
                if parent >= 0:
                    nested_ns[parent] += end - start
            for i, (name, start, end, parent, attrs) in enumerate(raw):
                nested = False
                while parent >= 0 and not nested:
                    nested = raw[parent][0] == name
                    parent = raw[parent][3]
                self.spans.append((name, (end - start) * ex.scale, attrs or {},
                                   nested_ns[i] * ex.scale, nested))

    def inclusive(self, name: str, **match) -> float:
        return sum((dur for n, dur, attrs, _, nested in self.spans
                    if n == name and not nested
                    and all(attrs.get(k) == v for k, v in match.items())), 0.0)

    def self_time(self, name: str) -> float:
        """Time inside `name` spans not covered by the spans nested in them."""
        return sum((dur - kids for n, dur, _, kids, _ in self.spans if n == name), 0.0)

    def total(self, name: str, attr: str) -> int:
        return sum(attrs.get(attr, 0) for n, _, attrs, _, _ in self.spans if n == name)

    def tally(self, name: str) -> float:
        return self.tallied.get(name, 0.0)


def layer_metrics(spans: Spans) -> dict:
    glauber_s = spans.inclusive("sampler.glauber")
    steps = spans.total("sampler.glauber", "steps")
    return {
        "cli.import_s": spans.inclusive("cli.import"),
        "cli.import_scipy_stats_s": spans.inclusive("cli.import_scipy_stats"),
        "clusters.enumerate_s": spans.inclusive("clusters.enumerate"),
        "clusters.enumerate_s.d14": spans.inclusive("clusters.enumerate", d=14),
        "clusters.rooted_clusters": spans.total("clusters.enumerate", "count"),
        "clusters.cluster_sum_s": spans.inclusive("clusters.cluster_sum"),
        "symbolic.interpolate_s": spans.inclusive("symbolic.interpolate"),
        "asymptotics.R_poly_s": spans.inclusive("asymptotics.R_poly"),
        "asymptotics.compute_B_s": spans.self_time("asymptotics.compute_B"),
        "asymptotics.compute_P_s": spans.self_time("asymptotics.compute_P"),
        "asymptotics.eval_s": spans.self_time("asymptotics.eval"),
        "bigint.binomial_s": spans.inclusive("bigint.binomial"),
        "polymers.rooted_supports_s": spans.inclusive("polymers.rooted_supports"),
        "polymers.rooted_supports": spans.total("polymers.rooted_supports", "count"),
        "polymers.classify_s": spans.tally("polymers.classify"),
        "polymers.symbolic_census_s": spans.inclusive("polymers.symbolic_census"),
        "sampler.glauber_s": glauber_s,
        "sampler.steps_per_s": steps / glauber_s if glauber_s else 0.0,
        "sampler.extract_s": spans.inclusive("sampler.extract"),
        "sampler.statistics_s": spans.inclusive("sampler.statistics"),
        "exact.size_profile_s": spans.inclusive("exact.size_profile"),
    }


UNITS = {"clusters.rooted_clusters": "count", "polymers.rooted_supports": "count",
         "sampler.steps_per_s": "1/s", "peak_rss_mb": "MB"}


def traced_run(run: Run) -> tuple[dict, dict]:
    """One untraced pass, then one traced pass.

    Returns the per-layer metrics and the tracing overhead: the traced pass's
    work time (wall minus set-up) minus the untraced pass's, in reference seconds.
    """
    plain = run_pass(run)
    traced = run_pass(run, traced=True) if run.time_left() > 0 else []
    metrics = layer_metrics(Spans([ex for ex in traced if ex.trace is not None]))

    def work(p):
        return sum((ex.work_ns or 0) * ex.scale for ex in p)

    overhead = {"traced_work_s": work(traced), "untraced_work_s": work(plain),
                "overhead_s": work(traced) - work(plain)}
    return metrics, overhead


# -- environment and the result line ------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(load_start: tuple, load_end: tuple) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
    }


def load_expected() -> dict:
    try:
        with open(EXPECTED_FILE) as f:
            obj = json.load(f)
    except FileNotFoundError:
        return {}
    if obj.get("default_seed") != DEFAULT_SEED:
        return {}
    return obj


# Digests of R_1..R_3 as computed by a plain, untraced process.
R_DIGESTS = ("import json; from cubecount.asymptotics import R_poly; "
             "from traced_child import poly_sha256; "
             "print(json.dumps({j: poly_sha256(R_poly(j)) for j in (1, 2, 3)}))")


def record(root: str, work: str) -> int:
    """Run every command once at the default seed and rewrite expected.json."""
    commands = {}
    for workload in WORKLOADS:
        run = Run(workload, DEFAULT_SEED, root, work, {}, deadline_s=3600.0)
        for cmd in run.commands:
            ex = run.execute(cmd)
            problems = [p for p in ex.problems
                        if p != "no digest recorded for this command line"]
            if problems:
                print(f"{workload}/{cmd.name}: {problems}", file=sys.stderr)
                return 1
            entry = {"argv": " ".join(cmd.argv), "stdout_sha256": sha256(ex.stdout)}
            if ex.csv is not None:
                entry["csv_sha256"] = sha256(ex.csv)
            commands[f"{workload}/{cmd.name}"] = entry
            print(f"{workload}/{cmd.name}: {ex.wall_ns * 1e-9:.2f}s", file=sys.stderr)
    env = dict(run.env, PYTHONPATH=run.env["PYTHONPATH"] + os.pathsep + HERE)
    out, err = os.path.join(work, "r.out"), os.path.join(work, "r.err")
    code = spawn([sys.executable, "-c", R_DIGESTS], out, err, env, 3600.0)[2]
    if code != 0:
        print(f"R_j digests: exit code {code}", file=sys.stderr)
        return 1
    with open(EXPECTED_FILE, "w") as f:
        json.dump({"default_seed": DEFAULT_SEED, "commands": commands,
                   "r_poly_sha256": json.loads(_read(out))}, f,
                  indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", default=CHECKOUT,
                        help="tree whose src/ and docs/schemas/ are measured "
                             "(default: the checkout holding this script)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite perfbench/expected.json from this tree")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.path.abspath(args.root)
    if not os.path.isfile(os.path.join(root, "src", "cubecount", "cli.py")):
        print(f"error: no cubecount source under {root}/src", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    work = os.path.join(CHECKOUT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        compileall.compile_dir(os.path.join(root, "src"), quiet=1)
        if args.record:
            return record(root, work)
        load_start = os.getloadavg()
        nproc = len(os.sched_getaffinity(0))
        if load_start[0] > nproc:
            print(f"warning: load average {load_start[0]:.2f} exceeds the "
                  f"{nproc} cores at start; timings will be noisy", file=sys.stderr)
        run = Run(args.workload, args.seed, root, work, load_expected())
        probe = run.probe()  # also warms the page cache before the passes
        if args.trace:
            metrics, overhead = traced_run(run)
            info = {"trace_overhead": overhead}
        else:
            metrics, measured = timed_run(run, args.seconds, probe)
            info = {"measured": measured}
        run.report_problems()
        env = environment(load_start, os.getloadavg())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    kernel_ms = sorted(1000 * k for k in run.kernel_s)
    env["kernel_ms_min_median_max"] = [kernel_ms[0], statistics.median(kernel_ms),
                                       kernel_ms[-1]]
    print(json.dumps(dict(info, env=env), sort_keys=True))
    result = {
        "correct": run.failed == 0 and len(run.executions) > 0,
        "attempted": len(run.executions),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": UNITS.get(name, "s")}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
