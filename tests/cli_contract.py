"""The CLI's process contract: one table of invocations and one probe.

Each row of `ROWS` is one `cubecount` command line with what its process must
show: the exit code, its stderr (empty, or one line: the `error:` line of a
failed command, or a `warning:`), the exact set of `cubecount` submodules
loaded, and, where pinned, the SHA-256 of stdout.  `probe` runs a row in a
fresh interpreter and reports every process-level fact; `check` compares them
with the row.  Besides the row's own figures, every row must show:

- `import cubecount` alone loads no submodule;
- none of `FOREIGN` is loaded;
- the exit is frozen: a handler registered before `import cubecount.cli`
  runs after the `gc.freeze` that the CLI registers (atexit runs handlers
  last in, first out) and sees more frozen objects than at the start, which
  is not 0 on Python 3.12;
- the collector is off from the start, so after `main` the cyclic garbage
  holds everything the exit would have collected: no file, mmap, generator
  or function from a `cubecount` module may be in it;
- no child process is left, and `os.fork` runs once on a row shown two CPUs,
  never on a row shown one.

The module uses the standard library only.  `tests/test_cli.py` checks each
row as one parametrized case; run as a script it checks every row and exits
0 when all facts hold:

    PYTHONPATH=src python tests/cli_contract.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from typing import NamedTuple

# modules no command may load: test dependencies only, or an import cost the
# program avoids: dataclasses and the inspect it brings (the records), and
# argparse (the CLI's own parser)
FOREIGN = ("numpy", "scipy", "mpmath", "dataclasses", "inspect", "argparse")

PROBE = """\
import atexit, gc, json, os, sys
gc.disable()
argv, cpus = json.loads(sys.argv[1]), int(sys.argv[2])
facts = {}
frozen = gc.get_freeze_count()
atexit.register(lambda: print(json.dumps(
    dict(facts, frozen=gc.get_freeze_count() > frozen)), file=sys.stderr))

def submodules():
    return sorted(m.partition(".")[2] for m in sys.modules
                  if m.startswith("cubecount."))

import cubecount
facts["package"] = submodules()
import cubecount.cli
os.sched_getaffinity = lambda pid: set(range(cpus))
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
code = 0 if argv is None else cubecount.cli.main(argv)
gc.set_debug(gc.DEBUG_SAVEALL)
gc.collect()
import io, mmap, types
held = sorted({type(o).__name__ for o in gc.garbage
               if isinstance(o, (io.IOBase, mmap.mmap, types.GeneratorType))}
              | {o.__module__ + "." + o.__qualname__ for o in gc.garbage
                 if isinstance(o, types.FunctionType)
                 and (o.__module__ or "").startswith("cubecount")})
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
foreign = sorted(m for m in sys.modules if m.split(".")[0] in %r)
facts.update(modules=submodules(), foreign=foreign, held=held, left=left,
             forks=len(forks))
sys.exit(code)
""" % (FOREIGN,)


class Row(NamedTuple):
    # the arguments after `cubecount`, "{tmp}" standing for a scratch
    # directory; None imports cubecount.cli and runs no command
    argv: str | None
    # the `cubecount.` submodules loaded at the exit, named without the prefix
    modules: frozenset
    sha256: str | None = None  # of stdout, where pinned
    code: int = 0
    # the one stderr line: a failed command's error, or a warning
    stderr: str | None = None
    cpus: int = 1  # the CPUs the sampler is shown

    @property
    def name(self) -> str:
        return self.argv or "import cubecount.cli"


CLI = frozenset({"cli", "errors"})
EXACT = CLI | {"exact", "hypercube"}
DIGITS = EXACT | {"certified"}  # oracle --lam and report print decimals
POLYMERS = CLI | {"hypercube", "polymers", "symbolic"}
CLUSTERS = POLYMERS | {"clusters"}
# every layer the series commands reach through asymptotics
SERIES = CLUSTERS | {"asymptotics", "certified"}
SAMPLE = POLYMERS | {"chisq", "sampler"}
ALL = SERIES | SAMPLE | EXACT | {"validation"}

# the outputs `report` reads, written before its row runs
REPORT_INPUTS = {
    "count": "count --beta 1/2 --d 5 --t 3",
    "zeta": "zeta --lam 1 --d 5 --t 2",
    "oracle": "oracle --d 5 --lam 1",
    "sample": "sample --d 6 --lam 1 --samples 200 --thin 16 --seed 3",
}

ROWS = (
    Row(None, CLI),
    # help reads the declarations alone and loads no layer
    Row("--help", CLI),
    Row("sample --help", CLI),
    # the commands of the benchmark's workloads (perfbench/run.py)
    Row("rj --j 3", SERIES,
        "154b4f1c0df8f7908666770392741cb257b4e5ece74f2386f22626f2e03a0a3f"),
    Row("count --beta 1/2 --d 23 --t 4", SERIES,
        "cffd9ff0b6fb4e20945cc0e6b1ef367d0c903a6c894ad10410976e9d05d830bf"),
    Row("count --beta 1/2 --d 24 --t 3", SERIES,
        "4e40e8770a0b6b53d72f1f3e822bfb01cb6f1877cb4ba20b0474625a3d26310b"),
    Row("count --beta 1/3 --d 23 --t 3", SERIES,
        "b49a411e8fab8516ad13e4806b960dd2b31c51558c5b17d54c67e2bbd7e840a2"),
    Row("zeta --lam 1 --d 24 --t 3", SERIES,
        "a9444b395080337949148b8a52a41aa94a43a3a200c3c75a78330ef8f47b1bf5"),
    Row("polymers --d 9 --max-size 4", POLYMERS,
        "07d6d4578efec17c1546d7074ec9fa4ac36b68c95cdf38755d2030d0b369e59b"),
    Row("polymers --max-size 3 --mode symbolic", POLYMERS,
        "6e80d8abe7534f7c0c4c94a9dc94bbc57f15bb8d4b9d230e9c21cfcd4debb96f"),
    Row("sample --d 10 --lam 1 --samples 1000 --thin 4096 --seed 7 "
        "--csv {tmp}/run.csv", SAMPLE,
        "5a4e2bcef2ca05e121a2d49689a62da7357c8becb3e05f13ea9c2bae43d7f01f"),
    Row("oracle --d 5 --lam 1", DIGITS,
        "d097827f4e1d35109f66352734158a46ba8a9e49778e83b8506ec210caefe3d8"),
    # the largest packed size profile
    Row("oracle --d 6 --lam 1", DIGITS,
        "831235b60bca1a4ce66cace57e8cf01099379ca8b1b8f9e67370cbb47f43693b"),
    # the longest exact strata allowed: N R_j(lam, d) with (1+lam)^(-jd)
    # raised in the kit
    Row("count --beta 1/3 --d 24 --t 4", SERIES,
        "84697401dbb0b145d2e38384fea6aaf542da40a8f3fdc77c6e2cab3eaa744ff3"),
    # each field is correctly rounded: ln_value prints 9.9290126, the value
    # being 9.929012647...
    Row("count --beta 5/8 --d 5 --t 3 --digits 8", SERIES,
        "9359f6ca54eb65be9e33181de78367a5ffca03e0ff25d3198271c53198372796"),
    Row("count-structured --beta 1/2 --d 12 --fixed s1c0g0=1 --digits 5", SERIES,
        "449c3fc279223232f8246c30369769f60d68f69c3db78e2b3290e44ad182235b"),
    # exact symbolic outputs, recorded before the symbolic kernel moved from
    # Fraction coefficients to integer numerators over one denominator
    Row("bj --r 3", SERIES,
        "55a17e79b644d6239d769b390fcd5fb04c2c47bf79e342b8c07c2c9023f9cea6"),
    # each B_j order is solved in a build of its own and checked in the next
    Row("bj --r 1", SERIES,
        "29b468da81be610b869698eaaefb397512ac953610864a2255a8c423cd5a1d74"),
    Row("bj --r 2", SERIES,
        "0febae5624d6b1a79e370d456ef391031b8822d425a65876970e95c01a20795a"),
    Row("pj --t 2", SERIES,
        "91d9aae966747890b825eb0a3d0041f7a0e332865e002a906d42e55510493791"),
    Row("pj --t 3", SERIES,
        "b380bfc1baa5bbaf46e26c8b82d3118dee0fb0c2e7cb5a1753023ba10d925fa0"),
    Row("pj --t 4", SERIES,
        "203ab1d56171ef16eb74a0e8476272831b9a81b31cbae30cdff255ff03360fb6"),
    Row("lambda-beta --beta 1/3 --d 20 --t 8", SERIES,
        "68d429ac6cc05c9e61027adbf801e6d9b1cb061ceca6757a7548396a45e74950"),
    Row("polymers --max-size 4 --mode symbolic", POLYMERS,
        "05976534fa40a7580371315f52c63990631bbd4ca51c13a10be67ef21dba3264"),
    Row("clusters --d 10 --k 3", CLUSTERS,
        "9e78f9dc37a214519427c6e5fe80320ad9c944f938c1acc7f38a5f71b7c21521"),
    Row("count-structured --beta 1/2 --d 12 --fixed s1c0g0=1", SERIES,
        "76581b3cbddcef7b536a69ebb1261b3580c7a9e2dcd82c21644e674f0183799c"),
    # the base count at t = 4 solves B_1 and reads P_1 .. P_3
    Row("count-structured --beta 1/2 --d 12 --t 4 --fixed s1c0g0=1", SERIES,
        "e7a9328b50048ea6d81792ee79a4961b4b3d9f71a4be374c0715eee028755d76"),
    # below the regime boundary: lambda_beta warns once, and count prints
    # its values
    Row("count --beta 1/8 --d 10 --t 2", SERIES,
        "dbb9ffec40c55533ab9388aa88d6fd8a9e679f2fb9d6b2fa2487898489e6ae98",
        stderr="warning: beta = 1/8 is at or below 1 - 2^(-1/2); order-2 "
               "guarantees do not apply, values remain evaluable"),
    # ln 2000! comes from Stirling's series, not the exact factorial
    Row("count-structured --beta 1/2 --d 14 --fixed s1c0g0=2000 --digits 20", SERIES,
        "919f000e1428f52eb52d822727b5bc432f1bd79062dccb06b18c758bb67499cb"),
    # sample runs recorded before the chi-square tail was ported; between
    # them the p-values take every igamc branch: 1 - igam_series (df = 1),
    # the continued fraction (df = 1, 2) and igamc_series (df = 1)
    Row("sample --d 5 --lam 1/2 --samples 20 --thin 4 --seed 0", SAMPLE,
        "ee086510ef02c6788cc3cc18a1d6fb3425038ca6636bbc702942c6ef77d2a36b"),
    Row("sample --d 3 --lam 1 --samples 20 --thin 16 --seed 1", SAMPLE,
        "8b4e4ae649df667ce611fd4c4c15c54338cae31ffda522151d136cf584d92b25"),
    Row(REPORT_INPUTS["sample"], SAMPLE,
        "8c1ad07f8b47e0b0981d33d1c315b2e10426892a813c6aa7eb6371d1920e528d"),
    # the fewest digits, where every field starts undecided
    Row("count --beta 1/3 --d 5 --t 3 --digits 1", SERIES,
        "504a4378fbfee10cff29d078dabe1c142d30d72c9665ccb271976426264eea18"),
    Row("count-structured --beta 1/2 --d 12 --t 3 --fixed s1c0g0=3 "
        "--diverging s2c2g1=40,2 --digits 1", SERIES,
        "7d1977f3f2915987c75889d057f70ee4fbd9843a9450b2f4e8ce85ae5bb7c42c"),
    # stratum_3 is exactly 0.2238517203368246555328369140625, a tie at the
    # 30 printed digits; raised in the number kit it was never decided, and
    # the command exited 2
    Row("zeta --lam 1/3 --d 6 --t 4", SERIES,
        "c9d4a32decf579e8dc016d656745357c5659a274ffd53a9d1a2e757b0d6bc49c"),
    # 1.6M steps after the burn-in: shown two CPUs, the chain forks once and
    # runs its second half ahead in the child
    Row("sample --d 10 --lam 1 --samples 400 --thin 4096 --seed 3 "
        "--csv {tmp}/split.csv", SAMPLE,
        "9f7447b935a240d51102c1f663d1011c0234bbe028e2ffd9eff09d62a2b01a69", cpus=2),
    # the Ursell recursion and the one walk over compatible polymer
    # collections; the sampler with both chi-square p-values; the local CLT;
    # sample's --samples run length and --chains seeds; the closed forms, the
    # oracles, the asymptotic desk check and the targeting trend, so that
    # every criterion runs on the standard library alone.  validate prints
    # each criterion's wall time, so no digest is pinned
    Row("validate --only 1,3,7,8", ALL),
    Row("validate --only 2,4,5,6", ALL),
    Row("validate --only 9", ALL),
    Row("validate --only 10", ALL),
    Row("validate --only 11", ALL),
    Row("report --inputs " + " ".join(f"{{tmp}}/{name}.json" for name in REPORT_INPUTS)
        + " --out-dir {tmp}/report", DIGITS),
    Row("oracle --d 0", EXACT, code=1,
        stderr="error: dimension must be a positive integer, got 0"),
    # refused by ClusterSum.value, after the stratum is built; it divided by
    # zero in (1 + lam)^(-kd) and printed a traceback
    Row("clusters --d 4 --k 2 --lam=-1", CLUSTERS, code=1,
        stderr="error: fugacity must be positive"),
    # refused by structured_count after the base count; a count of
    # MEAN + SHIFT < 0 defects exited 0 with a value
    Row("count-structured --beta 1/2 --d 12 --diverging s1c0g0=2,-5", SERIES,
        code=1, stderr="error: negative count -3 = 2 + (-5) for type s1c0g0"),
    Row("clusters --d 8 --k 6 --budget 100000", CLUSTERS, code=2,
        stderr="error: budget exhausted: connected-set enumeration budget exhausted"),
)


def write_report_inputs(tmp: str) -> None:
    from cubecount import cli

    for name, argv in REPORT_INPUTS.items():
        out = os.path.join(tmp, f"{name}.json")
        if cli.main(argv.split() + ["--out", out]) != 0:
            raise RuntimeError(f"report input {argv!r} failed")


def probe(row: Row, tmp: str) -> dict:
    """The facts of one run of `row` in a fresh interpreter, with its stdout
    digest and the stderr lines before the probe's own."""
    argv = None if row.argv is None else row.argv.format(tmp=tmp).split()
    if argv and argv[0] == "report":
        write_report_inputs(tmp)
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv),
                           str(row.cpus)], capture_output=True)
    *stderr, last = proc.stderr.decode().splitlines() or [""]
    try:
        facts = json.loads(last)
    except ValueError:
        raise RuntimeError(f"the probe failed:\n{proc.stderr.decode()}") from None
    facts.update(exit=proc.returncode, stderr=stderr,
                 sha256=hashlib.sha256(proc.stdout).hexdigest())
    return facts


def check(row: Row, tmp: str) -> list[str]:
    """Each fact of `row`'s run that breaks the contract, as a line."""
    facts = probe(row, tmp)
    want = {
        "exit": row.code,
        "stderr": [] if row.stderr is None else [row.stderr],
        "modules": sorted(row.modules),
        "package": [],
        "foreign": [],
        "frozen": True,
        "held": [],
        "left": False,
        "forks": int(row.cpus > 1),
    }
    if row.sha256 is not None:
        want["sha256"] = row.sha256
    # a probe that died in main reports no facts past "package"
    return [f"{name}: {facts.get(name)!r}, want {value!r}"
            for name, value in want.items() if facts.get(name) != value]


def main() -> int:
    failed = 0
    for row in ROWS:
        with tempfile.TemporaryDirectory() as tmp:
            faults = check(row, tmp)
        failed += bool(faults)
        for fault in faults:
            print(f"{row.name}: {fault}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows keep the contract")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
