"""Command-line front end.

One subcommand per module operation; every command but `validate` and
`report` writes a single JSON document to --out (default stdout) so runs
can be chained into `report`.  Fugacities and densities are parsed as exact
rationals ("1/3", "0.25"), never as floats.

`_Parser`, this module's own, reads a command's options from that command's
declarations alone: `--name VALUE` or `--name=VALUE`, full names only.  A
parse imports nothing (only --help imports `textwrap`), where the standard
library's parser cost a cold command about 3 ms.

Exit codes: 0 success and --help (printed to stdout), 1 bad arguments or
precondition violations (single-line `error: ...` on stderr), 2 exhausted
work budget.

Importing this module registers `gc.freeze` with `atexit`, so a process that
imported it ends without the interpreter's teardown collections, which would
walk every object only to drop it (about 4 ms a command).  `main` itself
leaves the caller's collector as it found it.
"""

from __future__ import annotations

import atexit
import gc
import json
import math
import os
import sys
import types
import warnings
from fractions import Fraction

# Each command imports the layers it runs when it runs, so that no command
# pays for loading a layer it never calls.
from .errors import BudgetExceededError

# The exit's full collections would walk every object only to drop it; they
# skip frozen ones.  A freeze in `main` would pin in-process callers' garbage.
atexit.register(gc.freeze)


# Most decimal digits in a --lam or --beta, counted by `_rational_digits`.  An
# exact rational that long prints in full, and the commands' exact
# arithmetic grows with it: Fraction("1e-10000000") alone took 9 s.
MAX_RATIONAL_DIGITS = 1_000


class _UsageError(Exception):
    pass


class _Parser:
    """One command's options, declared by `add_argument("--name", ...)` with
    the keywords `type`, `default`, `required`, `choices`, `action`
    ("append" or "store_true"), `nargs="+"`, `help` and `metavar`.

    `parse_args` reads `--name VALUE` and `--name=VALUE`, exact names only.
    A value is the next token unless that token starts with `--`, so
    `--lam -1/3` is a value.  A repeated option keeps its last value, an
    "append" one all of them, and nargs="+" takes the tokens up to the next
    `--` one.  Bad usage raises `_UsageError`; -h or --help prints the help
    to stdout and returns None.
    """

    def __init__(self, prog: str, description: str):
        self.prog = prog
        self.description = description
        self.options: dict[str, dict] = {}

    def add_argument(self, name: str, **spec) -> None:
        self.options[name] = spec

    def parse_args(self, argv: list[str]) -> types.SimpleNamespace | None:
        values = {_dest(name): spec.get(
                      "default", False if spec.get("action") == "store_true" else None)
                  for name, spec in self.options.items()}
        given = set()
        i = 0
        while i < len(argv):
            token = argv[i]
            i += 1
            if token in ("-h", "--help"):
                sys.stdout.write(self.format_help())
                return None
            name, eq, text = token.partition("=")
            spec = self.options.get(name) if name.startswith("--") else None
            if spec is None:
                raise _UsageError(f"unrecognized argument {token!r}")
            given.add(name)
            dest, many = _dest(name), spec.get("nargs") == "+"
            if spec.get("action") == "store_true":
                if eq:
                    raise _UsageError(f"{name} takes no value")
                values[dest] = True
                continue
            if eq:
                texts = [text]
            else:
                end = i
                while end < len(argv) and not argv[end].startswith("--") \
                        and (many or end == i):
                    end += 1
                texts, i = argv[i:end], end
                if not texts:
                    raise _UsageError(f"{name} expects a value")
            items = [_convert(name, spec, t) for t in texts]
            if many:
                values[dest] = items
            elif spec.get("action") == "append":
                values[dest] = [*(values[dest] or ()), *items]
            else:
                values[dest] = items[0]
        missing = [name for name, spec in self.options.items()
                   if spec.get("required") and name not in given]
        if missing:
            raise _UsageError("the following options are required: "
                              + ", ".join(missing))
        return types.SimpleNamespace(**values)

    def format_help(self) -> str:
        shown = {name: _shown(name, spec) for name, spec in self.options.items()}
        # a no-break space keeps each option whole when the usage wraps
        usage = " ".join((text if self.options[name].get("required")
                          else f"[{text}]").replace(" ", "\xa0")
                         for name, text in shown.items())
        return _format_help(
            f"{self.prog} [-h] {usage}", self.description, "options",
            [("-h, --help", "show this help and exit")]
            + [(shown[name], spec.get("help")) for name, spec in self.options.items()])


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _convert(name: str, spec: dict, text: str):
    """`text` as the option's `type` reads it, one of its `choices`."""
    try:
        value = spec.get("type", str)(text)
    except ValueError:
        raise _UsageError(f"{name}: invalid value {text!r}")
    choices = spec.get("choices")
    if choices is not None and value not in choices:
        raise _UsageError(f"{name}: invalid choice {text!r} "
                          f"(choose from {', '.join(choices)})")
    return value


def _shown(name: str, spec: dict) -> str:
    """The option as usage and help show it: `--name METAVAR`."""
    if spec.get("action") == "store_true":
        return name
    choices = spec.get("choices")
    metavar = spec.get("metavar") or (
        "{" + ",".join(choices) + "}" if choices else _dest(name).upper())
    if spec.get("nargs") == "+":
        return f"{name} {metavar} [{metavar} ...]"
    return f"{name} {metavar}"


def _format_help(usage: str, description: str, heading: str,
                 rows: list[tuple[str, str | None]]) -> str:
    """A usage line, the description and (label, help text) rows under
    `heading`, wrapped to 79 columns with the text from column 24."""
    import textwrap
    lines = [textwrap.fill(f"usage: {usage}", 79, subsequent_indent=" " * 7,
                           break_long_words=False,
                           break_on_hyphens=False).replace("\xa0", " "),
             "", textwrap.fill(description, 79), "", f"{heading}:"]
    for label, text in rows:
        head = f"  {label}"
        if text and len(head) > 22:  # the text starts on a line of its own
            lines.append(head)
            head = ""
        lines.append(textwrap.fill(text, 79, initial_indent=head.ljust(24),
                                   subsequent_indent=" " * 24) if text else head)
    return "\n".join(lines) + "\n"


def _rational_digits(text: str) -> int:
    """The decimal digits of `text`, with an exponent counted at its value:
    1e-N is a fraction of N + 1 digits."""
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    digits = sum(c.isdecimal() for c in mantissa)
    if not exponent.isdecimal():  # none, zero, or one Fraction rejects
        return digits + sum(c.isdecimal() for c in exponent)
    # ten digits already exceed any bound
    return digits + int(exponent[:10])


def _quoted(text: str) -> str:
    return repr(text if len(text) <= 40 else text[:37] + "...")


def _rational(text: str) -> Fraction:
    if _rational_digits(text) > MAX_RATIONAL_DIGITS:
        raise _UsageError(f"{_quoted(text)} has more than {MAX_RATIONAL_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"not a rational number: {_quoted(text)}")


def _budget(text: str) -> int:
    """--budget: a node count; 0 is a budget, a negative count bad usage."""
    value = int(text)  # the parser reports a non-integer as bad usage
    if value < 0:
        raise _UsageError(f"--budget must be >= 0, got {value}")
    return value


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise _UsageError(f"cannot write {path}: {e}")


def _emit(obj: dict, out: str | None) -> None:
    blob = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(blob)
    else:
        _write(out, blob)


def _defect_type(key: str):
    """The defect type of a type key, refused past polymers.MAX_TYPE_SIZE."""
    from . import polymers
    t = polymers.DefectType.from_key(key)
    if t.size > polymers.MAX_TYPE_SIZE:
        raise _UsageError(f"type {key} has size {t.size}; defect types "
                          f"have size <= {polymers.MAX_TYPE_SIZE}")
    return t


def _parse_observable(text: str, power: int) -> clusters.Observable:
    from . import clusters
    if text.startswith("type:"):
        key = text[len("type:"):]
        _defect_type(key)  # validate early
        return clusters.Observable("type_count", power, key)
    if text not in ("one", "size", "nbhd", "size_nbhd"):
        raise _UsageError(f"unknown observable {text!r}; use one, size, nbhd, "
                          "size_nbhd, or type:KEY")
    return clusters.Observable(text, power)  # rejects a power it cannot apply


# -- subcommand bodies -------------------------------------------------------------


def _cmd_oracle(args) -> dict:
    from . import exact
    if args.lam is not None and args.lam <= 0:
        raise _UsageError("--lam must be positive")
    profile = exact.size_profile(args.d)
    out = profile.to_json()
    out["total"] = str(profile.total)
    if args.lam is not None:
        from .certified import evaluate
        lam = args.lam
        z = profile.partition_value(lam)
        out.update({
            "lam": str(lam),
            "Z": str(z),
            "ln_Z": evaluate(lambda num: num.render(num.log1p(z - 1), 20), 20),
            "mean_size": str(profile.mean_size(lam)),
        })
    return out


def _cmd_polymers(args) -> dict:
    from . import polymers
    if args.mode == "symbolic":
        # the counts are polynomials in d, from one budget-free enumeration
        for flag, value in (("--d", args.d), ("--budget", args.budget)):
            if value is not None:
                raise _UsageError(f"--mode symbolic takes no {flag}")
        sym = polymers.symbolic_census(args.max_size)
        return {
            "max_size": sym.max_size,
            "grid": list(sym.grid),
            "entries": [
                {"key": t.key, "size": t.size, "deficiency": t.deficiency,
                 "cert": t.cert, "text": p.text(),
                 "count_over_n_side": p.to_json()}
                for t, p in sym.entries
            ],
        }
    if args.d is None:
        raise _UsageError("--d is required unless --mode symbolic")
    if args.mode == "list":
        found = polymers.enumerate_polymers(args.d, args.max_size,
                                            budget=args.budget)
        return {
            "d": args.d,
            "max_size": args.max_size,
            "polymers": [
                {"support": sorted(p.support), "nbhd_size": p.nbhd_size,
                 "type": p.type.key}
                for p in found
            ],
        }
    return polymers.census(args.d, args.max_size, budget=args.budget).to_json()


def _cmd_clusters(args) -> dict:
    from . import clusters
    obs = _parse_observable(args.observable, args.power)
    cs = clusters.cluster_sum(args.d, args.k, obs, budget=args.budget)
    out = cs.to_json()
    if args.lam is not None:
        lam = args.lam
        v = cs.value(lam)
        out["lam"] = str(lam)
        out["stratum_value"] = str(v)
        out["stratum_value_float"] = float(v)
        if obs.kind == "one":  # the running total of strata 1..k
            t = sum((clusters.cluster_sum(args.d, j).value(lam)
                     for j in range(1, args.k)), v)
            out["stratum_partial_sum"] = str(t)
            out["stratum_partial_sum_float"] = float(t)
    return out


def _cmd_rj(args) -> dict:
    from . import asymptotics
    if args.j < 1:
        raise _UsageError("--j must be >= 1")
    table = {j: asymptotics.R_poly(j, budget=args.budget)
             for j in range(1, args.j + 1)}
    return {"kind": "R", "jmax": args.j,
            "entries": asymptotics.series_rows("R", table)}


def _cmd_bj(args) -> dict:
    from . import asymptotics
    table = asymptotics.compute_B(args.r)
    return {"kind": "B", "rmax": args.r,
            "entries": asymptotics.series_rows("B", table)}


def _cmd_pj(args) -> dict:
    from . import asymptotics
    if args.t < 2:
        raise _UsageError("--t must be >= 2 (order t uses corrections j <= t-1)")
    table = asymptotics.compute_P(args.t - 1)
    return {"kind": "P", "t": args.t,
            "entries": asymptotics.series_rows("P", table)}


def _cmd_lambda_beta(args) -> dict:
    from . import asymptotics
    lb = asymptotics.lambda_beta(args.beta, args.d, args.t)
    return lb.to_json()


def _cmd_count(args) -> dict:
    from . import asymptotics
    lc = asymptotics.log_count_asymptotic(args.beta, args.d, args.t,
                                          digits=args.digits)
    out = lc.to_json()
    out.update({"beta": str(args.beta), "d": args.d, "t": args.t})
    return out


def _parse_typed_pairs(pairs: list[str], diverging: bool) -> dict:
    form = "KEY=MEAN,SHIFT" if diverging else "KEY=COUNT"
    out = {}
    for item in pairs:
        if "=" not in item:
            raise _UsageError(f"expected {form} in {item!r}")
        key, _, rest = item.partition("=")
        t = _defect_type(key)
        if t in out:
            raise _UsageError(f"type {t.key} given twice to "
                              f"{'--diverging' if diverging else '--fixed'}")
        try:
            values = tuple(map(int, rest.split(",")))
        except ValueError:
            values = ()
        if len(values) != 1 + diverging:
            raise _UsageError(f"expected {form} in {item!r}")
        out[t] = values if diverging else values[0]
    return out


def _cmd_count_structured(args) -> dict:
    from . import asymptotics
    fixed = _parse_typed_pairs(args.fixed or [], diverging=False)
    diverging = _parse_typed_pairs(args.diverging or [], diverging=True)
    lc = asymptotics.structured_count(args.beta, args.d, fixed, diverging,
                                      t=args.t, digits=args.digits,
                                      budget=args.budget)
    out = lc.to_json()
    out.update({
        "beta": str(args.beta), "d": args.d, "t": args.t,
        "fixed": {t.key: k for t, k in sorted(fixed.items())},
        "diverging": {t.key: list(v) for t, v in sorted(diverging.items())},
    })
    return out


def _cmd_zeta(args) -> dict:
    from . import asymptotics
    lc = asymptotics.log_Z_asymptotic(args.lam, args.d, args.t,
                                      digits=args.digits)
    out = lc.to_json()
    out.update({"lam": str(args.lam), "d": args.d, "t": args.t})
    return out


def _cmd_sample(args) -> dict:
    from . import polymers, sampler
    if args.samples < 2:
        raise _UsageError("--samples must be >= 2")
    if args.census_size < 1:
        raise _UsageError("--census-size must be >= 1")
    polymers.check_census_bounds(args.d, args.census_size)
    if args.d > 5 and args.census_size > 5:
        # census(7, 6) took 96 s, and sample has no --budget to bound it
        raise _UsageError(
            f"--census-size {args.census_size} at d = {args.d} is a census "
            "without a budget; take it with polymers --d D --max-size S "
            "--budget N, and sample with --census-size <= 5")
    if args.thin < 1:
        raise _UsageError("--thin must be >= 1")
    burn_in = args.burn_in if args.burn_in is not None \
        else sampler.default_burn_in(args.d)
    # each chain takes --samples snapshots, one every --thin steps after the
    # burn-in
    steps = burn_in + args.thin * args.samples
    chains = sampler.sample_chains(
        args.d, args.lam, steps, burn_in=burn_in, thin=args.thin,
        seed=args.seed, chains=args.chains, debug=args.debug)
    states = [s for chain in chains for s in chain]
    reports = [sampler.extract_defects(s, debug=args.debug) for s in states]
    if args.csv is not None:
        _write(args.csv, sampler.reports_to_csv(states, reports))
    cen = polymers.census(args.d, args.census_size)
    summary = sampler.defect_statistics(states, reports, cen, args.lam)
    out = summary.to_json()
    out["config"] = {
        "steps": steps, "burn_in": burn_in, "thin": args.thin,
        "seed": args.seed, "chains": args.chains,
        "census_size": args.census_size,
    }
    return out


def _cmd_validate(args) -> int:
    from . import validation
    numbers = None
    if args.only is not None:
        try:
            numbers = [int(x) for x in args.only.replace(",", " ").split()]
        except ValueError:
            raise _UsageError(f"--only wants criterion numbers, got {args.only!r}")
        if not numbers:
            raise _UsageError(f"--only names no criterion: {args.only!r}")
        known = {c.number for c in validation.CRITERIA}
        bad = [n for n in numbers if n not in known]
        if bad:
            raise _UsageError(f"unknown criterion numbers: {bad}")
    results = validation.run_all(numbers)
    return 0 if all(r.passed for r in results) else 1


# -- report: merge prior outputs into tables and plot data -------------------------


# an input's kind: the first whose fields it holds; an input of kind None
# (a count-structured output, whose ln_value is no ln i_m) or of no kind is
# skipped
_REPORT_KINDS = (("oracle", {"counts", "d"}), ("zeta", {"ln_value", "lam"}),
                 (None, {"fixed", "diverging"}),
                 ("count", {"ln_value", "beta"}), ("sample", {"per_type"}))
_NUMBER = (int, float)


def _field(obj: dict, name: str, want=str):
    """obj[name], refused unless JSON loaded it as the type `want`: true
    and false load as bool, an int subclass, and are refused."""
    if name not in obj:
        raise _UsageError(f"lacks {name}")
    value = obj[name]
    if not isinstance(value, want) or isinstance(value, bool):
        raise _UsageError(f"has a malformed {name}")
    return value


def _read_oracle(obj: dict) -> exact.SizeProfile:
    from . import exact
    d, counts = _field(obj, "d", int), _field(obj, "counts", list)
    if not 1 <= d <= exact.ORACLE_MAX_DIM:  # before 2^(d-1) is built
        raise _UsageError(f"has d = {d} outside 1 .. {exact.ORACLE_MAX_DIM}")
    sizes = (1 << (d - 1)) + 1
    if len(counts) != sizes:
        raise _UsageError(f"has {len(counts)} counts, where Q_{d} has {sizes} set sizes")
    if not all(isinstance(c, str) and c.isascii() and c.isdigit() for c in counts):
        raise _UsageError("has a count that is not a nonnegative integer")
    # Q_d has at most 2^(2^d) independent sets; a longer count is refused
    # before int() meets the interpreter's limit on the digits it converts
    digits = len(str(1 << (1 << d)))
    if any(len(c) > digits for c in counts):
        raise _UsageError(f"has a count of more than {digits} digits, past 2^{1 << d}")
    return exact.SizeProfile(d, tuple(map(int, counts)))


def _read_series(obj: dict, kind: str) -> tuple[tuple, Fraction, tuple]:
    """A zeta or count output: its group (the quantity, d, the parameter as
    written), the parameter, and its row (t, ln_value).  ln_value, lam and
    beta obey the digit bound of --lam and --beta."""
    from decimal import Decimal, InvalidOperation
    name = "lam" if kind == "zeta" else "beta"
    d, t, text, ln = (_field(obj, "d", int), _field(obj, "t", int),
                      _field(obj, name), _field(obj, "ln_value"))
    try:
        value = Decimal(ln) if _rational_digits(ln) <= MAX_RATIONAL_DIGITS else None
    except InvalidOperation:
        value = None
    if value is None or not value.is_finite():
        raise _UsageError(f"has ln_value {_quoted(ln)}, not a finite number of at "
                          f"most {MAX_RATIONAL_DIGITS} digits")
    try:
        param = _rational(text)
    except _UsageError as e:
        raise _UsageError(f"has a bad {name}: {e}")
    if not (0 < param < 1 or name == "lam" and param > 0):
        want = "a positive rational" if name == "lam" else "a rational in (0, 1)"
        raise _UsageError(f"has a bad {name}: {_quoted(text)} is not {want}")
    return ("Z" if name == "lam" else "i_m", d, text), param, (t, value)


def _read_sample(obj: dict, path: str) -> tuple[list[str], list[str]]:
    """A sample output's report lines and gof.dat rows."""
    d, lam = _field(obj, "d", int), _field(obj, "lam")
    samples, per_type = _field(obj, "samples", int), _field(obj, "per_type", dict)
    lines = [f"sampler summary: d={d}, lam={lam}, {samples} samples ({path})"]
    gof_rows = [f"# {path}: index p_value; one row per defect type"]
    for key in sorted(per_type):
        entry = _field(per_type, key, dict)
        bits = [f"  {key}: mean {_field(entry, 'mean', _NUMBER):.4f}"]
        if "m_T" in entry:
            bits.append(f"predicted {_field(entry, 'm_T', _NUMBER):.4f}")
        if "z" in entry:
            bits.append(f"z {_field(entry, 'z', _NUMBER):+.2f}")
        if entry.get("poisson_gof"):
            p = _field(_field(entry, "poisson_gof", dict), "p", _NUMBER)
            bits.append(f"gof p {p:.3f}")
            gof_rows.append(f"{len(gof_rows) - 1} {p:.6f}")
        lines.append(", ".join(bits))
    return lines + [""], gof_rows + [""]


def _exact_fields(num, reference, values):
    """The exact value, 12 digits, and for each value v |v - exact| at 6
    and 10 digits, printed in the number kit num."""
    exact = reference(num)
    errors = []
    for v in values:
        error = num.coerce(v) - exact
        error = error if error.lo >= 0 else -error  # undecided if it holds 0
        errors.append((num.render(error, 6), num.render(error, 10)))
    return num.render(exact, 12), errors


def _cmd_report(args) -> int:
    from .certified import evaluate, nstr
    oracles, groups, samples = {}, {}, []
    for path in args.inputs:
        try:
            with open(path) as f:
                obj = json.load(f)
        except (OSError, json.JSONDecodeError, RecursionError) as e:
            raise _UsageError(f"cannot read {path}: {e}")
        if not isinstance(obj, dict):
            raise _UsageError(f"{path}: expected a JSON object, got {type(obj).__name__}")
        kind = next((k for k, marks in _REPORT_KINDS if marks <= obj.keys()), None)
        try:
            if kind == "oracle":
                profile = _read_oracle(obj)
                oracles[profile.d] = profile
            elif kind == "sample":
                samples.append(_read_sample(obj, path))
            elif kind is not None:
                key, param, row = _read_series(obj, kind)
                groups.setdefault(key, (param, []))[1].append(row)
        except _UsageError as e:
            raise _UsageError(f"{path}: {kind} output {e}")
    if not groups and not samples:
        raise _UsageError("nothing to report: no input is a count, zeta or "
                          "sample output (oracles serve only as references)")

    lines: list[str] = []
    trunc_rows: list[str] = []
    for (quantity, d, text), (param, rows) in sorted(groups.items()):
        rows.sort()
        reference = None
        if d in oracles and quantity == "Z":
            z = oracles[d].partition_value(param)
            reference = lambda num: num.log1p(z - 1)
        elif d in oracles:
            count = oracles[d].counts[math.floor(param * (1 << (d - 1)))]
            if count:
                reference = lambda num: num.log(count)
        label = f"ln {quantity}, d={d}, {'lam' if quantity == 'Z' else 'beta'}={text}"
        lines.append(label)
        if reference is None:
            lines += [f"  t={t}: {nstr(v, 12)}" for t, v in rows]
        else:
            exact, errors = evaluate(
                lambda num: _exact_fields(num, reference, [v for _, v in rows]), 12)
            lines.append(f"  exact: {exact}")
            trunc_rows.append(f"# {label}")
            for (t, v), (short, long) in zip(rows, errors):
                lines.append(f"  t={t}: {nstr(v, 12)}  |error| = {short}")
                trunc_rows.append(f"{t} {long}")
            trunc_rows.append("")
        lines.append("")
    gof_rows: list[str] = []
    for sample_lines, sample_rows in samples:
        lines += sample_lines
        gof_rows += sample_rows

    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as e:
        raise _UsageError(f"cannot create {args.out_dir}: {e}")
    paths = []
    for name, rows in (("report.txt", lines), ("truncation_error.dat", trunc_rows),
                       ("gof.dat", gof_rows)):
        paths.append(os.path.join(args.out_dir, name))
        _write(paths[-1], "\n".join(rows).rstrip() + "\n")
    sys.stdout.write("\n".join(lines).rstrip() + f"\nwrote {', '.join(paths)}\n")
    return 0


# -- parser wiring ------------------------------------------------------------------


def _oracle_arguments(p) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lam", type=_rational)


def _polymers_arguments(p) -> None:
    p.add_argument("--d", type=int)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--mode", choices=["census", "list", "symbolic"],
                   default="census")
    p.add_argument("--budget", type=_budget,
                   help="node budget for the support enumeration; a census "
                        "runs it at the base dimension "
                        "min(d, free_dim(max_size)) over the search cut to "
                        "prefix active sets, --mode list over every polymer "
                        "at d")


def _clusters_arguments(p) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--observable", default="one")
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--lam", type=_rational)
    p.add_argument("--budget", type=_budget,
                   help="node budget for the cluster enumeration behind the "
                        "stratum's (e, a) table, at min(d, free_dim(k)); it "
                        "counts the nodes of the search cut to prefix active "
                        "sets")


def _rj_arguments(p) -> None:
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--budget", type=_budget,
                   help="node budget for the cluster enumeration at each "
                        "base dimension, counted over the search cut to "
                        "prefix active sets; grid points that share a base "
                        "dimension reuse its completed (e, a) table")


def _bj_arguments(p) -> None:
    p.add_argument("--r", type=int, required=True)


def _pj_arguments(p) -> None:
    p.add_argument("--t", type=int, required=True)


def _beta_d_t_arguments(p) -> None:
    p.add_argument("--beta", type=_rational, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)


def _count_arguments(p) -> None:
    _beta_d_t_arguments(p)
    p.add_argument("--digits", type=int, default=80)


def _count_structured_arguments(p) -> None:
    p.add_argument("--beta", type=_rational, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--digits", type=int, default=80)
    p.add_argument("--fixed", action="append", metavar="KEY=COUNT",
                   help="defect type pinned to an exact count; COUNT times "
                        "the type's size is at most half a side")
    p.add_argument("--diverging", action="append", metavar="KEY=MEAN,SHIFT",
                   help="defect type at MEAN + SHIFT >= 0 defects, with "
                        "Gaussian weight about its mean MEAN > 0; a type is "
                        "fixed or diverging, not both")
    p.add_argument("--budget", type=_budget,
                   help="node budget for the polymer census behind --fixed, "
                        "counted over the search cut to prefix active sets")


def _zeta_arguments(p) -> None:
    p.add_argument("--lam", type=_rational, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--digits", type=int, default=80)


def _sample_arguments(p) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lam", type=_rational, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200,
                   help="snapshots each chain takes")
    p.add_argument("--burn-in", type=int)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--census-size", type=int, default=3,
                   help="max defect size for the census comparison")
    p.add_argument("--csv", help="also write the per-snapshot CSV log here")
    p.add_argument("--debug", action="store_true",
                   help="check invariants at each snapshot")


def _validate_arguments(p) -> None:
    p.add_argument("--only", help="comma-separated criterion numbers")


def _report_arguments(p) -> None:
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out-dir", default=".")


# name: (help line, the function that adds its options, the one that runs
# it, whether it prints JSON).  A JSON command's run returns the document to
# print; the others print their own output and return the exit code.
_COMMANDS = {
    "oracle": ("exact size profile for 1 <= d <= 6, by splitting Q_d as "
               "C_4 x Q_(d-2)", _oracle_arguments, _cmd_oracle, True),
    "polymers": ("defect enumeration and census", _polymers_arguments,
                 _cmd_polymers, True),
    "clusters": ("one stratum of the cluster expansion", _clusters_arguments,
                 _cmd_clusters, True),
    "rj": ("expansion coefficients R_j as polynomials in (lam, d)",
           _rj_arguments, _cmd_rj, True),
    "bj": ("fugacity-correction coefficients B_j", _bj_arguments, _cmd_bj,
           True),
    "pj": ("density-series coefficients P_j for orders j <= t-1",
           _pj_arguments, _cmd_pj, True),
    "lambda-beta": ("fugacity tuned to hit density beta", _beta_d_t_arguments,
                    _cmd_lambda_beta, True),
    "count": ("log of the number of independent sets of size beta*N",
              _count_arguments, _cmd_count, True),
    "count-structured": ("count restricted by defect structure",
                         _count_structured_arguments, _cmd_count_structured,
                         True),
    "zeta": ("log of the partition function Z(lam)", _zeta_arguments,
             _cmd_zeta, True),
    "sample": ("Glauber dynamics run with defect statistics",
               _sample_arguments, _cmd_sample, True),
    "validate": ("run the acceptance suite", _validate_arguments,
                 _cmd_validate, False),
    "report": ("merge JSON outputs into tables and plot data",
               _report_arguments, _cmd_report, False),
}


def _declare(p, name: str) -> None:
    """Declare command `name`'s options on `p`: `--out` where it prints
    JSON, then its own."""
    _, arguments, _, prints_json = _COMMANDS[name]
    if prints_json:
        p.add_argument("--out", help="output file (default stdout)")
    arguments(p)


def _commands_help() -> str:
    return _format_help(
        "cubecount [-h] {" + ",".join(_COMMANDS) + "} ...",
        "Independent-set counting in hypercubes: exact oracles, cluster "
        "expansions, asymptotic formulas, and Monte Carlo checks.  "
        "`cubecount COMMAND --help` lists a command's options.",
        "commands", [(name, entry[0]) for name, entry in _COMMANDS.items()])


def _int_str_limit(digits: int) -> int:
    """Set Python's limit on int-to-str digits (0 lifts it) and return the
    previous one; without such a limit, do nothing and return 0."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        return 0
    previous = get()
    sys.set_int_max_str_digits(digits)
    return previous


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv[:1] in (["-h"], ["--help"]):
            sys.stdout.write(_commands_help())
            return 0
        if not argv or argv[0] not in _COMMANDS:
            got = f"unknown command {argv[0]!r}" if argv else "no command"
            raise _UsageError(f"{got} (choose from {', '.join(_COMMANDS)})")
        name, *options = argv
        help_text, _, run, prints_json = _COMMANDS[name]
        parser = _Parser(f"cubecount {name}", help_text)
        _declare(parser, name)
        args = parser.parse_args(options)
        if args is None:  # the help was asked for and printed
            return 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if prints_json:
                # exact rationals print in full; _rational bounds the inputs
                limit = _int_str_limit(0)
                try:
                    _emit(run(args), args.out)
                finally:
                    _int_str_limit(limit)
                code = 0
            else:
                code = run(args)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        return code
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BudgetExceededError as e:
        print(f"error: budget exhausted: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
