"""Command-line front end.

One subcommand per module operation; every command writes a single JSON
document to --out (default stdout) so runs can be chained into `report`.
Fugacities and densities are parsed as exact rationals ("1/3", "0.25"),
never as floats.

Exit codes: 0 success, 1 bad arguments or precondition violations
(single-line `error: ...` on stderr), 2 exhausted work budget.

Importing this module registers `gc.freeze` with `atexit`, so a process that
imported it ends without the interpreter's teardown collections, which would
walk every object only to drop it (about 4 ms a command).  `main` itself
leaves the caller's collector as it found it.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
import warnings
from fractions import Fraction

# Each command imports the layers it runs when it runs, so that no command
# pays for loading a layer it never calls.
from .errors import BudgetExceededError

# The exit's full collections would walk every object only to drop it; they
# skip frozen ones.  A freeze in `main` would pin in-process callers' garbage.
atexit.register(gc.freeze)


# Largest --digits accepted by count, count-structured and zeta.  The fields
# print at min(--digits, 30) digits, so a larger value changes only the
# "precision" field; the bound is input validation.
MAX_DIGITS = 10_000

# Largest size of a --lam or --beta, counted by `_rational_digits`.  An
# exact rational that long prints in full, and the commands' exact
# arithmetic grows with it: Fraction("1e-10000000") alone took 9 s.
MAX_RATIONAL_DIGITS = 1_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse that reports bad usage on one line with exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _rational_digits(text: str) -> int:
    """The length of `text`, with an exponent counted at its value: 1e-N is
    a fraction of N + 1 digits."""
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if not exponent.isdecimal():  # none, zero, or one Fraction rejects
        return len(text)
    # ten digits already exceed any bound
    return len(mantissa) + int(exponent[:10])


def _rational(text: str) -> Fraction:
    shown = repr(text if len(text) <= 40 else text[:37] + "...")
    if _rational_digits(text) > MAX_RATIONAL_DIGITS:
        raise _UsageError(f"{shown} has more than {MAX_RATIONAL_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"not a rational number: {shown}")


def _budget(text: str) -> int:
    """--budget: a node count; 0 is a budget, a negative count bad usage."""
    value = int(text)  # argparse reports a non-integer as bad usage
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


def _parse_observable(text: str, power: int) -> clusters.Observable:
    from . import clusters, polymers
    if text.startswith("type:"):
        key = text[len("type:"):]
        polymers.DefectType.from_key(key)  # validate early
        return clusters.Observable.type_count(key, power)
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
        if obs.kind == "one":
            t = clusters.stratum_partial_sum(args.d, lam, args.k)
            out["stratum_partial_sum"] = str(t)
            out["stratum_partial_sum_float"] = float(t)
    return out


def _cmd_rj(args) -> dict:
    from . import asymptotics
    if args.j < 1:
        raise _UsageError("--j must be >= 1")
    table = asymptotics.R_table(args.j, budget=args.budget)
    return {"kind": "R", "jmax": args.j, "entries": table.to_json()}


def _cmd_bj(args) -> dict:
    from . import asymptotics
    table = asymptotics.compute_B(args.r)
    return {"kind": "B", "rmax": args.r, "entries": table.to_json()}


def _cmd_pj(args) -> dict:
    from . import asymptotics
    if args.t < 2:
        raise _UsageError("--t must be >= 2 (order t uses corrections j <= t-1)")
    table = asymptotics.compute_P(args.t - 1)
    return {"kind": "P", "t": args.t, "entries": table.to_json()}


def _cmd_lambda_beta(args) -> dict:
    from . import asymptotics
    lb = asymptotics.lambda_beta(args.beta, args.d, args.t)
    return lb.to_json()


def _cmd_count(args) -> dict:
    from . import asymptotics
    _check_digits(args.digits)
    lc = asymptotics.log_count_asymptotic(args.beta, args.d, args.t,
                                          digits=args.digits)
    out = lc.to_json()
    out.update({"beta": str(args.beta), "d": args.d, "t": args.t})
    return out


def _parse_typed_pairs(pairs: list[str], diverging: bool) -> dict:
    from . import polymers
    out = {}
    for item in pairs:
        if "=" not in item:
            raise _UsageError(f"expected KEY=... in {item!r}")
        key, _, rest = item.partition("=")
        t = polymers.DefectType.from_key(key)
        if t.size > polymers.MAX_TYPE_SIZE:
            raise _UsageError(f"type {key} has size {t.size}; defect types "
                              f"have size <= {polymers.MAX_TYPE_SIZE}")
        if diverging:
            parts = rest.split(",")
            if len(parts) != 2:
                raise _UsageError(f"expected KEY=COUNT,SHIFT in {item!r}")
            out[t] = (int(parts[0]), int(parts[1]))
        else:
            out[t] = int(rest)
    return out


def _cmd_count_structured(args) -> dict:
    from . import asymptotics
    _check_digits(args.digits)
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
    _check_digits(args.digits)
    lc = asymptotics.log_Z_asymptotic(args.lam, args.d, args.t,
                                      digits=args.digits)
    out = lc.to_json()
    out.update({"lam": str(args.lam), "d": args.d, "t": args.t})
    return out


def _check_digits(digits: int) -> None:
    if not 1 <= digits <= MAX_DIGITS:
        raise _UsageError(f"--digits must lie in [1, {MAX_DIGITS}]")


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
    if args.only:
        try:
            numbers = [int(x) for x in args.only.replace(",", " ").split()]
        except ValueError:
            raise _UsageError(f"--only wants criterion numbers, got {args.only!r}")
        known = {c.number for c in validation.CRITERIA}
        bad = [n for n in numbers if n not in known]
        if bad:
            raise _UsageError(f"unknown criterion numbers: {bad}")
    results = validation.run_all(numbers)
    return 0 if all(r.passed for r in results) else 1


# -- report: merge prior outputs into tables and plot data -------------------------


def _load_inputs(paths: list[str]) -> list[tuple[str, dict]]:
    loaded = []
    for p in paths:
        try:
            with open(p) as f:
                obj = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise _UsageError(f"cannot read {p}: {e}")
        if not isinstance(obj, dict):
            raise _UsageError(f"{p}: expected a JSON object, got {type(obj).__name__}")
        loaded.append((p, obj))
    return loaded


# the fields report reads from each kind of input, with their JSON types
_REPORT_FIELDS = {
    "oracle": {"d": "integer", "counts": "array"},
    "zeta": {"d": "integer", "lam": "string", "t": "integer",
             "ln_value": "string"},
    "count": {"d": "integer", "beta": "string", "t": "integer",
              "ln_value": "string"},
    "sample": {"d": "integer", "lam": "string", "samples": "integer",
               "per_type": "object"},
}
_JSON_TYPES = {"integer": int, "number": (int, float), "string": str,
               "array": list, "object": dict}


def _is_json(value, name: str) -> bool:
    # JSON true and false load as bool, which is an int subclass
    return isinstance(value, _JSON_TYPES[name]) and not isinstance(value, bool)


def _check_report_input(path: str, kind: str, obj: dict) -> None:
    """Raise a usage error unless `obj` has every field report reads, typed."""
    fields = _REPORT_FIELDS.get(kind, {})
    missing = [name for name in fields if name not in obj]
    if missing:
        raise _UsageError(f"{path}: {kind} output lacks {', '.join(missing)}")
    wrong = [f"{name} (not a JSON {t})" for name, t in fields.items()
             if not _is_json(obj[name], t)]
    if kind == "oracle" and not wrong and not all(
            _is_json(c, "string") for c in obj["counts"]):
        wrong.append("counts (not an array of strings)")
    if kind == "sample" and not wrong and not all(
            isinstance(e, dict) and _is_json(e.get("mean"), "number")
            and all(_is_json(e[k], "number") for k in ("m_T", "z") if k in e)
            and (not e.get("poisson_gof") or (
                isinstance(e["poisson_gof"], dict)
                and _is_json(e["poisson_gof"].get("p"), "number")))
            for e in obj["per_type"].values()):
        wrong.append("per_type (each entry needs a numeric mean, and numeric "
                     "m_T, z and poisson_gof p where present)")
    if wrong:
        raise _UsageError(f"{path}: {kind} output has a malformed "
                          f"{', '.join(wrong)}")
    bad = _report_value_error(kind, obj)
    if bad:
        raise _UsageError(f"{path}: {kind} output has {bad}")


def _report_value_error(kind: str, obj: dict) -> str | None:
    """What is wrong with a value report computes with, or None."""
    from decimal import Decimal, InvalidOperation

    from . import exact
    if kind == "oracle":
        d, counts = obj["d"], obj["counts"]
        if not 1 <= d <= exact.ORACLE_MAX_DIM:  # before 2^(d-1) is built
            return f"d = {d} outside 1 .. {exact.ORACLE_MAX_DIM}"
        if len(counts) != (1 << (d - 1)) + 1:
            return f"{len(counts)} counts, where Q_{d} has {(1 << (d - 1)) + 1} set sizes"
        if not all(c.isascii() and c.isdigit() for c in counts):
            return "a count that is not a nonnegative integer"
    if kind in ("zeta", "count"):
        try:
            finite = Decimal(obj["ln_value"]).is_finite()
        except InvalidOperation:
            finite = False
        if not finite:
            return f"ln_value {obj['ln_value']!r}, not a finite number"
        name, want = (("lam", "a positive rational") if kind == "zeta"
                      else ("beta", "a rational in (0, 1)"))
        try:
            value = Fraction(obj[name])
            ok = value > 0 if kind == "zeta" else 0 < value < 1
        except (ValueError, ZeroDivisionError):
            ok = False
        if not ok:
            return f"{name} {obj[name]!r}, not {want}"
    return None


def _classify(obj: dict) -> str:
    if "counts" in obj and "d" in obj:
        return "oracle"
    if "ln_value" in obj and "lam" in obj:
        return "zeta"
    if "ln_value" in obj and "beta" in obj:
        return "count"
    if "per_type" in obj:
        return "sample"
    return "other"


def _cmd_report(args) -> int:
    from decimal import Decimal

    from . import exact
    from .certified import decimal_contexts, nstr
    inputs = _load_inputs(args.inputs)
    by_kind: dict[str, list[tuple[str, dict]]] = {}
    for path, obj in inputs:
        kind = _classify(obj)
        _check_report_input(path, kind, obj)
        by_kind.setdefault(kind, []).append((path, obj))
    if not by_kind.keys() & {"zeta", "count", "sample"}:
        raise _UsageError("nothing to report: no input is a count, zeta or "
                          "sample output (oracles serve only as references)")
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as e:
        raise _UsageError(f"cannot create {args.out_dir}: {e}")

    oracles = {obj["d"]: exact.SizeProfile.from_json(obj)
               for _, obj in by_kind.get("oracle", [])}
    lines: list[str] = []
    trunc_rows: list[str] = []

    _, _, near = decimal_contexts(30)
    groups: dict[tuple, list[tuple[int, Decimal]]] = {}
    for _, obj in by_kind.get("zeta", []):
        groups.setdefault(("Z", obj["d"], obj["lam"]), []).append(
            (obj["t"], Decimal(obj["ln_value"])))
    for _, obj in by_kind.get("count", []):
        groups.setdefault(("i_m", obj["d"], obj["beta"]), []).append(
            (obj["t"], Decimal(obj["ln_value"])))

    for (kind, d, param), rows in sorted(groups.items()):
        rows.sort()
        reference = None
        if d in oracles:
            profile = oracles[d]
            if kind == "Z":
                z = profile.partition_value(Fraction(param))
                reference = near.ln(near.divide(z.numerator, z.denominator))
            else:
                m = math.floor(Fraction(param) * (1 << (d - 1)))
                if profile.counts[m] > 0:
                    reference = near.ln(profile.counts[m])
        label = f"ln {kind}, d={d}, " + \
            (f"lam={param}" if kind == "Z" else f"beta={param}")
        lines.append(label)
        if reference is not None:
            lines.append(f"  exact: {nstr(reference, 12)}")
            trunc_rows.append(f"# {label}")
        for t, v in rows:
            if reference is None:
                lines.append(f"  t={t}: {nstr(v, 12)}")
            else:
                err = abs(near.subtract(v, reference))
                lines.append(f"  t={t}: {nstr(v, 12)}"
                             f"  |error| = {nstr(err, 6)}")
                trunc_rows.append(f"{t} {nstr(err, 10)}")
        if reference is not None:
            trunc_rows.append("")
        lines.append("")

    gof_rows: list[str] = []
    for path, obj in by_kind.get("sample", []):
        lines.append(f"sampler summary: d={obj['d']}, lam={obj['lam']}, "
                     f"{obj['samples']} samples ({path})")
        gof_rows.append(f"# {path}: index p_value; one row per defect type")
        index = 0
        for key in sorted(obj["per_type"]):
            entry = obj["per_type"][key]
            gof = entry.get("poisson_gof")
            z = entry.get("z")
            bits = [f"  {key}: mean {entry['mean']:.4f}"]
            if "m_T" in entry:
                bits.append(f"predicted {entry['m_T']:.4f}")
            if z is not None:
                bits.append(f"z {z:+.2f}")
            if gof:
                bits.append(f"gof p {gof['p']:.3f}")
                gof_rows.append(f"{index} {gof['p']:.6f}")
                index += 1
            lines.append(", ".join(bits))
        gof_rows.append("")
        lines.append("")

    report_path = os.path.join(args.out_dir, "report.txt")
    _write(report_path, "\n".join(lines).rstrip() + "\n")
    trunc_path = os.path.join(args.out_dir, "truncation_error.dat")
    _write(trunc_path, "\n".join(trunc_rows).rstrip() + "\n")
    gof_path = os.path.join(args.out_dir, "gof.dat")
    _write(gof_path, "\n".join(gof_rows).rstrip() + "\n")
    sys.stdout.write("\n".join(lines).rstrip() + "\n")
    sys.stdout.write(f"wrote {report_path}, {trunc_path}, {gof_path}\n")
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
    p.add_argument("--diverging", action="append", metavar="KEY=COUNT,SHIFT",
                   help="defect type at COUNT = m_T + SHIFT with Gaussian weight")
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


def _build_parser(only: str | None = None) -> _Parser:
    """The parser with every command's sub-parser, or with only the one
    named `only`: argparse asks for the terminal size at each option it
    adds, so building all of them costs more than some commands run."""
    parser = _Parser(prog="cubecount",
                     description="Independent-set counting in hypercubes: "
                                 "exact oracles, cluster expansions, "
                                 "asymptotic formulas, and Monte Carlo checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _, _) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            p.add_argument("--out", help="output file (default stdout)")
            arguments(p)
    return parser


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
    # a known command builds its own sub-parser alone; --help, no command
    # or an unknown one needs them all
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        _, _, run, prints_json = _COMMANDS[args.command]
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
