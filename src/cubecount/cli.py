"""Command-line front end.

One subcommand per module operation; every command writes a single JSON
document to --out (default stdout) so runs can be chained into `report`.
Fugacities and densities are parsed as exact rationals ("1/3", "0.25"),
never as floats.

Exit codes: 0 success, 1 bad arguments or precondition violations
(single-line `error: ...` on stderr), 2 exhausted work budget.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from fractions import Fraction

import mpmath

from . import asymptotics, clusters, exact, polymers, sampler, validation
from .errors import BudgetExceededError
from .polymers import DefectType


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse that reports bad usage on one line with exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"not a rational number: {text!r}")


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


def _check_order(name: str, value: int, largest: int) -> None:
    """Reject orders that need R_j beyond the ones computed exactly."""
    if value > largest:
        raise _UsageError(
            f"{name} must be <= {largest}: higher orders need R_j for "
            f"j > {asymptotics.MAX_EXACT_J}")


def _threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise _UsageError("--threads must be >= 1")
        return args.threads
    env = os.environ.get("CUBECOUNT_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise _UsageError(f"CUBECOUNT_THREADS is not an integer: {env!r}")
        if n < 1:
            raise _UsageError("CUBECOUNT_THREADS must be >= 1")
        return n
    return 1


def _parse_observable(text: str, power: int) -> clusters.Observable:
    if text.startswith("type:"):
        key = text[len("type:"):]
        DefectType.from_key(key)  # validate early
        return clusters.Observable.type_count(key, power)
    factories = {
        "one": lambda: clusters.Observable.one(),
        "size": lambda: clusters.Observable.size(power),
        "nbhd": lambda: clusters.Observable.nbhd(power),
        "size_nbhd": lambda: clusters.Observable.size_nbhd(),
    }
    if text not in factories:
        raise _UsageError(f"unknown observable {text!r}; use one, size, nbhd, "
                          "size_nbhd, or type:KEY")
    return factories[text]()


# -- subcommand bodies -------------------------------------------------------------


def _cmd_oracle(args) -> dict:
    if args.exhaustive:
        profile = exact.size_profile_exhaustive(args.d)
    else:
        profile = exact.size_profile(args.d, allow_slow=args.allow_slow)
    out = profile.to_json()
    out["total"] = str(profile.total)
    if args.lam is not None:
        lam = args.lam
        z = profile.partition_value(lam)
        with mpmath.workdps(30):
            ln_z = mpmath.log(mpmath.mpf(z.numerator) / mpmath.mpf(z.denominator))
            out.update({
                "lam": str(lam),
                "Z": str(z),
                "ln_Z": mpmath.nstr(ln_z, 20),
                "mean_size": str(profile.mean_size(lam)),
            })
    return out


def _cmd_polymers(args) -> dict:
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
    if args.j < 1:
        raise _UsageError("--j must be >= 1")
    table = asymptotics.R_table(args.j, budget=args.budget)
    return {"kind": "R", "jmax": args.j, "entries": table.to_json()}


def _cmd_bj(args) -> dict:
    _check_order("--r", args.r, asymptotics.MAX_EXACT_J)
    table = asymptotics.compute_B(args.r)
    return {"kind": "B", "rmax": args.r, "entries": table.to_json()}


def _cmd_pj(args) -> dict:
    if args.t < 2:
        raise _UsageError("--t must be >= 2 (order t uses corrections j <= t-1)")
    _check_order("--t", args.t, asymptotics.MAX_EXACT_J + 1)
    table = asymptotics.compute_P(args.t - 1)
    return {"kind": "P", "t": args.t, "entries": table.to_json()}


def _cmd_lambda_beta(args) -> dict:
    _check_beta(args.beta)
    # order t uses B_j for j <= ceil(t/2) - 1
    _check_order("--t", args.t, 2 * (asymptotics.MAX_EXACT_J + 1))
    lb = asymptotics.lambda_beta(args.beta, args.d, args.t)
    return lb.to_json()


def _cmd_count(args) -> dict:
    _check_beta(args.beta)
    _check_digits(args.digits)
    _check_order("--t", args.t, asymptotics.MAX_EXACT_J + 1)
    lc = asymptotics.log_count_asymptotic(args.beta, args.d, args.t,
                                          digits=args.digits)
    out = lc.to_json()
    out.update({"beta": str(args.beta), "d": args.d, "t": args.t})
    return out


def _parse_typed_pairs(pairs: list[str], diverging: bool) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise _UsageError(f"expected KEY=... in {item!r}")
        key, _, rest = item.partition("=")
        t = DefectType.from_key(key)
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
    _check_beta(args.beta)
    _check_digits(args.digits)
    _check_order("--t", args.t, asymptotics.MAX_EXACT_J + 1)
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
    if args.lam <= 0:
        raise _UsageError("--lam must be positive")
    _check_digits(args.digits)
    _check_order("--t", args.t, asymptotics.MAX_EXACT_J + 1)
    lc = asymptotics.log_Z_asymptotic(args.lam, args.d, args.t,
                                      digits=args.digits)
    out = lc.to_json()
    out.update({"lam": str(args.lam), "d": args.d, "t": args.t})
    return out


def _check_beta(beta: Fraction) -> None:
    if not 0 < beta < 1:
        raise _UsageError("--beta must lie strictly between 0 and 1")


def _check_digits(digits: int) -> None:
    if digits < 1:
        raise _UsageError("--digits must be >= 1")


def _cmd_sample(args) -> dict:
    if args.lam <= 0:
        raise _UsageError("--lam must be positive")
    polymers.check_census_bounds(args.d, args.census_size)
    burn_in = args.burn_in if args.burn_in is not None \
        else sampler.default_burn_in(args.d)
    steps = args.steps if args.steps is not None \
        else burn_in + args.thin * args.samples
    chains = sampler.sample_chains(
        args.d, args.lam, steps, burn_in=burn_in, thin=args.thin,
        seed=args.seed, chains=args.chains, processes=_threads(args),
        debug=args.debug)
    states = [s for chain in chains for s in chain]
    if not states:
        raise _UsageError("no samples collected; increase --steps")
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
                loaded.append((p, json.load(f)))
        except (OSError, json.JSONDecodeError) as e:
            raise _UsageError(f"cannot read {p}: {e}")
    return loaded


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
    inputs = _load_inputs(args.inputs)
    by_kind: dict[str, list[tuple[str, dict]]] = {}
    for path, obj in inputs:
        by_kind.setdefault(_classify(obj), []).append((path, obj))
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

    def exact_ln(frac: Fraction) -> mpmath.mpf:
        return mpmath.log(mpmath.mpf(frac.numerator) / mpmath.mpf(frac.denominator))

    with mpmath.workdps(30):
        groups: dict[tuple, list[tuple[int, mpmath.mpf]]] = {}
        for _, obj in by_kind.get("zeta", []):
            groups.setdefault(("Z", obj["d"], obj["lam"]), []).append(
                (obj["t"], mpmath.mpf(obj["ln_value"])))
        for _, obj in by_kind.get("count", []):
            groups.setdefault(("i_m", obj["d"], obj["beta"]), []).append(
                (obj["t"], mpmath.mpf(obj["ln_value"])))

        for (kind, d, param), rows in sorted(groups.items()):
            rows.sort()
            reference = None
            if d in oracles:
                profile = oracles[d]
                if kind == "Z":
                    reference = exact_ln(profile.partition_value(Fraction(param)))
                else:
                    m = math.floor(Fraction(param) * (1 << (d - 1)))
                    if profile.counts[m] > 0:
                        reference = mpmath.log(mpmath.mpf(profile.counts[m]))
            label = f"ln {kind}, d={d}, " + \
                (f"lam={param}" if kind == "Z" else f"beta={param}")
            lines.append(label)
            if reference is not None:
                lines.append(f"  exact: {mpmath.nstr(reference, 12)}")
                trunc_rows.append(f"# {label}")
            for t, v in rows:
                if reference is None:
                    lines.append(f"  t={t}: {mpmath.nstr(v, 12)}")
                else:
                    err = abs(v - reference)
                    lines.append(f"  t={t}: {mpmath.nstr(v, 12)}"
                                 f"  |error| = {mpmath.nstr(err, 6)}")
                    trunc_rows.append(f"{t} {mpmath.nstr(err, 10)}")
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="cubecount",
                     description="Independent-set counting in hypercubes: "
                                 "exact oracles, cluster expansions, "
                                 "asymptotic formulas, and Monte Carlo checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, **kwargs):
        p = sub.add_parser(name, help=help_text, **kwargs)
        p.add_argument("--out", help="output file (default stdout)")
        return p

    p = add("oracle", "exact size profile by transfer matrix")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lam", type=_rational)
    p.add_argument("--allow-slow", action="store_true",
                   help="permit the d=6 computation")
    p.add_argument("--exhaustive", action="store_true",
                   help="subset enumeration instead (d <= 4)")

    p = add("polymers", "defect enumeration and census")
    p.add_argument("--d", type=int)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--mode", choices=["census", "list", "symbolic"],
                   default="census")
    p.add_argument("--budget", type=int)

    p = add("clusters", "one stratum of the cluster expansion")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--observable", default="one")
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--lam", type=_rational)
    p.add_argument("--budget", type=int,
                   help="node budget for the one cluster enumeration, which "
                        "runs at the base dimension min(d, free_dim(k))")

    p = add("rj", "expansion coefficients R_j as polynomials in (lam, d)")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--budget", type=int,
                   help="node budget for the cluster enumeration at each "
                        "base dimension; grid points that share a base "
                        "dimension reuse its completed enumeration")

    p = add("bj", "fugacity-correction coefficients B_j")
    p.add_argument("--r", type=int, required=True)

    p = add("pj", "density-series coefficients P_j for orders j <= t-1")
    p.add_argument("--t", type=int, required=True)

    p = add("lambda-beta", "fugacity tuned to hit density beta")
    p.add_argument("--beta", type=_rational, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = add("count", "log of the number of independent sets of size beta*N")
    p.add_argument("--beta", type=_rational, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--digits", type=int, default=80)

    p = add("count-structured", "count restricted by defect structure")
    p.add_argument("--beta", type=_rational, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--digits", type=int, default=80)
    p.add_argument("--fixed", action="append", metavar="KEY=COUNT",
                   help="defect type pinned to an exact count")
    p.add_argument("--diverging", action="append", metavar="KEY=COUNT,SHIFT",
                   help="defect type at COUNT = m_T + SHIFT with Gaussian weight")
    p.add_argument("--budget", type=int,
                   help="node budget for the polymer census behind --fixed")

    p = add("zeta", "log of the partition function Z(lam)")
    p.add_argument("--lam", type=_rational, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--digits", type=int, default=80)

    p = add("sample", "Glauber dynamics run with defect statistics")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lam", type=_rational, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int)
    p.add_argument("--samples", type=int, default=200,
                   help="snapshots to take when --steps is not given")
    p.add_argument("--burn-in", type=int)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--census-size", type=int, default=3,
                   help="max defect size for the census comparison")
    p.add_argument("--csv", help="also write the per-snapshot CSV log here")
    p.add_argument("--threads", type=int,
                   help="worker processes for --chains (default "
                        "CUBECOUNT_THREADS, else 1)")
    p.add_argument("--debug", action="store_true",
                   help="check invariants at each snapshot")

    p = add("validate", "run the acceptance suite")
    p.add_argument("--only", help="comma-separated criterion numbers")

    p = add("report", "merge JSON outputs into tables and plot data")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out-dir", default=".")

    return parser


_JSON_COMMANDS = {
    "oracle": _cmd_oracle,
    "polymers": _cmd_polymers,
    "clusters": _cmd_clusters,
    "rj": _cmd_rj,
    "bj": _cmd_bj,
    "pj": _cmd_pj,
    "lambda-beta": _cmd_lambda_beta,
    "count": _cmd_count,
    "count-structured": _cmd_count_structured,
    "zeta": _cmd_zeta,
    "sample": _cmd_sample,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if args.command in _JSON_COMMANDS:
                result = _JSON_COMMANDS[args.command](args)
                _emit(result, args.out)
                code = 0
            elif args.command == "validate":
                code = _cmd_validate(args)
            else:
                code = _cmd_report(args)
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
