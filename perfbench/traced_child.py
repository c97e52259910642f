"""One traced `cubecount` command: the CLI's own code path, with a span around each layer call.

    python3 perfbench/traced_child.py MARK_FILE SPANS_FILE CLI ARGS...

Like child.py, this runs `cubecount.cli.main` on the given arguments in a fresh
process, so every cache starts cold.  Before it does, it replaces the public
functions through which the CLI and the layers call one another (module
attributes such as `asymptotics.cluster_sum` or `polymers.classify`) with
wrappers that record a span: name, start, end, parent span, and a few
attributes.  Nothing inside `src/` is changed, and the functions the command
calls, and their order, are the CLI's own.

Spans stay in memory and are written to SPANS_FILE as JSON when the command
has finished.  `polymers.classify` runs hundreds of thousands of times per
command, so its calls are tallied (calls and total time per parent span)
instead of kept one by one.

For the consistency check, every stratum R_k whose grid of `cluster_sum(d, k)`
calls was traced is interpolated again from the traced values, and the
SHA-256 of the result goes into SPANS_FILE.  run.py compares it with the digest
of `asymptotics.R_poly(k)` that an untraced process recorded in expected.json.
"""

import hashlib
import json
import sys
import time

_now = time.monotonic_ns


def poly_sha256(poly) -> str:
    """SHA-256 of a RatPoly's canonical JSON form."""
    text = json.dumps(poly.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index or -1, attrs]."""

    def __init__(self):
        self.spans = []
        self.tallies = {}  # (name, parent index) -> [calls, ns]
        self._stack = []
        self._patched = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), None, parent, None])
        self._stack.append(len(self.spans) - 1)

    def end(self, attrs=None):
        span = self.spans[self._stack.pop()]
        span[2] = _now()
        span[4] = attrs

    def wrap(self, module, attr, name, describe=None):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            self.begin(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs = describe(result, *args, **kwargs)
                return result
            finally:
                self.end(attrs)

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def tally(self, module, attr, name):
        fn = getattr(module, attr)
        stack, tallies = self._stack, self.tallies

        def tallied(*args, **kwargs):
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = tallies.setdefault((name, stack[-1] if stack else -1), [0, 0])
                cell[0] += 1
                cell[1] += _now() - t0

        self._patched.append((module, attr, fn))
        setattr(module, attr, tallied)

    def restore(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def to_json(self):
        return {"spans": self.spans,
                "tallies": [[name, parent, calls, ns]
                            for (name, parent), (calls, ns) in self.tallies.items()]}


def main(argv):
    mark_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.begin("cli.import")
    tracer.begin("cli.import_scipy_stats")
    import scipy.stats  # noqa: F401  (the largest part of the CLI's import)
    tracer.end()
    import cubecount.cli
    tracer.end()
    with open(mark_path, "w") as f:
        f.write(str(_now()))

    from cubecount import asymptotics, clusters, exact, polymers, sampler
    from cubecount.symbolic import RatPoly, interpolate_poly
    from cubecount.errors import InterpolationError

    grids = {}  # stratum k -> [(d, poly)] from cluster_sum(d, k) with the default observable

    def cluster_sum_attrs(result, d, k, observable=None, budget=None):
        if observable is None and budget is None:
            grids.setdefault(k, []).append((d, result.poly))
        return {"d": d, "k": k}

    def enumerate_attrs(result, d, max_total, budget=None):
        return {"d": d, "count": len(result)}

    def supports_attrs(result, d, max_size, budget=None):
        return {"count": len(result)}

    def chains_attrs(result, d, lam, steps, **kwargs):
        return {"steps": steps * kwargs.get("chains", 1)}

    tracer.wrap(asymptotics, "R_poly", "asymptotics.R_poly")
    tracer.wrap(asymptotics, "cluster_sum", "clusters.cluster_sum", cluster_sum_attrs)
    tracer.wrap(clusters, "enumerate_clusters", "clusters.enumerate", enumerate_attrs)
    tracer.wrap(asymptotics, "interpolate_poly", "symbolic.interpolate")
    tracer.wrap(polymers, "interpolate_poly", "symbolic.interpolate")
    tracer.wrap(asymptotics, "compute_B", "asymptotics.compute_B")
    tracer.wrap(asymptotics, "compute_P", "asymptotics.compute_P")
    tracer.wrap(asymptotics, "log_count_asymptotic", "asymptotics.eval")
    tracer.wrap(asymptotics, "log_Z_asymptotic", "asymptotics.eval")
    tracer.wrap(asymptotics, "binomial", "bigint.binomial")
    tracer.wrap(polymers, "rooted_polymer_supports", "polymers.rooted_supports",
                supports_attrs)
    tracer.wrap(polymers, "symbolic_census", "polymers.symbolic_census")
    tracer.tally(polymers, "classify", "polymers.classify")
    tracer.wrap(sampler, "sample_chains", "sampler.glauber", chains_attrs)
    tracer.wrap(sampler, "extract_defects", "sampler.extract")
    tracer.wrap(sampler, "defect_statistics", "sampler.statistics")
    tracer.wrap(exact, "size_profile", "exact.size_profile")

    code = cubecount.cli.main(cli_args)
    tracer.restore()

    # R_k = lam^k times the polynomial in d through the grid, fitted at degree 2k
    # with one spare point, as asymptotics.R_poly builds it.
    refits = {}
    lam = RatPoly.var("lam")
    for k, points in sorted(grids.items()):
        if len(points) < 3:
            continue
        try:
            refit = interpolate_poly(sorted(points, key=lambda p: p[0]),
                                     len(points) - 2, var="d") * lam ** k
            refits[k] = poly_sha256(refit)
        except InterpolationError:  # the spare point is off the fitted polynomial
            refits[k] = None

    out = tracer.to_json()
    out["r_refit_sha256"] = refits
    with open(spans_path, "w") as f:
        json.dump(out, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
