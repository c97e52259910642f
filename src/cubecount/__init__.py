"""cubecount: exact and asymptotic counting of independent sets in Q_d.

The package splits into a small stack of layers:

- hypercube: vertex/bitmask combinatorics of Q_d
- exact: brute-force oracles (size profiles, restricted models) for small d
- polymers: enumeration and classification of connected odd defects
- clusters: cluster-expansion machinery (Ursell coefficients, strata sums)
- symbolic: exact polynomial / rational-function / truncated-series kernel
- asymptotics: series coefficients and high-precision counting formulas
- certified: decimal intervals that print each digit correctly rounded,
  with enclosures of ln x! and ln C(n, k)
- sampler: Glauber dynamics used to validate the defect statistics
- chisq: the chi-square tail of the sampler's goodness-of-fit tests
- cli: command-line front end

The names in `__all__` are re-exported from those layers but resolved on
first access (a PEP 562 module `__getattr__`): `import cubecount` loads no
layer, and reading `cubecount.census` imports `cubecount.polymers` then.
Submodules are not attributes until imported, so `cubecount.polymers` needs
`import cubecount.polymers` or `from cubecount import polymers` first.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("errors", ("BudgetExceededError", "InterpolationError", "RegimeWarning")),
    ("hypercube", ("MAX_DIM", "closure", "is_independent", "n_side",
                   "neighborhood", "neighbors", "odd_side", "parity",
                   "square_components", "square_neighbors")),
    ("exact", ("OddModelProfile", "SizeProfile", "odd_model_exact",
               "size_profile", "size_profile_exhaustive")),
    ("polymers", ("Census", "DefectType", "Polymer", "SymbolicCensus",
                  "census", "classify", "enumerate_polymers",
                  "symbolic_census")),
    ("clusters", ("Cluster", "ClusterSum", "Observable", "abstract_cluster_log",
                  "abstract_log_direct", "cluster_sum", "enumerate_clusters",
                  "expected_size_truncated", "log_xi_series",
                  "stratum_partial_sum", "stratum_value", "truncated_log_xi",
                  "ursell", "ursell_recursive")),
    ("symbolic", ("RatFunc", "RatPoly", "TruncSeries", "interpolate_poly")),
    ("asymptotics", ("LambdaBeta", "LogCount", "R_poly", "R_table",
                     "SeriesTable", "compute_B", "compute_P", "lambda_beta",
                     "log_Z_asymptotic", "log_count_asymptotic",
                     "structured_count")),
    ("sampler", ("ChainState", "DefectReport", "SamplerSummary",
                 "defect_statistics", "extract_defects", "glauber_run",
                 "sample_chains", "two_chain_diagnostic")),
) for name in names}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
