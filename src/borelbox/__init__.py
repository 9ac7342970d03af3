"""Boxed d-dimensional partitions, strongly stable monomial ideals, and the
side-preserving bijection onto totally symmetric partitions, with exact
enumeration and q-polynomial cross-checks.

The public names load lazily (PEP 562): `import borelbox` imports no
submodule, and the first use of a name imports its home module.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by its home submodule.
_HOME = {name: home for home, names in (
    ("bijection", "FSet bgens_via_psi lambda_inv lambda_map omega omega_inv psi psi_inv "
                  "ss_to_ts_partition ts_to_ss_partition"),
    ("correspondence", "ideal_to_partition partition_to_ideal"),
    ("enumeration", "CountTable cell_gf_ss count_ss count_table count_ts cumulative_counts "
                    "enumerate_partitions hawkes_check hawkes_counts orbit_gf_ts qtspp "
                    "stembridge_t3"),
    ("errors", "ArithmeticSelfCheck BorelboxError CellNotInPartition ClosureViolation "
               "DimensionMismatch EmptyInput InexactDivision InputError InvalidCell "
               "InvalidFSet InvalidMove MissingPurePower NonIntegerProduct NotArtinian "
               "NotStronglyStable NotSymmetric NotTotallySymmetric NotWeaklyIncreasing "
               "ResourceLimit UnsupportedDimension"),
    ("ideals", "Monomial MonomialIdeal apply_borel_move borel_closure divides minimalize "
               "monomial_str symmetrize"),
    ("partitions", "Cell Partition"),
    ("qpoly", "QPolynomial"),
) for name in names.split()}

_SUBMODULES = frozenset(_HOME.values()) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
