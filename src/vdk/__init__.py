"""Exact arithmetic for Higman-Thompson groups V_{d,k} and Brin-Thompson mV.

Cantor-set actions by prefix substitution, the clopen Boolean algebra,
Bernoulli measures and Radon-Nikodym cocycles, groupoid bisections,
tail equivalence, and the non-amenability inequality checker.

`import vdk` loads no submodule: each one is imported on the first use
of one of its names below (``vdk.mu`` loads ``vdk.measure`` and what it
imports), and the name is then bound here, so later lookups are plain
attribute reads.  The CLI, ``vdk.cli``, loads groupoid, tails and
selftest only for the commands that use them.
"""

import importlib

# submodule: the public names it exports
_EXPORTS = {
    "cantor": (
        "Alphabet",
        "Clopen",
        "Point",
        "Word",
        "clopen_normalize",
        "empty_clopen",
        "format_clopen",
        "format_point",
        "format_word",
        "member",
        "parse_clopen",
        "parse_point",
        "parse_word",
        "point_normalize",
        "split",
        "whole_space",
    ),
    "certificate": (
        "CertificateReport",
        "NormBound",
        "PingPongCertificate",
        "SymmetricSet",
        "check_certificate",
        "convolution_count",
        "fixture",
        "free_norm",
        "pingpong_verify",
        "symmetric_set",
    ),
    "errors": (
        "ArityMismatch",
        "CertificateInvalid",
        "DisjointnessViolation",
        "IncompleteBoxes",
        "IncompleteDomain",
        "IncompleteRange",
        "InclusionViolation",
        "InconclusiveParameters",
        "MismatchedAlphabet",
        "NotFull",
        "NotRelated",
        "NotSymmetric",
        "OverlappingBoxes",
        "OverlappingDomain",
        "OverlappingRange",
        "TransportImpossible",
        "VdkError",
    ),
    "groupoid": (
        "Bisection",
        "BoxTable",
        "DoubleCylinder",
        "bisection_act",
        "bisection_compose",
        "bisection_inverse",
        "format_bisection",
        "from_table",
        "germ_maps",
        "is_full",
        "make_bisection",
        "mv_act",
        "mv_compose",
        "mv_embed_factor",
        "mv_from_json",
        "mv_identity",
        "mv_inverse",
        "mv_make",
        "mv_to_json",
        "parse_bisection",
        "to_table",
    ),
    "measure": (
        "QuadraticValue",
        "cocycle_chain_check",
        "cocycle_range",
        "deficit",
        "integral_sqrt_rn",
        "mu",
        "quad_compare",
        "quadratic",
        "rn_exponent",
        "rn_profile",
        "sqrt_int",
    ),
    "tables": (
        "TableElement",
        "act_clopen",
        "act_point",
        "compose",
        "embed_supported",
        "equals",
        "format_table",
        "identity",
        "inverse",
        "make_table",
        "parse_table",
        "probe_points",
        "support",
        "transporter",
    ),
    "tails": (
        "TailWitness",
        "finite_level_related",
        "orbit_fragment",
        "related",
        "witness_cell",
        "witness_holds",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
