"""Secure linear network coding on single-source multicast DAGs.

Build exact-arithmetic linear codes, wrap them with a secrecy-preserving
mixing basis and a one-time-pad key, and verify the information-theoretic
guarantees by exhaustive enumeration.

The public names load lazily (PEP 562): `import slnc` imports no submodule,
and the first access to a name imports only the module that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

# The defining module of each public name, in `__all__` order.
_HOME = {
    name: module
    for module, names in (
        ("errors", "errors"),
        ("field", "FieldSpec"),
        ("secure", "Matrix"),
        ("network", "Edge Network parse_network serialize_network"),
        ("flow", "min_cut_to_sink min_cut_to_edges c_min"),
        ("lnc", "GlobalCode construct_lnc check_code_validity write_code parse_code"),
        ("walk", "enumerate_topology_wiretap_sets enumerate_code_wiretap_sets verify_subset_bound"),
        ("secure", "SecureCodeBundle choose_secure_basis build_secure_bundle encode_source "
                   "decode_at_sink write_bundle parse_bundle"),
        ("oracle", "JointDistribution SecurityReport"),
        ("refute", "RefutationResult"),
        ("oracle", "observation_distribution mutual_information verify_security rank_security_criterion"),
        ("refute", "refute_key_rate"),
        ("entropy", "han_profile"),
    )
    for name in names.split()
}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_HOME[name]}")
    return module if name == _HOME[name] else getattr(module, name)
