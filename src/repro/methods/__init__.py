"""Method M implementations (filter-then-verify and plain SI)."""

from repro.methods.base import MethodM, MethodResult, VerificationOutcome
from repro.methods.ctindex import CTIndexMethod
from repro.methods.direct import DirectSIMethod
from repro.methods.graphgrep import GraphGrepSXMethod
from repro.methods.registry import available_methods, make_method, register_method

__all__ = [
    "MethodM",
    "MethodResult",
    "VerificationOutcome",
    "DirectSIMethod",
    "GraphGrepSXMethod",
    "CTIndexMethod",
    "register_method",
    "available_methods",
    "make_method",
]
