"""Plain SI method: no filtering, every dataset graph is a candidate.

The paper distinguishes "SI algorithms" (no index, one sub-iso test per
dataset graph) from "FTV methods".  GC is applicable over both; this class is
the SI end of that spectrum and the weakest baseline in the benchmarks.
"""

from __future__ import annotations

from repro.methods.base import MethodM


class DirectSIMethod(MethodM):
    """Verify the query against every dataset graph (no filter index)."""

    name = "direct-si"
