"""Layer map: which layer owns a profiled function, a wire label, a span.

Host time is attributed from outside the program: cProfile names the
source file of every function, and the file's place under ``src/repro/``
names its layer.  Layers are the module names under ``src/repro/``; a
file the map does not know goes to ``other``, which the smoke test keeps
empty and the README keeps under 5 % of self time.
"""

from __future__ import annotations

import pstats
from pathlib import Path

_PERF_DIR = Path(__file__).resolve().parent
REPRO_DIR = _PERF_DIR.parents[1] / "src" / "repro"

#: Files of ``net/`` are layers of their own; elsewhere the directory is.
_NET_FILES = {
    "transport.py": "net.transport",
    "topology.py": "net.transport",  # the link model the transport samples
    "reliable.py": "net.reliable",
    "wire.py": "net.wire",
    "message.py": "net.wire",  # the message structs the cost model sizes
    "overlay.py": "net.overlay",
}
_DIRECTORIES = frozenset(
    {
        "sim",
        "fd",
        "broadcast",
        "consensus",
        "abcast",
        "gbcast",
        "membership",
        "monitoring",
        "metrics",
        "core",
    }
)

#: Every layer that gets ``host_self_us_per_op`` and ``calls_per_op``.
#: ``python.builtins`` is the interpreter's own work on the program's
#: behalf: C builtins, the stdlib, and dataclass-generated methods
#: (compiled from ``<string>``, so no file names their owner).
#: ``driver`` is this directory: the load generator and its callbacks.
HOST_LAYERS = (
    "sim",
    "net.transport",
    "net.reliable",
    "net.wire",
    "net.overlay",
    "fd",
    "broadcast",
    "consensus",
    "abcast",
    "gbcast",
    "membership",
    "monitoring",
    "metrics",
    "core",
    "python.builtins",
    "driver",
    "other",
)

#: ``net.sent.<label>`` / ``net.bytes.<label>`` counter label -> layer.
WIRE_LABELS = {
    "rc": "net.reliable",
    "fd": "fd",
    "rbcast": "broadcast",
    "consensus": "consensus",
    "abcast": "abcast",
    "gbcast": "gbcast",
}

#: ``Span.layer`` -> layer (the span log uses the same short labels).
SPAN_LAYERS = WIRE_LABELS

#: ``Span.kind`` values the critical path is decomposed into.
CRITPATH_KINDS = ("transit", "queue", "wait", "proc")

_HOST = ("host_ops_per_s",)
_KNEE = ("sim_latency_p99_ms", "sim_max_rate_ops_s")
_FAILOVER = ("sim_outage_ms", "sim_catchup_ms", "failed_ops_share")
#: Which end-to-end metrics a per-layer metric should move, on the same
#: workload (``BENCHMARK.json`` entries carry name, unit and direction
#: only).  Keyed by the full name, else by its last part, else by its
#: layer; () marks hygiene readings that should move nothing.
MOVES = {
    "host_self_us_per_op": _HOST,
    "calls_per_op": _HOST,
    "msgs_per_op": ("wire_msgs_per_op", *_HOST),  # a datagram is two events at least
    "bytes_per_op": ("wire_bytes_per_op",),
    "critpath_ms": ("sim_latency_p50_ms",),
    "critpath.transit_ms": ("sim_latency_p50_ms",),
    "critpath.proc_ms": ("sim_latency_p50_ms",),
    "critpath.queue_ms": _KNEE,
    "critpath.wait_ms": _KNEE,
    "abcast.ordering_wait_ms": _KNEE,
    "sim": _HOST,
    "net.transport.dropped_share": ("failed_ops_share",),
    "net.transport.byte_amplification": ("wire_bytes_per_op", "sim_max_rate_ops_s"),
    "net.reliable": ("wire_msgs_per_op", "sim_max_rate_ops_s"),
    "broadcast": ("wire_bytes_per_op", "sim_max_rate_ops_s"),
    "consensus": ("sim_latency_p50_ms", "sim_max_rate_ops_s", "wire_msgs_per_op"),
    "abcast": ("sim_max_rate_ops_s", "wire_msgs_per_op", "sim_latency_p50_ms"),
    "gbcast": ("sim_latency_p50_ms", "sim_max_rate_ops_s"),
    "gbcast.fifo_inversions": (),
    "fd": ("wire_msgs_per_op",),
    "fd.detection_ms": ("sim_outage_ms",),
    "membership": _FAILOVER,
    "monitoring": _FAILOVER,
    "driver.origin_p50_max_over_min": _KNEE,
    "driver": (),
    "trace": (),
}


def moves_of(metric: str) -> tuple[str, ...]:
    layer, _dot, last = metric.rpartition(".")
    for key in (metric, last, layer):
        if key in MOVES:
            return MOVES[key]
    raise KeyError(f"no end-to-end metric named for {metric}")


def layer_of(filename: str) -> str:
    """Layer owning a function that cProfile located in ``filename``."""
    if filename == "~" or filename.startswith("<"):
        return "python.builtins"
    path = Path(filename)
    if REPRO_DIR in path.parents:
        top, *rest = path.relative_to(REPRO_DIR).parts
        if top == "net" and rest:
            return _NET_FILES.get(rest[0], "other")
        return top if top in _DIRECTORIES else "other"
    if _PERF_DIR in path.parents:
        return "driver"
    return "python.builtins"


def attribute(profile) -> tuple[dict[str, dict[str, float]], list[str]]:
    """Self seconds and call counts per layer of a ``cProfile.Profile``;
    also the files under ``src/repro`` that fell through to ``other``."""
    by_layer = {layer: {"self_s": 0.0, "calls": 0} for layer in HOST_LAYERS}
    unmapped = set()
    for (filename, _line, _name), (_cc, calls, self_s, _ct, _callers) in (
        pstats.Stats(profile).stats.items()
    ):
        layer = layer_of(filename)
        if layer == "other":
            unmapped.add(filename)
        by_layer[layer]["self_s"] += self_s
        by_layer[layer]["calls"] += calls
    return by_layer, sorted(unmapped)
