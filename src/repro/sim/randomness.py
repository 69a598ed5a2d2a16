"""Seeded, forkable randomness for deterministic simulations.

Every source of randomness in the library is a ``random.Random`` derived
from the world's root seed through :func:`fork_rng`.  Forking by a stable
string label keeps independent subsystems (link delays, crash schedules,
workload generators) decoupled: adding randomness to one subsystem does
not perturb the streams of the others.

``sha256`` is the interpreter's built-in SHA-256 extension (``_sha2`` from
CPython 3.12 on, ``_sha256`` before), the FIPS 180-4 implementation that
``hashlib`` itself falls back to without OpenSSL; the package hashes with
it and never imports ``hashlib``, which would map OpenSSL's libcrypto
into the process, about 3.5 MB of resident memory, to hash a few short
strings per world.  The digests are the same.
"""

from __future__ import annotations

import random

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without its own hashes
        from hashlib import sha256


def derive_seed(seed: int, label: str) -> int:
    """Derive a stable 64-bit seed from a root seed and a label: the
    first eight bytes, big-endian, of the SHA-256 of ``"{seed}:{label}"``."""
    digest = sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def fork_rng(seed: int, label: str) -> random.Random:
    """Create an independent RNG stream for ``label``."""
    return random.Random(derive_seed(seed, label))
