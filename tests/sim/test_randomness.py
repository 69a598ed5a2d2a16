"""Seed derivation against ``hashlib``, and a package that never loads it.

``repro.sim.randomness`` hashes with the interpreter's built-in SHA-256
extension so that OpenSSL's libcrypto stays out of the process.  The
digests must be ``hashlib``'s all the same: every RNG stream, and so
every simulated number and explore fingerprint, hangs on them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore import runner
from repro.explore.explorer import scenario_for_seed
from repro.sim.randomness import derive_seed

REPO_ROOT = Path(__file__).resolve().parents[2]


def reference_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(), st.integers(min_value=-(2**80), max_value=2**80)), st.text())
def test_derive_seed_is_the_hashlib_sha256_derivation(seed, label):
    assert derive_seed(seed, label) == reference_seed(seed, label)


def test_an_explore_fingerprint_is_the_hashlib_digest_of_its_canonical_payload(monkeypatch):
    hashed: list[bytes] = []
    builtin = runner.sha256

    def recording(data: bytes):
        hashed.append(data)
        return builtin(data)

    monkeypatch.setattr(runner, "sha256", recording)
    result, _world = runner.run_scenario(scenario_for_seed(3))
    (payload,) = hashed
    assert result.fingerprint == hashlib.sha256(payload).hexdigest()
    assert payload.decode() == json.dumps(
        json.loads(payload), sort_keys=True, separators=(",", ":")
    )


GUARD_SCRIPT = """
import sys
import repro
from repro import World, build_new_group
from repro.explore.explorer import scenario_for_seed
from repro.explore.runner import run_scenario

world = World(seed=5)
build_new_group(world, 3)
world.run_for(500.0)
run_scenario(scenario_for_seed(0))
print(sorted(name for name in ("_hashlib", "_ssl") if name in sys.modules))
"""


def test_the_package_never_loads_openssl():
    """A fresh interpreter that builds and runs a group and one explore
    scenario has imported neither ``_hashlib`` nor ``_ssl``."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", GUARD_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"
