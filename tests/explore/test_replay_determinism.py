"""Replay determinism: a saved schedule re-executes byte-identically —
same fingerprint — in the same interpreter and across two fresh
interpreter processes, including crash+recover plans."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.explore.explorer import write_repro
from repro.explore.runner import run_scenario
from repro.explore.scenario import ScenarioConfig
from repro.workload.generators import FaultEvent, FaultPlan

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Crash + recover + partition + heal: the full fault vocabulary.
RECOVERY_CONFIG = ScenarioConfig(
    seed=5,
    processes=4,
    duration=1_000.0,
    rate=25.0,
    conflict_weight=0.5,
    plan=FaultPlan(
        [
            FaultEvent(at=200.0, kind="partition", target=[["p00", "p01", "p03"], ["p02"]]),
            FaultEvent(at=380.0, kind="heal"),
            FaultEvent(at=520.0, kind="crash", target="p01"),
            FaultEvent(at=820.0, kind="recover", target="p01"),
        ]
    ),
)

FINGERPRINT_SCRIPT = """\
import json, sys
from repro.explore.runner import run_scenario
from repro.explore.scenario import ScenarioConfig
config = ScenarioConfig.from_json_obj(json.loads(sys.stdin.read()))
result, _world = run_scenario(config)
print(result.fingerprint)
"""


def fresh_interpreter_fingerprint(config: ScenarioConfig) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONHASHSEED"] = "random"  # fingerprints must not depend on it
    proc = subprocess.run(
        [sys.executable, "-c", FINGERPRINT_SCRIPT],
        input=json.dumps(config.to_json_obj()),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout.strip()


def test_same_interpreter_runs_are_identical():
    first, _ = run_scenario(RECOVERY_CONFIG)
    second, _ = run_scenario(RECOVERY_CONFIG)
    assert first.violation is None
    assert first.fingerprint == second.fingerprint
    assert first.events == second.events
    assert first.sim_time == second.sim_time


def test_two_fresh_interpreters_agree_byte_identically():
    first = fresh_interpreter_fingerprint(RECOVERY_CONFIG)
    second = fresh_interpreter_fingerprint(RECOVERY_CONFIG)
    assert first == second
    # And they agree with an in-process run: nothing about this
    # interpreter's history leaks into the fingerprint.
    local, _ = run_scenario(RECOVERY_CONFIG)
    assert local.fingerprint == first


def test_repro_file_replays_identically_via_cli(tmp_path):
    config = ScenarioConfig(
        seed=3, processes=4, duration=1_200.0, rate=30.0, conflict_weight=0.8,
        mutation="reorder_conflicting",
    )
    result, _world = run_scenario(config)
    assert result.violation is not None
    path = write_repro(tmp_path / "repro.json", config, result)

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "explore", "--replay", str(path), "--json"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0]["reproduced"] is True
    assert outputs[0] == outputs[1]


def test_traced_replay_via_cli_is_intact_and_byte_identical(tmp_path, capsys):
    # ``--replay`` traces: the recorded failure still reproduces, the
    # span tree is intact, and the Chrome export is the same bytes twice.
    from repro.explore.cli import main as explore_main

    config = ScenarioConfig(
        seed=3, processes=4, duration=1_200.0, rate=30.0, conflict_weight=0.8,
        mutation="reorder_conflicting",
    )
    result, _world = run_scenario(config)
    path = write_repro(tmp_path / "repro.json", config, result)
    traces = []
    for run in range(2):
        chrome = tmp_path / f"trace{run}.json"
        assert explore_main(["--replay", str(path), "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out and "DID NOT" not in out
        assert " 0 integrity errors" in out
        assert json.loads(chrome.read_text())["traceEvents"]
        traces.append(chrome.read_bytes())
    assert traces[0] == traces[1]


def test_corpus_entry_replays_via_cli(capsys):
    from repro.explore.cli import main as explore_main

    entry = REPO_ROOT / "tests" / "explore" / "corpus" / "one-closer-liveness-ladder.json"
    assert explore_main(["--replay", str(entry)]) == 0
    assert "REPRODUCED" in capsys.readouterr().out


def test_sweep_json_records_every_seeds_fingerprint(capsys):
    # ``--json`` is the artifact that proves two trees simulate alike:
    # it must carry each run's fingerprint, not only the verdicts.
    from repro.explore.cli import main as explore_main
    from repro.explore.explorer import PROFILES, explore_seed

    runs = []
    for _ in range(2):
        assert explore_main(["--seeds", "0:3", "--json"]) == 0
        runs.append(json.loads(capsys.readouterr().out)["runs"])
    assert runs[0] == runs[1]
    assert runs[0] == {
        profile: {str(seed): explore_seed(seed, profile).result.fingerprint for seed in range(3)}
        for profile in PROFILES
    }
