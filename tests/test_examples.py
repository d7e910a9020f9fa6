"""Examples run end to end, with their headline lines pinned.

``hardware_trace_replay.py`` calibrates with ``find_theta_init`` and
records with ``measure_raw``; ``skeleton_free_localization.py`` runs
``core.localize``, whose TDCs share one generator;
``cloud_user_data_recovery.py`` runs Threat Model 2 against a victim
with the full 3,896-DSP heater; ``quickstart.py`` is the lab-bench
burn, wipe and read-back.  ``design_signoff.py`` grades a design's
nets, ``marketplace_key_extraction.py`` and ``opentitan_audit.py``
extract keys through the TDC, ``mitigation_comparison.py`` tabulates
user-side mitigations and ``fleet_longitudinal.py`` follows one board's
residues across tenants.  Each runs in a fresh interpreter and must
print its headline lines exactly, so any change to those calls' random
streams shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_example(name: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return [line.strip() for line in result.stdout.splitlines()]


@pytest.mark.parametrize(
    "name, expected",
    [
        ("hardware_trace_replay.py", [
            "rut[0]: replayed last delta +4.830 ps (live +4.830 ps) -> bit 1",
            "rut[1]: replayed last delta -10.325 ps (live -10.325 ps) "
            "-> bit 0",
        ]),
        ("skeleton_free_localization.py", [
            "flagged 2 segments (2 true positives, 0 false)",
        ]),
        ("cloud_user_data_recovery.py", [
            "boards probed: 3; victim board identified: tm2-board-0",
            "recovered 16/16 bits (100.0%, BER 0.000)",
        ]),
        ("quickstart.py", [
            "recovered 8/8 bits (100.0%, BER 0.000)",
        ]),
        ("design_signoff.py", [
            "summary: 8 low, 4 moderate",
        ]),
        ("marketplace_key_extraction.py", [
            "recovered 32/32 bits (100.0%, BER 0.000)",
        ]),
        ("opentitan_audit.py", [
            "key bits held 48 h, then recovered through the TDC: "
            "recovered 8/8 bits (100.0%, BER 0.000)",
        ]),
        ("mitigation_comparison.py", [
            "key rotation (8 h)          0.25             6/8",
        ]),
        ("fleet_longitudinal.py", [
            "residue of video-encoder: max |delta|  1.21 ps, "
            "sign-readable 4/4 (truth 1111)",
        ]),
    ],
    ids=["hardware_trace_replay", "skeleton_free_localization",
         "cloud_user_data_recovery", "quickstart", "design_signoff",
         "marketplace_key_extraction", "opentitan_audit",
         "mitigation_comparison", "fleet_longitudinal"],
)
def test_example_headline(name, expected):
    lines = _run_example(name)
    for line in expected:
        assert line in lines
