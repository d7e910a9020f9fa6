"""Tests for run manifests and their persistence integration."""

import dataclasses
import json

from repro.experiments import Experiment1Config
from repro.observability import trace
from repro.observability.manifest import (
    RunManifest,
    build_manifest,
    diff_manifests,
    git_state,
)
from repro.observability.metrics import registry


class TestBuild:
    def test_captures_identity(self):
        from repro import __version__

        m = build_manifest(seed=7)
        assert m.repro_version == __version__
        assert m.seed == 7
        assert m.run_id and len(m.run_id) == 12
        assert m.python_version.count(".") == 2

    def test_config_dataclass_expanded(self):
        config = Experiment1Config.quick(seed=9)
        m = build_manifest(config=config)
        assert m.config["burn_hours"] == config.burn_hours
        assert m.seed == 9  # taken from the config when not given

    def test_span_and_metric_snapshots(self):
        trace.enable()
        registry.counter("captures_total").inc(3)
        with trace.span("experiment"):
            pass
        m = build_manifest()
        assert m.spans[0]["name"] == "experiment"
        assert m.metrics["counters"]["captures_total"] == 3.0

    def test_round_trip(self):
        m = build_manifest(config={"k": 1}, seed=2, extra={"note": "x"})
        payload = json.loads(json.dumps(m.to_dict()))
        twin = RunManifest.from_dict(payload)
        assert twin.seed == 2
        assert twin.config == {"k": 1}
        assert twin.extra == {"note": "x"}
        assert twin.run_id == m.run_id

    def test_git_state_memoised_and_shaped(self):
        first = git_state()
        assert first is git_state()  # one subprocess probe per process
        revision, dirty = first
        # Inside the repo checkout both are populated; the shape also
        # holds outside one (both None).
        if revision is not None:
            assert len(revision) == 12
            assert isinstance(dirty, bool)
        else:
            assert dirty is None

    def test_manifest_embeds_git_and_kernels(self):
        """Git state always; ``kernels`` only when a stored manifest
        carries one -- new manifests leave it out."""
        m = build_manifest()
        assert m.kernels == {}
        assert "kernels" not in m.to_dict()
        legacy = dataclasses.replace(m, kernels={"aging": "array"})
        assert legacy.to_dict()["kernels"] == {"aging": "array"}
        revision, dirty = git_state()
        assert m.git_revision == revision
        assert m.git_dirty == dirty
        payload = json.loads(json.dumps(m.to_dict()))
        twin = RunManifest.from_dict(payload)
        assert twin.git_revision == m.git_revision
        assert twin.git_dirty == m.git_dirty


class TestDiff:
    def test_identical_manifests_no_diff(self):
        payload = build_manifest(config={"a": 1}).to_dict()
        assert diff_manifests(payload, payload) == {}

    def test_seed_and_config_diffs_reported(self):
        a = build_manifest(config={"burn_hours": 40}, seed=1).to_dict()
        b = build_manifest(config={"burn_hours": 200}, seed=2).to_dict()
        diffs = diff_manifests(a, b)
        assert diffs["seed"] == (1, 2)
        assert diffs["config.burn_hours"] == (40, 200)

    def test_git_and_kernel_diffs_reported(self):
        """Stored manifests from the kernel-switch era diff key by key."""
        a = dict(build_manifest().to_dict(), kernels={"aging": "array"})
        b = dict(build_manifest().to_dict(), kernels={"aging": "scalar"})
        b["git_revision"] = "deadbeef0000"
        b["git_dirty"] = not a["git_dirty"]
        diffs = diff_manifests(a, b)
        assert diffs["git_revision"] == (a["git_revision"], "deadbeef0000")
        assert "git_dirty" in diffs
        assert diffs["kernels.aging"] == ("array", "scalar")

    def test_stored_kernels_field_round_trips(self):
        """A stored manifest that carries ``kernels`` loads, writes back
        unchanged and diffs clean against itself and against a current
        manifest, which has no such field."""
        current = build_manifest(seed=1).to_dict()
        stored = dict(json.loads(json.dumps(current)),
                      kernels={"aging": "array"})
        loaded = RunManifest.from_dict(stored)
        assert loaded.kernels == {"aging": "array"}
        assert loaded.to_dict() == stored
        assert diff_manifests(stored, loaded.to_dict()) == {}
        assert diff_manifests(stored, current) == {
            "kernels.aging": ("array", None),
        }

    def test_stored_capture_kernel_key_loads_and_diffs(self):
        """Run-store records written while the capture kernel was still
        a switch carry a ``kernels.capture`` entry; they must load and
        diff against a current manifest, which has none."""
        current = build_manifest(seed=1).to_dict()
        stored = json.loads(json.dumps(current))
        stored["kernels"] = {"aging": "array", "capture": "batched"}
        loaded = RunManifest.from_dict(stored)
        assert loaded.kernels["capture"] == "batched"
        assert loaded.to_dict()["kernels"] == stored["kernels"]
        diffs = diff_manifests(stored, current)
        assert diffs == {"kernels.aging": ("array", None),
                         "kernels.capture": ("batched", None)}
