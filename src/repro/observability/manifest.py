"""Run manifests: self-describing provenance for every experiment run.

A manifest captures everything needed to interpret -- and diff -- an
archived result months later: the package version, interpreter,
platform, seed, full config, the command line, the span tree the run
produced and a snapshot of its metrics.  :func:`build_manifest` is
called by :func:`repro.persistence.save_experiment` so every archive
written at schema version 2 embeds one under its ``"manifest"`` key.

Two archives from different machines or code versions can then be
compared field-by-field (:func:`diff_manifests`) to explain why their
numbers diverge.
"""

from __future__ import annotations

import dataclasses
import platform
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.observability import metrics as _metrics
from repro.observability import trace as _trace

__all__ = [
    "RunManifest",
    "build_manifest",
    "diff_manifests",
    "git_state",
]

#: Manifest payload format, independent of the archive schema version.
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class RunManifest:
    """Provenance record of one pipeline run."""

    run_id: str
    created_unix: float
    repro_version: str
    python_version: str
    platform: str
    argv: tuple[str, ...]
    seed: Optional[int] = None
    config: Optional[dict] = None
    git_revision: Optional[str] = None
    git_dirty: Optional[bool] = None
    #: Kernel switches a run resolved to.  Only manifests stored while
    #: the library still had switches carry it; new ones leave it empty.
    kernels: dict = field(default_factory=dict)
    spans: tuple = ()
    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready representation (``kernels`` only when set)."""
        payload = {
            "manifest_version": MANIFEST_VERSION,
            "run_id": self.run_id,
            "created_unix": self.created_unix,
            "repro_version": self.repro_version,
            "python_version": self.python_version,
            "platform": self.platform,
            "argv": list(self.argv),
            "seed": self.seed,
            "config": self.config,
            "git_revision": self.git_revision,
            "git_dirty": self.git_dirty,
            "spans": list(self.spans),
            "metrics": dict(self.metrics),
            "extra": dict(self.extra),
        }
        if self.kernels:
            payload["kernels"] = dict(self.kernels)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output."""
        return cls(
            run_id=payload.get("run_id", ""),
            created_unix=float(payload.get("created_unix", 0.0)),
            repro_version=payload.get("repro_version", ""),
            python_version=payload.get("python_version", ""),
            platform=payload.get("platform", ""),
            argv=tuple(payload.get("argv", ())),
            seed=payload.get("seed"),
            config=payload.get("config"),
            git_revision=payload.get("git_revision"),
            git_dirty=payload.get("git_dirty"),
            kernels=dict(payload.get("kernels", {})),
            spans=tuple(payload.get("spans", ())),
            metrics=dict(payload.get("metrics", {})),
            extra=dict(payload.get("extra", {})),
        )


#: ``git_state()`` result memoised per process -- the revision cannot
#: change mid-run, and a subprocess per manifest would dominate quick
#: experiments.  ``None`` means "not asked yet".
_GIT_STATE: Optional[tuple[Optional[str], Optional[bool]]] = None


def git_state() -> tuple[Optional[str], Optional[bool]]:
    """``(revision, dirty)`` of the working tree, or ``(None, None)``.

    Answers come from ``git rev-parse`` / ``git status --porcelain``;
    outside a checkout (an installed wheel, a bare archive) or without
    a ``git`` binary both fields are ``None``.  Cached for the process
    lifetime.
    """
    global _GIT_STATE
    if _GIT_STATE is not None:
        return _GIT_STATE
    revision: Optional[str] = None
    dirty: Optional[bool] = None
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5.0,
        )
        if probe.returncode == 0:
            revision = probe.stdout.strip()[:12] or None
        if revision is not None:
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                capture_output=True, text=True, timeout=5.0,
            )
            if status.returncode == 0:
                dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        revision, dirty = None, None
    _GIT_STATE = (revision, dirty)
    return _GIT_STATE


def _config_as_dict(config: Any) -> Optional[dict]:
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    if isinstance(config, dict):
        return dict(config)
    return {"repr": repr(config)}


def build_manifest(
    config: Any = None,
    seed: Optional[int] = None,
    argv: Optional[list] = None,
    extra: Optional[dict] = None,
    include_spans: bool = True,
    include_metrics: bool = True,
) -> RunManifest:
    """Snapshot the current process into a :class:`RunManifest`.

    ``config`` may be a dataclass (``asdict`` is applied), a dict, or
    ``None``.  When ``seed`` is omitted it is taken from the config's
    ``seed`` field if there is one.  Span and metric snapshots reflect
    whatever the run recorded up to this call.
    """
    config_dict = _config_as_dict(config)
    if seed is None and config_dict is not None:
        seed = config_dict.get("seed")
    from repro import __version__

    revision, dirty = git_state()
    return RunManifest(
        run_id=uuid.uuid4().hex[:12],
        created_unix=time.time(),
        repro_version=__version__,
        python_version=platform.python_version(),
        platform=platform.platform(),
        argv=tuple(argv if argv is not None else sys.argv),
        seed=seed,
        config=config_dict,
        git_revision=revision,
        git_dirty=dirty,
        spans=tuple(_trace.tree_as_dicts()) if include_spans else (),
        metrics=(
            _metrics.get_registry().snapshot() if include_metrics else {}
        ),
        extra=dict(extra or {}),
    )


def diff_manifests(a: dict, b: dict) -> dict:
    """Field-level differences between two manifest dicts.

    Returns ``{field: (a_value, b_value)}`` over the identity fields
    (version, interpreter, platform, seed) and any config keys whose
    values differ -- the first place to look when two archives of the
    same experiment disagree.  Stored manifests that still carry a
    ``kernels`` group diff it key by key too.
    """
    diffs: dict = {}
    for key in ("repro_version", "python_version", "platform", "seed",
                "git_revision", "git_dirty"):
        if a.get(key) != b.get(key):
            diffs[key] = (a.get(key), b.get(key))
    for group in ("config", "kernels"):
        group_a = a.get(group) or {}
        group_b = b.get(group) or {}
        for key in sorted(set(group_a) | set(group_b)):
            if group_a.get(key) != group_b.get(key):
                diffs[f"{group}.{key}"] = (group_a.get(key),
                                           group_b.get(key))
    return diffs
