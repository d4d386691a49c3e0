"""Pieces shared by the workloads: operation accounting, file digests, memory."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Outcome:
    """Counts attempted and failed operations; a failed output check counts."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self):
        return len(self.failures)


def file_digests(directory, skip=()):
    """{relative path: sha256} of every file under `directory` not named in `skip`.

    Runlogs are always left out: they hold measured wall times.
    """
    directory = Path(directory)
    return {
        p.relative_to(directory).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name not in skip and not p.name.startswith("runlog_")
    }


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mb():
    """Largest resident set of this process or any child it has waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0



def _fingerprint():
    """Hash of the program and benchmark sources, so stored digests match one version."""
    h = hashlib.sha256()
    for p in sorted([*(ROOT / "src" / "mmsaliency").glob("*.py"), *HERE.glob("*.py")]):
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def check_against_earlier_runs(workload, seed, digests, outcome):
    """Outputs of one seed must repeat exactly across benchmark runs.

    The first run of a seed stores its digests under .perfbench/digests/;
    later runs of that seed, with the same sources, compare against them.
    """
    store = ROOT / ".perfbench" / "digests" / f"{workload}-{seed}-{_fingerprint()}.json"
    if store.exists():
        earlier = json.loads(store.read_text(encoding="utf-8"))
        outcome.check(earlier == digests, "outputs differ from an earlier run of this seed")
        return
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, sort_keys=True), encoding="utf-8")
    tmp.replace(store)
