"""Findings, the suppression baseline, the incremental cache, and output.

**Fingerprints** are line-number independent:
``sha256(rule | path | function qualname | stable key)`` truncated to 16
hex chars — a finding keeps its identity as unrelated edits move it
around the file, and moves with the function if the file is renamed
in-place-ly enough to keep its path (a rename invalidates, which is the
conservative direction).

**Baseline**: a checked-in JSON file mapping fingerprints to mandatory
justification strings.  The loader *rejects* placeholder justifications
(empty, ``TODO``/``FIXME``-prefixed), so ``--write-baseline`` output
cannot be merged un-reviewed.  Suppressions whose finding no longer
exists are *stale* and fail the gate — the baseline never outlives the
code it excuses.

**Cache**: keyed on a digest of the analyzer version plus every scanned
file's content hash.  Whole-tree granularity: any changed byte re-runs
the (sub-second) analysis; an untouched tree answers from the cache in
milliseconds, which is what keeps the CI lane fast.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import asdict, dataclass
from typing import Iterable, Optional

#: Bump when rule semantics change: invalidates caches, not baselines.
ANALYZER_VERSION = 1


@dataclass(frozen=True)
class Finding:
    """One diagnostic with a stable identity for baselining."""

    rule: str
    path: str
    line: int
    col: int
    function: str
    key: str          # stable atom descriptor, e.g. "watermark:_synced"
    message: str

    def fingerprint(self) -> str:
        ident = f"{self.rule}|{self.path}|{self.function}|{self.key}"
        return hashlib.sha256(ident.encode()).hexdigest()[:16]

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"[{self.function}] {self.message}")


class BaselineError(Exception):
    """Raised for malformed baselines or placeholder justifications."""


_PLACEHOLDER_PREFIXES = ("todo", "fixme", "xxx")


def is_placeholder(justification: str) -> bool:
    """True for a justification that says nothing: empty or TODO-style."""
    text = justification.strip().lower()
    return not text or text.startswith(_PLACEHOLDER_PREFIXES)


#: What --write-baseline emits; the loader refuses it until edited.
PLACEHOLDER_JUSTIFICATION = "FIXME: justify this suppression"


def load_baseline(path: pathlib.Path) -> dict[str, dict]:
    """Fingerprint -> suppression entry; every justification validated."""
    if not path.exists():
        return {}
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BaselineError(f"unreadable baseline {path}: {exc}") from exc
    entries = payload.get("suppressions", [])
    baseline: dict[str, dict] = {}
    for entry in entries:
        fingerprint = entry.get("fingerprint", "")
        justification = str(entry.get("justification", "")).strip()
        if not fingerprint:
            raise BaselineError(f"baseline entry missing fingerprint: {entry}")
        if is_placeholder(justification):
            raise BaselineError(
                f"suppression {fingerprint} ({entry.get('location', '?')}) "
                "has no real justification; every baselined finding must "
                "say why it is acceptable")
        baseline[fingerprint] = entry
    return baseline


def write_baseline(findings: Iterable[Finding], path: pathlib.Path) -> int:
    """Write every finding as a placeholder suppression; returns the count."""
    entries = [
        {
            "fingerprint": finding.fingerprint(),
            "rule": finding.rule,
            "location": f"{finding.path}:{finding.function}",
            "justification": PLACEHOLDER_JUSTIFICATION,
        }
        for finding in findings
    ]
    payload = {"version": 1, "suppressions": entries}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return len(entries)


def apply_baseline(
    findings: list[Finding], baseline: dict[str, dict]
) -> tuple[list[Finding], list[Finding], list[str]]:
    """Split findings into (active, suppressed); also return stale prints."""
    active: list[Finding] = []
    suppressed: list[Finding] = []
    matched: set[str] = set()
    for finding in findings:
        fingerprint = finding.fingerprint()
        if fingerprint in baseline:
            matched.add(fingerprint)
            suppressed.append(finding)
        else:
            active.append(finding)
    stale = sorted(fp for fp in baseline if fp not in matched)
    return active, suppressed, stale


# -- incremental cache --------------------------------------------------------


def tree_digest(files: list[tuple[pathlib.Path, str]],
                extra: str = "") -> str:
    """Digest of the analyzer version + every (path, content) pair."""
    digest = hashlib.sha256()
    digest.update(f"reproscan-v{ANALYZER_VERSION}|{extra}".encode())
    for path, source in sorted(files, key=lambda pair: str(pair[0])):
        digest.update(pathlib.PurePath(path).as_posix().encode())
        digest.update(b"\x00")
        digest.update(hashlib.sha256(source.encode()).digest())
    return digest.hexdigest()


def load_cached_findings(cache_file: pathlib.Path,
                         digest: str) -> Optional[list[Finding]]:
    try:
        payload = json.loads(cache_file.read_text())
    except (OSError, ValueError):
        return None
    if payload.get("digest") != digest:
        return None
    try:
        return [Finding(**entry) for entry in payload["findings"]]
    except (KeyError, TypeError):
        return None


def save_cached_findings(cache_file: pathlib.Path, digest: str,
                         findings: list[Finding]) -> None:
    cache_file.parent.mkdir(parents=True, exist_ok=True)
    payload = {"digest": digest,
               "findings": [asdict(finding) for finding in findings]}
    cache_file.write_text(json.dumps(payload))


# -- output formats -----------------------------------------------------------


def to_json(findings: list[Finding]) -> str:
    return json.dumps([asdict(finding) | {"fingerprint": finding.fingerprint()}
                       for finding in findings], indent=2)


def to_sarif(findings: list[Finding], rules: dict[str, str]) -> str:
    """Minimal SARIF 2.1.0 document (one run, one driver)."""
    sarif_rules = [
        {"id": rule_id,
         "shortDescription": {"text": description}}
        for rule_id, description in sorted(rules.items())
    ]
    results = [
        {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "partialFingerprints": {"reproscan/v1": finding.fingerprint()},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {"startLine": finding.line,
                               "startColumn": finding.col},
                },
                "logicalLocations": [{"fullyQualifiedName": finding.function}],
            }],
        }
        for finding in findings
    ]
    document = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                    "master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "reproscan",
                "informationUri": "docs/static-analysis.md",
                "rules": sarif_rules,
            }},
            "results": results,
        }],
    }
    return json.dumps(document, indent=2)
