"""reproscan: seeded mutants, clean tree, baseline gate, cache, outputs.

The fixture files under ``tests/fixtures/scan/`` are seeded mutants —
each carries exactly one contract violation that exactly one rule must
catch — plus one clean file exercising every correct pattern the
analyzer must *not* flag.  The real ``src/repro`` tree must prove clean
with an empty baseline.
"""

import json
import pathlib

import pytest

from repro.analysis.scan import checks, cli, report
from repro.analysis.scan.cli import scan_paths

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "scan"
SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

#: fixture file -> the single rule its seeded mutation must trip.
MUTANTS = {
    "mut_synced_before_sync.py": "DUR001",
    "mut_ack_before_quorum.py": "DUR001",
    "mut_coalesced_ack_before_barrier.py": "DUR001",
    "mut_ack_after_append_batch.py": "DUR001",
    "mut_drop_fsync_manifest.py": "DUR002",
    "mut_extents_before_fsync.py": "DUR002",
    "mut_bare_yield.py": "GEN001",
    "mut_wallclock_sleep.py": "GEN002",
    "mut_yield_in_finally.py": "GEN003",
    "mut_unguarded_die_dict.py": "LOCK001",
    "mut_release_then_yield_mutate.py": "LOCK001",
}


def rules_in(path):
    return {finding.rule for finding in scan_paths([path])}


class TestMutants:
    @pytest.mark.parametrize("fixture,rule", sorted(MUTANTS.items()))
    def test_mutant_caught_by_exactly_the_intended_rule(self, fixture, rule):
        findings = scan_paths([FIXTURES / fixture])
        assert {f.rule for f in findings} == {rule}, (
            f"{fixture}: " + "; ".join(f.format() for f in findings)
        )

    @pytest.mark.parametrize("fixture", sorted(MUTANTS))
    def test_mutant_diagnostics_carry_precise_locations(self, fixture):
        for finding in scan_paths([FIXTURES / fixture]):
            assert finding.path.endswith(fixture)
            assert finding.line > 0 and finding.col > 0
            assert finding.function  # qualified name, never empty
            text = finding.format()
            assert f":{finding.line}:{finding.col}: {finding.rule}" in text

    def test_clean_fixture_has_zero_findings(self):
        findings = scan_paths([FIXTURES / "clean_commit.py"])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_mutants_jointly_exercise_every_rule(self):
        assert set(MUTANTS.values()) == set(checks.RULES), (
            "rules with no seeded mutant: "
            f"{set(checks.RULES) - set(MUTANTS.values())}"
        )

    def test_at_least_eight_seeded_mutants(self):
        assert len(MUTANTS) >= 8
        present = {p.name for p in FIXTURES.glob("mut_*.py")}
        assert present == set(MUTANTS)


class TestRealTreeIsClean:
    def test_src_repro_scans_clean(self):
        findings = scan_paths([SRC])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_checked_in_baseline_is_loadable_and_empty(self):
        baseline = report.load_baseline(
            pathlib.Path(__file__).parent.parent / "scan-baseline.json")
        assert baseline == {}


class TestFingerprints:
    def test_fingerprint_is_line_independent(self):
        a = report.Finding("DUR001", "p.py", 10, 5, "M.commit",
                           "watermark:_synced", "msg")
        b = report.Finding("DUR001", "p.py", 99, 1, "M.commit",
                           "watermark:_synced", "msg")
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_distinguishes_rule_path_function_key(self):
        base = report.Finding("DUR001", "p.py", 1, 1, "M.commit", "k", "msg")
        variants = [
            report.Finding("DUR002", "p.py", 1, 1, "M.commit", "k", "msg"),
            report.Finding("DUR001", "q.py", 1, 1, "M.commit", "k", "msg"),
            report.Finding("DUR001", "p.py", 1, 1, "M.other", "k", "msg"),
            report.Finding("DUR001", "p.py", 1, 1, "M.commit", "k2", "msg"),
        ]
        fingerprints = {base.fingerprint()} | {v.fingerprint()
                                               for v in variants}
        assert len(fingerprints) == 5


class TestBaseline:
    def test_placeholder_justification_rejected(self, tmp_path):
        findings = scan_paths([FIXTURES / "mut_bare_yield.py"])
        baseline_path = tmp_path / "baseline.json"
        report.write_baseline(findings, baseline_path)
        with pytest.raises(report.BaselineError):
            report.load_baseline(baseline_path)

    def test_real_justification_suppresses(self, tmp_path, capsys):
        fixture = str(FIXTURES / "mut_bare_yield.py")
        findings = scan_paths([fixture])
        baseline_path = tmp_path / "baseline.json"
        report.write_baseline(findings, baseline_path)
        payload = json.loads(baseline_path.read_text())
        for entry in payload["suppressions"]:
            entry["justification"] = "intentional mutant fixture for tests"
        baseline_path.write_text(json.dumps(payload))
        code = cli.main([fixture, "--baseline", str(baseline_path),
                         "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 suppressed" in out

    def test_stale_suppression_fails_the_gate(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({"version": 1, "suppressions": [{
            "fingerprint": "deadbeefdeadbeef",
            "rule": "DUR001",
            "location": "gone.py:Gone.commit",
            "justification": "the code this excused was deleted",
        }]}))
        code = cli.main([str(FIXTURES / "clean_commit.py"),
                         "--baseline", str(baseline_path), "--no-cache"])
        out = capsys.readouterr().out
        assert code == 1
        assert "stale suppression deadbeefdeadbeef" in out

    def test_malformed_baseline_is_config_error(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text("{not json")
        code = cli.main([str(FIXTURES / "clean_commit.py"),
                         "--baseline", str(baseline_path), "--no-cache"])
        assert code == 2

    def test_write_baseline_then_gate_roundtrip(self, tmp_path, capsys):
        fixture = str(FIXTURES / "mut_extents_before_fsync.py")
        baseline_path = tmp_path / "baseline.json"
        assert cli.main([fixture, "--baseline", str(baseline_path),
                         "--write-baseline", "--no-cache"]) == 0
        capsys.readouterr()
        # Placeholder justifications must not pass the gate as written.
        assert cli.main([fixture, "--baseline", str(baseline_path),
                         "--no-cache"]) == 2


class TestCache:
    def test_cache_hit_returns_identical_findings(self, tmp_path, capsys):
        fixture = str(FIXTURES / "mut_bare_yield.py")
        args = [fixture, "--cache-dir", str(tmp_path),
                "--baseline", str(tmp_path / "none.json"), "--format", "json"]
        assert cli.main(args) == 1
        first = json.loads(capsys.readouterr().out)
        assert cli.main(args) == 1
        second = json.loads(capsys.readouterr().out)
        assert first == second
        cached = json.loads((tmp_path / "results.json").read_text())
        assert len(cached["findings"]) == 1

    def test_cache_invalidated_by_content_change(self, tmp_path, capsys):
        source = (FIXTURES / "mut_bare_yield.py").read_text()
        target = tmp_path / "prog.py"
        target.write_text(source)
        args = [str(target), "--cache-dir", str(tmp_path / "cache"),
                "--baseline", str(tmp_path / "none.json")]
        assert cli.main(args) == 1
        assert "cache miss" in capsys.readouterr().out
        assert cli.main(args) == 1
        assert "cache hit" in capsys.readouterr().out
        target.write_text(source.replace("yield  # BUG", "pass  # fixed"))
        assert cli.main(args) == 0
        assert "cache miss" in capsys.readouterr().out

    def test_digest_covers_analyzer_version_and_select(self, tmp_path):
        files = [(tmp_path / "a.py", "x = 1\n")]
        assert report.tree_digest(files) != report.tree_digest(
            files, extra="DUR001")
        assert report.tree_digest(files) != report.tree_digest(
            [(tmp_path / "a.py", "x = 2\n")])


class TestOutputs:
    def test_json_output_parses_and_carries_fingerprints(self, capsys):
        code = cli.main([str(FIXTURES / "mut_yield_in_finally.py"),
                         "--format", "json", "--no-cache",
                         "--baseline", "/nonexistent-baseline.json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [entry["rule"] for entry in payload] == ["GEN003"]
        assert all(len(entry["fingerprint"]) == 16 for entry in payload)

    def test_sarif_output_is_well_formed(self, capsys):
        code = cli.main([str(FIXTURES / "mut_unguarded_die_dict.py"),
                         "--format", "sarif", "--no-cache",
                         "--baseline", "/nonexistent-baseline.json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "reproscan"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert rule_ids == set(checks.RULES)
        result = run["results"][0]
        assert result["ruleId"] == "LOCK001"
        assert "reproscan/v1" in result["partialFingerprints"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] > 0


class TestCliContract:
    def test_repro_cli_delegates_scan(self, capsys):
        from repro import cli as repro_cli
        assert repro_cli.main(["scan", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DUR001" in out and "LOCK001" in out

    def test_list_rules(self, capsys):
        assert cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in checks.RULES:
            assert rule_id in out

    def test_unknown_select_is_config_error(self, capsys):
        assert cli.main([str(FIXTURES), "--select", "NOPE999",
                         "--no-cache"]) == 2

    def test_select_limits_rules(self, capsys):
        code = cli.main([str(FIXTURES), "--select", "GEN003", "--no-cache",
                         "--baseline", "/nonexistent-baseline.json"])
        out = capsys.readouterr().out
        assert code == 1
        assert "GEN003" in out
        assert "DUR001" not in out and "LOCK001" not in out

    def test_no_files_is_config_error(self, tmp_path, capsys):
        assert cli.main([str(tmp_path), "--no-cache"]) == 2

    def test_syntax_error_reported_not_raised(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        code = cli.main([str(broken), "--no-cache",
                         "--baseline", "/nonexistent-baseline.json"])
        err = capsys.readouterr().err
        assert code == 0  # unparsable files produce E999 notes, not findings
        assert "E999" in err
