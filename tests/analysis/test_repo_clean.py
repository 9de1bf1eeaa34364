"""The tier-1 gate: the repository itself must be repro-lint clean,
and a deliberately corrupted fixture must fail loudly through the CLI.

The CLI tests drive ``repro.analysis.__main__.main`` in-process: a
subprocess launch costs about two seconds of interpreter start and
imports per call (``repro.hw`` pulls in ``scipy.signal``), which the
exit codes and reports under test do not depend on.

Tier-1 always runs the fast gates: source roots via the library API
and the git-aware ``--changed-only`` CLI pass over the diff.  The
full four-directory project scan (src, examples, benchmarks, tests
against the checked-in ratchet baseline) is CI's job and runs here
only when ``CI`` is set, so the local red-green loop stays quick.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, apply_baseline, load_baseline
from repro.analysis.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
EXAMPLES = REPO_ROOT / "examples"
BENCHMARKS = REPO_ROOT / "benchmarks"
TESTS = REPO_ROOT / "tests"
BASELINE = REPO_ROOT / ".repro-lint-baseline.json"

in_ci = pytest.mark.skipif(
    not os.environ.get("CI"),
    reason="full-project scan runs in CI; tier-1 uses --changed-only",
)


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def cli(monkeypatch, capsys):
    """Run the repro-lint CLI in-process from ``cwd``.

    argparse usage errors raise ``SystemExit``; its code becomes the
    return code, so they still read as exit code 2.
    """
    def run(args: list[str], cwd: Path) -> CliResult:
        monkeypatch.chdir(cwd)
        try:
            returncode = main(args)
        except SystemExit as exc:
            returncode = exc.code
        captured = capsys.readouterr()
        return CliResult(returncode, captured.out, captured.err)

    return run


class TestRepoIsClean:
    def test_src_has_zero_findings(self):
        findings = analyze_paths([SRC])
        assert findings == [], "\n".join(
            f"{finding.location}: {finding.rule} {finding.message}"
            for finding in findings
        )

    def test_examples_have_zero_findings(self):
        assert analyze_paths([EXAMPLES]) == []

    def test_cli_gate_exits_zero(self, cli):
        result = cli(["src", "--format", "json"], cwd=REPO_ROOT)
        assert result.returncode == 0, result.stdout + result.stderr
        report = json.loads(result.stdout)
        assert report["total"] == 0

    def test_changed_only_gate_exits_zero(self, cli):
        # The tier-1 fast gate: lint only the files changed against
        # HEAD (project index still spans src).  On a pristine
        # checkout this is a no-op; on a dirty tree it checks exactly
        # the diff.
        result = cli(["src", "examples", "--changed-only"],
                     cwd=REPO_ROOT)
        assert result.returncode == 0, result.stdout + result.stderr


class TestFullProjectScanInCI:
    @in_ci
    def test_benchmarks_have_zero_findings(self):
        assert analyze_paths([BENCHMARKS]) == []

    @in_ci
    def test_tests_are_clean_modulo_baseline(self, monkeypatch):
        # Baseline keys are repo-relative (the CLI runs from the repo
        # root), so scan with relative paths from there.
        monkeypatch.chdir(REPO_ROOT)
        findings = analyze_paths(
            ["src", "examples", "benchmarks", "tests"])
        surviving, _ = apply_baseline(findings, load_baseline(BASELINE))
        assert surviving == [], "\n".join(
            f"{finding.location}: {finding.rule} {finding.message}"
            for finding in surviving
        )

    @in_ci
    def test_cli_full_scan_with_baseline_exits_zero(self, cli):
        result = cli(["src", "examples", "benchmarks", "tests"],
                     cwd=REPO_ROOT)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "baselined finding(s) suppressed" in result.stdout


class TestCorruptedFixtureFailsTheGate:
    def test_raw_address_yields_json_finding_and_nonzero_exit(
            self, tmp_path, cli):
        scratch = tmp_path / "src" / "repro" / "apps" / "corrupted.py"
        scratch.parent.mkdir(parents=True)
        scratch.write_text(
            "from __future__ import annotations\n"
            "\n"
            "def sabotage(bus):\n"
            "    bus.write(99, 1)\n"
        )
        result = cli([str(scratch), "--format", "json"], cwd=tmp_path)
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["total"] == 1
        finding = report["findings"][0]
        assert finding["rule"] == "RJ001"
        assert finding["file"] == str(scratch)
        assert finding["line"] == 4

    def test_overflowing_literal_yields_rj002(self, tmp_path, cli):
        scratch = tmp_path / "overflow.py"
        scratch.write_text(
            "from repro.hw import register_map as regmap\n"
            "\n"
            "def sabotage(bus):\n"
            "    bus.write(regmap.REG_REPLAY_LENGTH, 1024)\n"
        )
        result = cli([str(scratch), "--format", "json"], cwd=tmp_path)
        assert result.returncode == 1
        report = json.loads(result.stdout)
        rules = {finding["rule"] for finding in report["findings"]}
        assert "RJ002" in rules


class TestCliBasics:
    def test_list_rules(self, cli):
        result = cli(["--list-rules"], cwd=REPO_ROOT)
        assert result.returncode == 0
        for code in ("RJ001", "RJ002", "RJ003", "RJ004", "RJ005",
                     "RJ010", "RJ011", "RJ012", "RJ014"):
            assert code in result.stdout

    def test_missing_path_is_usage_error(self, cli):
        result = cli(["no/such/path"], cwd=REPO_ROOT)
        assert result.returncode == 2

    def test_select_unknown_rule_is_usage_error(self, cli):
        result = cli(["src", "--select", "RJ999"], cwd=REPO_ROOT)
        assert result.returncode == 2

    def test_text_format_reports_clean(self, cli):
        result = cli(["src/repro/units.py"], cwd=REPO_ROOT)
        assert result.returncode == 0
        assert "clean" in result.stdout


class TestCliBaselineAndSarif:
    CORRUPTED = (
        "from __future__ import annotations\n"
        "\n"
        "def sabotage(bus):\n"
        "    bus.write(99, 1)\n"
    )

    def _scratch(self, tmp_path: Path) -> Path:
        scratch = tmp_path / "src" / "repro" / "apps" / "corrupted.py"
        scratch.parent.mkdir(parents=True)
        scratch.write_text(self.CORRUPTED)
        return scratch

    def test_update_baseline_then_rerun_is_clean(self, tmp_path, cli):
        scratch = self._scratch(tmp_path)
        update = cli([str(scratch), "--update-baseline"], cwd=tmp_path)
        assert update.returncode == 0, update.stdout + update.stderr
        assert (tmp_path / ".repro-lint-baseline.json").exists()
        rerun = cli([str(scratch)], cwd=tmp_path)
        assert rerun.returncode == 0, rerun.stdout + rerun.stderr
        assert "baselined finding(s) suppressed" in rerun.stdout

    def test_new_finding_beyond_baseline_still_fails(self, tmp_path, cli):
        scratch = self._scratch(tmp_path)
        cli([str(scratch), "--update-baseline"], cwd=tmp_path)
        scratch.write_text(self.CORRUPTED + "    bus.write(98, 2)\n")
        rerun = cli([str(scratch)], cwd=tmp_path)
        assert rerun.returncode == 1
        assert "RJ001" in rerun.stdout

    def test_no_baseline_reports_everything(self, tmp_path, cli):
        scratch = self._scratch(tmp_path)
        cli([str(scratch), "--update-baseline"], cwd=tmp_path)
        rerun = cli([str(scratch), "--no-baseline"], cwd=tmp_path)
        assert rerun.returncode == 1
        assert "RJ001" in rerun.stdout

    def test_sarif_output_for_a_finding(self, tmp_path, cli):
        scratch = self._scratch(tmp_path)
        result = cli([str(scratch), "--format", "sarif"], cwd=tmp_path)
        assert result.returncode == 1
        sarif = json.loads(result.stdout)
        assert sarif["version"] == "2.1.0"
        rule_ids = {res["ruleId"]
                    for res in sarif["runs"][0]["results"]}
        assert "RJ001" in rule_ids
