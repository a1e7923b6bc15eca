"""The coverage gate's package-floor logic, exercised on synthetic
reports (pytest-cov itself is optional, the gate's arithmetic is not)."""

import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_coverage  # noqa: E402


def _entry(covered: int, statements: int) -> dict:
    return {"summary": {"covered_lines": covered, "num_statements": statements}}


def _report(tmp_path, files: dict) -> str:
    path = tmp_path / "coverage.json"
    path.write_text(json.dumps({"files": files}))
    return str(path)


GOOD = {
    "src/repro/serve/service.py": _entry(90, 100),
    "src/repro/serve/bus.py": _entry(90, 100),
    "src/repro/serve/recalibrate.py": _entry(90, 100),
    "src/repro/attacks/mimicry.py": _entry(95, 100),
    "src/repro/conformance/matrix.py": _entry(88, 100),
    "src/repro/learn/contexts.py": _entry(92, 100),
    "src/repro/learn/ensemble.py": _entry(92, 100),
    "src/repro/hw/memometer.py": _entry(95, 100),
    "src/repro/sim/kernel/footprint.py": _entry(95, 100),
    "src/repro/cli.py": _entry(80, 100),
}


class TestGates:
    def test_every_subsystem_is_gated(self):
        assert set(check_coverage.GATES) == {
            "src/repro/serve/",
            "src/repro/serve/bus.py",
            "src/repro/serve/recalibrate.py",
            "src/repro/attacks/",
            "src/repro/conformance/",
            "src/repro/learn/contexts.py",
            "src/repro/learn/ensemble.py",
            "src/repro/hw/memometer.py",
            "src/repro/sim/kernel/footprint.py",
        }
        assert all(floor >= 85.0 for floor in check_coverage.GATES.values())

    def test_all_floors_met_passes(self, tmp_path, capsys):
        assert check_coverage.main([_report(tmp_path, GOOD)]) == 0
        assert "coverage gate passed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "path", ["src/repro/attacks/mimicry.py", "src/repro/conformance/matrix.py"]
    )
    def test_gated_package_below_floor_fails(self, tmp_path, capsys, path):
        files = dict(GOOD)
        files[path] = _entry(60, 100)
        assert check_coverage.main([_report(tmp_path, files)]) == 1
        assert "coverage gate FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("prefix", list(check_coverage.GATES))
    def test_missing_gated_package_fails(self, tmp_path, capsys, prefix):
        files = {k: v for k, v in GOOD.items() if prefix not in k}
        assert check_coverage.main([_report(tmp_path, files)]) == 1
        assert f"no {prefix} files" in capsys.readouterr().out

    def test_module_gate_not_masked_by_serve_aggregate(
        self, tmp_path, capsys
    ):
        """An undertested bus.py must fail its own gate even when the
        serve/ aggregate stays above the package floor."""
        files = dict(GOOD)
        files["src/repro/serve/service.py"] = _entry(100, 100)
        files["src/repro/serve/bus.py"] = _entry(60, 100)
        files["src/repro/serve/recalibrate.py"] = _entry(100, 100)
        assert check_coverage.main([_report(tmp_path, files)]) == 1
        out = capsys.readouterr().out
        assert "src/repro/serve/bus.py below 85.0%" in out

    def test_rest_below_baseline_fails(self, tmp_path, capsys):
        files = dict(GOOD)
        files["src/repro/cli.py"] = _entry(10, 100)
        assert check_coverage.main([_report(tmp_path, files)]) == 1
        assert "below baseline" in capsys.readouterr().out

    def test_gated_packages_excluded_from_rest(self, tmp_path, capsys):
        """A stellar attacks/ score must not mask a rest regression."""
        files = {
            "src/repro/attacks/mimicry.py": _entry(100, 1000),
            "src/repro/serve/service.py": _entry(90, 100),
            "src/repro/conformance/matrix.py": _entry(88, 100),
            "src/repro/learn/contexts.py": _entry(92, 100),
            "src/repro/learn/ensemble.py": _entry(92, 100),
            "src/repro/cli.py": _entry(10, 100),
        }
        assert check_coverage.main([_report(tmp_path, files)]) == 1
        assert "below baseline" in capsys.readouterr().out

    def test_unreadable_report_fails(self, tmp_path, capsys):
        assert check_coverage.main([str(tmp_path / "ghost.json")]) == 1
        assert "unreadable report" in capsys.readouterr().out
