"""Tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


def run_cli(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


class TestEntryPoint:
    def test_python_dash_m_repro_runs_the_cli(self):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: repro ")
        for command in ("plan", "emulate", "sweep", "serve"):
            assert command in result.stdout


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.capacity_mw == 50.0
        assert args.green == 0.5
        assert args.storage == "net_metering"

    def test_invalid_storage_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--storage", "flywheel"])

    def test_emulate_defaults(self):
        args = build_parser().parse_args(["emulate"])
        assert args.vms == 9
        assert len(args.sites) == 3


class TestPlanCommand:
    def test_small_plan_runs(self):
        code, output = run_cli(
            [
                "--locations", "24", "--seed", "3",
                "plan", "--capacity-mw", "20", "--green", "0.5",
                "--iterations", "6", "--keep", "6", "--chains", "1",
            ]
        )
        assert code == 0
        assert "Network of" in output
        assert "achieved green fraction" in output

    def test_brown_plan_runs(self):
        code, output = run_cli(
            [
                "--locations", "24", "--seed", "3",
                "plan", "--capacity-mw", "20", "--green", "0.0", "--sources", "none",
                "--iterations", "5", "--keep", "6", "--chains", "1",
            ]
        )
        assert code == 0
        assert "green fraction: 0.0 %" in output


class TestSingleSiteCommand:
    def test_known_location(self):
        code, output = run_cli(
            ["--locations", "24", "single-site", "--location", "Nairobi, Kenya", "--green", "0.5"]
        )
        assert code == 0
        assert "Nairobi, Kenya" in output

    def test_unknown_location_lists_anchors(self):
        code, output = run_cli(["--locations", "24", "single-site", "--location", "Atlantis"])
        assert code == 1
        assert "Kiev, Ukraine" in output


class TestSweepCommand:
    @staticmethod
    def write_tiny_spec(tmp_path):
        from repro.scenarios import ScenarioSpec

        spec = ScenarioSpec(
            name="cli-tiny",
            num_locations=12,
            catalog_seed=3,
            hours_per_epoch=6,
            total_capacity_kw=20_000.0,
            search={"keep_locations": 4, "max_iterations": 3, "patience": 3,
                    "num_chains": 1, "seed": 3, "max_datacenters": 3},
        )
        path = tmp_path / "tiny.json"
        path.write_text(spec.to_json())
        return path

    def test_list_scenarios(self):
        code, output = run_cli(["sweep", "--list"])
        assert code == 0
        for name in ("fig06", "fig08", "table3", "smoke"):
            assert name in output

    def test_requires_scenario_or_spec(self):
        code, output = run_cli(["sweep"])
        assert code == 2
        assert "--scenario or --spec" in output

    def test_unknown_scenario_fails_cleanly(self):
        code, output = run_cli(["sweep", "--scenario", "fig99", "--no-cache"])
        assert code == 1
        assert "unknown scenario" in output

    def test_spec_file_sweep_with_axis_json_output(self, tmp_path):
        path = self.write_tiny_spec(tmp_path)
        code, output = run_cli(
            [
                "sweep", "--spec", str(path),
                "--axis", "min_green_fraction=0.0,0.5",
                "--json", "--no-cache",
            ]
        )
        assert code == 0
        payload = json.loads(output)
        assert len(payload["points"]) == 2
        records = [point["record"] for point in payload["points"]]
        assert all(record["feasible"] for record in records)
        greens = [point["overrides"]["min_green_fraction"] for point in payload["points"]]
        assert greens == [0.0, 0.5]

    def test_second_run_served_from_artifact_cache(self, tmp_path):
        path = self.write_tiny_spec(tmp_path)
        argv = [
            "sweep", "--spec", str(path),
            "--axis", "min_green_fraction=0.0,0.5",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        code_first, output_first = run_cli(argv)
        code_second, output_second = run_cli(argv)
        assert code_first == 0 and code_second == 0
        assert "2 computed, 0 from cache" in output_first
        assert "0 computed, 2 from cache" in output_second

    def test_set_overrides_spec_fields(self, tmp_path):
        path = self.write_tiny_spec(tmp_path)
        code, output = run_cli(
            [
                "sweep", "--spec", str(path),
                "--set", "storage=none", "--set", "min_green_fraction=1.0",
                "--json", "--no-cache",
            ]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["points"][0]["spec"]["storage"] == "none"
        assert payload["points"][0]["spec"]["min_green_fraction"] == 1.0


class TestEmulateCommand:
    def test_short_emulation(self):
        code, output = run_cli(["--locations", "24", "emulate", "--hours", "4", "--vms", "4"])
        assert code == 0
        assert "migrations" in output
        assert "green fraction" in output

    def test_unknown_site_fails_cleanly(self):
        code, output = run_cli(
            ["--locations", "24", "emulate", "--hours", "2", "--sites", "Nowhere, Atlantis"]
        )
        assert code == 1
        assert "unknown emulation site" in output
