"""Artifact-cache correctness: code fingerprints, cache keys, CLI management.

The stale-artifact bug under test: artifacts used to be keyed by spec content
hash alone, so a solver-semantics change silently replayed numbers the old
code produced.  Version-2 artifacts carry a code fingerprint that must match
the running code on load.
"""

import json


from repro.cli import main
from repro.scenarios import ExperimentRunner, ScenarioSpec
from repro.scenarios.runner import ARTIFACT_SCHEMA_VERSION, clear_artifact_cache
from repro.scenarios import spec as spec_module
from repro.scenarios.spec import code_fingerprint, source_digest

TINY_SEARCH = {
    "keep_locations": 4,
    "max_iterations": 3,
    "patience": 3,
    "num_chains": 1,
    "seed": 3,
    "max_datacenters": 3,
}


def tiny_spec(**overrides) -> ScenarioSpec:
    spec = ScenarioSpec(
        num_locations=12,
        catalog_seed=3,
        days_per_season=1,
        hours_per_epoch=6,
        total_capacity_kw=20_000.0,
        search=dict(TINY_SEARCH),
    )
    return spec.with_updates(**overrides) if overrides else spec


class TestFingerprintedArtifacts:
    def test_stored_artifact_carries_schema_and_fingerprint(self, tmp_path):
        ExperimentRunner(cache_dir=tmp_path).run_point(tiny_spec())
        [artifact] = list(tmp_path.glob("point-*.json"))
        payload = json.loads(artifact.read_text())
        assert payload["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert payload["fingerprint"] == code_fingerprint()
        assert "point" in payload

    def test_mismatched_fingerprint_is_recomputed(self, tmp_path):
        first = ExperimentRunner(cache_dir=tmp_path).run_point(tiny_spec())
        [artifact] = list(tmp_path.glob("point-*.json"))
        payload = json.loads(artifact.read_text())
        payload["fingerprint"]["source_digest"] = "0" * 64  # an older source tree
        artifact.write_text(json.dumps(payload))

        fresh = ExperimentRunner(cache_dir=tmp_path).run_point(tiny_spec())
        assert not fresh.from_cache  # rejected, recomputed
        assert fresh.record == first.record
        # The rewrite stamps the current fingerprint back onto disk.
        stored = json.loads(artifact.read_text())
        assert stored["fingerprint"] == code_fingerprint()

    def test_edited_sources_recompute_cached_points(self, tmp_path, monkeypatch):
        first = ExperimentRunner(cache_dir=tmp_path).run_point(tiny_spec())
        assert ExperimentRunner(cache_dir=tmp_path).run_point(tiny_spec()).from_cache
        # The same spec under edited solver code must not replay the old record.
        monkeypatch.setattr(spec_module, "source_digest", lambda: "edited-sources")
        fresh = ExperimentRunner(cache_dir=tmp_path).run_point(tiny_spec())
        assert not fresh.from_cache
        assert fresh.record == first.record
        assert code_fingerprint()["source_digest"] == "edited-sources"

    def test_source_digest_tracks_file_contents(self, tmp_path, monkeypatch):
        package = tmp_path / "pkg"
        (package / "sub").mkdir(parents=True)
        (package / "a.py").write_text("x = 1\n")
        (package / "sub" / "b.py").write_text("y = 2\n")
        (package / "notes.txt").write_text("not source")
        monkeypatch.setattr(spec_module, "_PACKAGE_ROOT", package)
        source_digest.cache_clear()
        try:
            before = source_digest()
            assert source_digest() == before  # cached
            source_digest.cache_clear()
            assert source_digest() == before  # and deterministic
            (package / "notes.txt").write_text("edited, still not source")
            source_digest.cache_clear()
            assert source_digest() == before
            (package / "sub" / "b.py").write_text("y = 3\n")
            source_digest.cache_clear()
            assert source_digest() != before
        finally:
            source_digest.cache_clear()  # the next caller hashes the real package

    def test_fingerprint_hashes_the_package_sources(self):
        fingerprint = code_fingerprint()
        assert set(fingerprint) == {"source_digest", "spec_schema", "numpy", "scipy"}
        assert len(fingerprint["source_digest"]) == 64

    def test_old_schema_is_recomputed(self, tmp_path):
        ExperimentRunner(cache_dir=tmp_path).run_point(tiny_spec())
        [artifact] = list(tmp_path.glob("point-*.json"))
        payload = json.loads(artifact.read_text())
        payload["schema_version"] = 1
        artifact.write_text(json.dumps(payload))
        assert not ExperimentRunner(cache_dir=tmp_path).run_point(tiny_spec()).from_cache


class TestExecutionKnobsOutsideTheCacheKey:
    def test_runner_executor_and_workers_do_not_change_records(self):
        reference = ExperimentRunner(workers=1, executor="serial").run_point(tiny_spec())
        for workers, executor in ((3, "thread"), (2, "process")):
            point = ExperimentRunner(workers=workers, executor=executor).run_point(tiny_spec())
            assert point.record == reference.record

    def test_process_run_hits_serial_artifacts(self, tmp_path):
        serial = ExperimentRunner(cache_dir=tmp_path, executor="serial")
        serial.run_point(tiny_spec())
        process = ExperimentRunner(cache_dir=tmp_path, workers=2, executor="process")
        point = process.run_point(tiny_spec())
        assert point.from_cache


class TestCacheManagement:
    def test_clear_removes_only_artifacts(self, tmp_path):
        ExperimentRunner(cache_dir=tmp_path).run_point(tiny_spec())
        bystander = tmp_path / "notes.txt"
        bystander.write_text("keep me")
        assert clear_artifact_cache(tmp_path) == 1
        assert not list(tmp_path.glob("point-*.json"))
        assert bystander.exists()
        assert clear_artifact_cache(tmp_path) == 0
        assert clear_artifact_cache(tmp_path / "missing") == 0

    def test_cli_cache_info_and_clear(self, tmp_path, capsys):
        ExperimentRunner(cache_dir=tmp_path).run_point(tiny_spec())
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "stored points : 1" in out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 cached points" in capsys.readouterr().out
        assert not list(tmp_path.glob("point-*.json"))

    def test_cli_sweep_no_cache_writes_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        code = main(
            [
                "sweep",
                "--scenario",
                "smoke",
                "--no-cache",
                "--cache-dir",
                str(cache_dir),
                "--json",
            ]
        )
        assert code == 0
        assert not cache_dir.exists()
