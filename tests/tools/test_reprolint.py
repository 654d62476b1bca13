"""Self-tests for the reprolint contract linter.

Every rule is exercised against a true-positive fixture (each planted
violation must be reported) and a false-positive fixture (the legitimate
idiom must stay clean); pragma suppression, configuration handling and the
CLI exit codes are covered on top.  The fixtures live in
``tests/tools/fixtures/`` and are excluded from repo-wide lint runs by the
``[tool.reprolint]`` block in ``pyproject.toml``.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import pytest

from tools.reprolint import Config, RULES, lint_file, lint_paths, load_config, main
from tools.reprolint.config import DEFAULT_DESCRIPTOR_CLASSES, config_from_table

FIXTURES = Path(__file__).parent / "fixtures"

#: Config for fixture linting: no excludes (the repo config excludes the
#: fixture directory on purpose) and FLT001 active on the fixture path.
FIXTURE_CONFIG = Config(exclude=(), float_paths=("tests/tools/fixtures",))


def findings_for(name: str, config: Config = FIXTURE_CONFIG):
    return lint_file(str(FIXTURES / name), config)


def findings_under_src(name: str):
    """Lint a fixture as if it sat under ``src/``, where IMP001 applies."""
    return lint_file(str(FIXTURES / name), FIXTURE_CONFIG, relpath=f"src/{name}")


def codes_and_lines(findings):
    return {(finding.code, finding.line) for finding in findings if not finding.suppressed}


class TestRuleTruePositives:
    def test_det001_catches_every_global_rng_flavour(self):
        found = codes_and_lines(findings_for("det001_true_positive.py"))
        assert found == {
            ("DET001", 8),   # random.random()
            ("DET001", 9),   # from-imported randint()
            ("DET001", 10),  # np.random.rand()
            ("DET001", 11),  # unseeded default_rng()
            ("DET001", 12),  # unseeded random.Random()
        }

    def test_det002_catches_hash_outside_dunder(self):
        found = codes_and_lines(findings_for("det002_true_positive.py"))
        assert found == {("DET002", 5)}

    def test_det003_catches_wall_clock_reads(self):
        found = codes_and_lines(findings_for("det003_true_positive.py"))
        assert found == {("DET003", 6), ("DET003", 7), ("DET003", 8)}

    def test_det004_catches_module_state_seeds(self):
        found = codes_and_lines(findings_for("det004_true_positive.py"))
        assert found == {
            ("DET004", 11),  # module-level seed from a module global
            ("DET004", 15),  # function seed reads module state
            ("DET004", 19),  # module state mixed into a derived seed
            ("DET004", 23),  # keyword seed= argument
        }

    def test_pkl001_catches_lambdas_and_local_defs(self):
        found = codes_and_lines(findings_for("pkl001_true_positive.py"))
        assert found == {("PKL001", 5), ("PKL001", 10), ("PKL001", 11)}

    def test_flt001_catches_exact_float_equality(self):
        found = codes_and_lines(findings_for("flt001_true_positive.py"))
        assert found == {("FLT001", 5), ("FLT001", 7)}

    def test_imp001_catches_module_level_scipy_subpackage_imports(self):
        found = codes_and_lines(findings_under_src("imp001_true_positive.py"))
        assert found == {
            ("IMP001", 3),   # import scipy.sparse
            ("IMP001", 4),   # import scipy.sparse.linalg as ...
            ("IMP001", 5),   # from scipy import optimize, special
            ("IMP001", 6),   # from scipy.stats import ...
            ("IMP001", 7),   # from scipy.interpolate import ...
            ("IMP001", 10),  # module level inside try
            ("IMP001", 16),  # class body
        }

    def test_set001_catches_order_leaks(self):
        found = codes_and_lines(findings_for("set001_true_positive.py"))
        assert found == {
            ("SET001", 5),  # list(set(...))
            ("SET001", 6),  # for over a set literal
            ("SET001", 8),  # join over a set difference
            ("SET001", 9),  # dict comprehension over a set
        }


class TestRuleFalsePositives:
    @pytest.mark.parametrize(
        "fixture",
        [
            "det001_false_positive.py",
            "det002_false_positive.py",
            "det003_false_positive.py",
            "det004_false_positive.py",
            "pkl001_false_positive.py",
            "flt001_false_positive.py",
            "set001_false_positive.py",
            "clean_module.py",
        ],
    )
    def test_legitimate_idioms_stay_clean(self, fixture):
        assert codes_and_lines(findings_for(fixture)) == set()

    def test_imp001_allows_lazy_and_type_checking_imports(self):
        assert codes_and_lines(findings_under_src("imp001_false_positive.py")) == set()


class TestPragmas:
    def test_matching_pragma_suppresses_and_others_survive(self):
        findings = findings_for("pragma_suppressed.py")
        suppressed = [f for f in findings if f.suppressed]
        live = [f for f in findings if not f.suppressed]
        assert [(f.code, f.line) for f in suppressed] == [("DET001", 5)]
        # Line 6 has no pragma; line 7's pragma names the wrong rule.
        assert {(f.code, f.line) for f in live} == {("DET001", 6), ("DET001", 7)}

    def test_unknown_pragma_code_is_itself_reported(self, tmp_path):
        source = tmp_path / "module.py"
        # Assembled at runtime so this test file itself stays pragma-clean.
        source.write_text("x = 1  # reprolint: " + "ok(NOPE999)\n")
        findings = lint_file(str(source), FIXTURE_CONFIG)
        assert any(f.code == "RLERR" and "NOPE999" in f.message for f in findings)

    def test_skip_file_pragma_skips_the_module(self, tmp_path):
        source = tmp_path / "module.py"
        source.write_text("# reprolint: skip-file\nimport random\nx = random.random()\n")
        assert lint_file(str(source), FIXTURE_CONFIG) == []


class TestConfig:
    def test_defaults_exclude_the_fixture_directory(self):
        config = Config()
        assert config.is_excluded("tests/tools/fixtures/det001_true_positive.py")
        assert not config.is_excluded("tests/tools/test_reprolint.py")

    def test_float_rule_scoping(self):
        config = Config()
        assert config.float_rule_applies("src/repro/lpsolver/model.py")
        assert config.float_rule_applies("src/repro/operator/dispatch.py")
        assert not config.float_rule_applies("src/repro/geo/grid.py")

    def test_import_rule_applies_only_under_src(self):
        found = codes_and_lines(findings_for("imp001_true_positive.py"))
        assert found == set()

    def test_select_restricts_rules(self):
        config = Config(
            select=("DET002",), exclude=(), float_paths=("tests/tools/fixtures",)
        )
        findings = findings_for("det001_true_positive.py", config)
        assert codes_and_lines(findings) == set()

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_table({"surprise": ["x"]})

    def test_pyproject_roundtrip(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            '[tool.reprolint]\nselect = ["SET001"]\nexclude = ["build"]\n'
        )
        config = load_config(str(pyproject))
        assert config.select == ("SET001",)
        assert config.exclude == ("build",)
        # Unconfigured keys keep their defaults.
        assert "PointTask" in config.descriptor_classes

    def test_default_descriptors_match_pyproject_and_work_module(self):
        import repro.parallel.work as work

        config = load_config(os.path.join(os.path.dirname(__file__), "..", "..", "pyproject.toml"))
        assert config.descriptor_classes == DEFAULT_DESCRIPTOR_CLASSES
        for name in DEFAULT_DESCRIPTOR_CLASSES:
            assert isinstance(getattr(work, name, None), type), name

    def test_repo_pyproject_excludes_fixtures(self):
        config = load_config(os.path.join(os.path.dirname(__file__), "..", "..", "pyproject.toml"))
        assert config.is_excluded("tests/tools/fixtures/whatever.py")


class TestDirectoryLinting:
    def test_lint_paths_walks_and_respects_excludes(self):
        findings = lint_paths([str(FIXTURES)], FIXTURE_CONFIG)
        assert {f.code for f in findings if not f.suppressed} >= {
            "DET001", "DET002", "DET003", "DET004", "PKL001", "FLT001", "SET001",
        }
        excluded = Config(
            exclude=(os.path.relpath(FIXTURES).replace(os.sep, "/"),)
        )
        assert lint_paths([str(FIXTURES)], excluded) == []


class TestCLI:
    def _run(self, argv):
        stream = io.StringIO()
        code = main(argv, stream=stream)
        return code, stream.getvalue()

    def _fixture_pyproject(self, tmp_path) -> str:
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            '[tool.reprolint]\nexclude = []\nfloat-paths = ["tests/tools/fixtures"]\n'
        )
        return str(pyproject)

    def test_exit_zero_on_clean_file(self, tmp_path):
        code, output = self._run(
            ["--config", self._fixture_pyproject(tmp_path), str(FIXTURES / "clean_module.py")]
        )
        assert code == 0
        assert "0 findings" in output

    def test_exit_one_on_findings(self, tmp_path):
        code, output = self._run(
            ["--config", self._fixture_pyproject(tmp_path), str(FIXTURES / "det001_true_positive.py")]
        )
        assert code == 1
        assert "DET001" in output

    def test_exit_two_on_missing_path(self, tmp_path):
        code, _ = self._run(
            ["--config", self._fixture_pyproject(tmp_path), str(tmp_path / "nope.py")]
        )
        assert code == 2

    def test_exit_two_on_unknown_select(self):
        code, _ = self._run(["--select", "NOPE001", "src"])
        assert code == 2

    def test_exit_two_on_syntax_error(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        code, _ = self._run(["--config", self._fixture_pyproject(tmp_path), str(bad)])
        assert code == 2

    def test_list_rules(self):
        code, output = self._run(["--list-rules"])
        assert code == 0
        for rule in RULES:
            assert rule.code in output

    def test_show_suppressed(self, tmp_path):
        code, output = self._run(
            [
                "--config", self._fixture_pyproject(tmp_path),
                "--show-suppressed",
                str(FIXTURES / "pragma_suppressed.py"),
            ]
        )
        assert code == 1
        assert "(suppressed)" in output

    def test_repo_tree_is_clean(self):
        # The acceptance gate: the shipped configuration over the shipped
        # tree must be violation-free.
        code, output = self._run(["src", "tests", "tools"])
        assert code == 0, output
