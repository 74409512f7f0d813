"""Tests for result export (CSV/JSON) and the CLI."""

import json

import pytest

from repro.harness.__main__ import SUBCOMMANDS, main as cli_main
from repro.harness.experiments import ExperimentResult, sec55_recovery
from repro.harness.export import load_json, to_csv, to_json, write_result


@pytest.fixture
def result():
    return ExperimentResult(
        experiment="demo",
        title="Demo",
        headers=["workload", "speedup"],
        rows=[["hashmap", 1.66], ["redis", 1.8]],
        summary={"mean": 1.73},
        notes="note",
    )


class TestCsv:
    def test_header_and_rows(self, result):
        lines = to_csv(result).strip().splitlines()
        assert lines[0] == "workload,speedup"
        assert lines[1] == "hashmap,1.66"
        assert len(lines) == 3

    def test_real_experiment(self):
        text = to_csv(sec55_recovery())
        assert "44480" in text


class TestJson:
    def test_roundtrip_fields(self, result):
        data = json.loads(to_json(result))
        assert data["experiment"] == "demo"
        assert data["rows"][0] == ["hashmap", 1.66]
        assert data["summary"]["mean"] == 1.73
        assert data["notes"] == "note"


class TestWriteResult:
    def test_writes_both_formats(self, result, tmp_path):
        paths = write_result(result, tmp_path)
        names = {p.name for p in paths}
        assert names == {"demo.csv", "demo.json"}
        assert load_json(tmp_path / "demo.json")["title"] == "Demo"

    def test_csv_only(self, result, tmp_path):
        paths = write_result(result, tmp_path, formats=("csv",))
        assert [p.suffix for p in paths] == [".csv"]

    def test_creates_directory(self, result, tmp_path):
        target = tmp_path / "nested" / "dir"
        write_result(result, target)
        assert (target / "demo.json").exists()


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out
        assert "tab03" in out

    def test_static_experiment(self, capsys):
        assert cli_main(["sec55"]) == 0
        assert "44480" in capsys.readouterr().out

    def test_export_flag(self, tmp_path, capsys):
        assert cli_main(["tab03", "--export", str(tmp_path)]) == 0
        assert (tmp_path / "tab03.csv").exists()
        assert (tmp_path / "tab03.json").exists()

    def test_unknown_experiment_raises(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["fig99"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'fig99'; choose from [" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_every_subcommand_has_help(self, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([name, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")
