"""Unit tests for the demo CLI."""

import pytest

from repro.cli import build_parser, main


def test_generate_prints_summary(capsys):
    assert main(["generate", "--documents", "25"]) == 0
    out = capsys.readouterr().out
    assert "generated 25 documents" in out
    assert "distinct paths" in out


def test_generate_writes_files(tmp_path, capsys):
    assert main(["generate", "--documents", "10",
                 "--out", str(tmp_path)]) == 0
    files = list(tmp_path.glob("*.xml"))
    assert len(files) == 10
    assert files[0].read_bytes().startswith(b"<")


def test_demo_runs_selected_queries(capsys):
    assert main(["demo", "--documents", "40", "--strategy", "lui",
                 "--instances", "2", "--queries", "q1,q6"]) == 0
    out = capsys.readouterr().out
    assert "built LUI" in out
    assert "q1" in out and "q6" in out
    assert "cost" in out


def test_demo_monitor_flag(capsys):
    assert main(["demo", "--documents", "30", "--queries", "q1",
                 "--instances", "2", "--monitor"]) == 0
    out = capsys.readouterr().out
    assert "Resource report" in out
    assert "dynamodb-write" in out


def test_demo_rejects_unknown_strategy():
    with pytest.raises(SystemExit):
        main(["demo", "--documents", "10", "--strategy", "BTREE"])


def test_demo_rejects_unknown_query():
    with pytest.raises(SystemExit):
        main(["demo", "--documents", "10", "--queries", "q42"])


def test_advise(capsys):
    assert main(["advise", "--documents", "40", "--runs", "7"]) == 0
    out = capsys.readouterr().out
    assert "recommendation:" in out
    assert "total @7 runs" in out
    for name in ("LU", "LUP", "LUI", "2LUPI"):
        assert name in out


def test_xquery_translation(capsys):
    assert main(["xquery", '//painting[/name{val}][/year="1854"]']) == 0
    out = capsys.readouterr().out
    assert "for $painting in" in out
    assert 'string($year) = "1854"' in out


def test_prices_provider_choice(capsys):
    assert main(["prices", "--provider", "google"]) == 0
    assert "google" in capsys.readouterr().out
    assert main(["prices"]) == 0
    assert "aws" in capsys.readouterr().out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.scrub
def test_scrub_command_clean_index(capsys):
    assert main(["scrub", "--documents", "12", "--seed", "7",
                 "--strategy", "LUP", "--instances", "2"]) == 0
    out = capsys.readouterr().out
    assert "built LUP epoch 1" in out
    assert "status=clean" in out
    assert "epochs: LUP e1 committed" in out


@pytest.mark.scrub
def test_scrub_command_repairs_damage(capsys):
    assert main(["scrub", "--documents", "12", "--seed", "7",
                 "--strategy", "LU", "--instances", "2",
                 "--damage", "corrupt-item,drop-table-partition"]) == 0
    out = capsys.readouterr().out
    assert "damaged: corrupt-item" in out
    assert "damaged: drop-table-partition" in out
    assert "status=repaired" in out
    assert "status=clean" in out


@pytest.mark.scrub
def test_scrub_command_detect_only_reports_damage(capsys):
    assert main(["scrub", "--documents", "12", "--seed", "7",
                 "--strategy", "LU", "--instances", "2",
                 "--damage", "corrupt-item", "--no-repair"]) == 1
    out = capsys.readouterr().out
    assert "status=damaged" in out


def test_scrub_command_rejects_unknown_damage():
    with pytest.raises(SystemExit):
        main(["scrub", "--documents", "10", "--damage", "gamma-rays"])


@pytest.mark.chaos
def test_chaos_command_runs_a_scenario_on_the_chosen_backend(
        capsys, monkeypatch):
    import repro.cli as cli
    backends = []
    run_scenario = cli.run_scenario

    def recording(*args, **kwargs):
        backends.append(kwargs.get("backend"))
        return run_scenario(*args, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", recording)
    assert main(["chaos", "--scenario", "loader-crash", "--backend",
                 "simpledb", "--documents", "12"]) == 0
    assert backends == ["simpledb"]
    out = capsys.readouterr().out
    assert "crashed instances: 1" in out
    assert "verdict: PASS" in out


def test_chaos_command_refuses_simpledb_only_for_scrub_repair():
    with pytest.raises(SystemExit) as refused:
        main(["chaos", "--scenario", "scrub-repair", "--backend",
              "simpledb"])
    assert "only the dynamodb backend" in str(refused.value)


@pytest.mark.scrub
def test_resume_command_recovers_interrupted_build(capsys):
    assert main(["resume", "--documents", "12", "--seed", "7",
                 "--strategy", "LUP", "--instances", "2",
                 "--batch-size", "2", "--interrupt-after", "2"]) == 0
    out = capsys.readouterr().out
    assert "interrupted=True" in out
    assert "committed=True" in out
    assert "committed epoch 1" in out


@pytest.mark.serving
def test_serve_command_fixed_fleet(capsys):
    assert main(["serve", "--documents", "12", "--seed", "7",
                 "--strategy", "LUI", "--workers", "2",
                 "--queries", "12", "--rate", "4.0"]) == 0
    out = capsys.readouterr().out
    assert "cost tie-out" in out
    assert "exact" in out


@pytest.mark.serving
def test_serve_command_autoscaled(capsys, tmp_path):
    out_path = tmp_path / "serving.json"
    assert main(["serve", "--documents", "12", "--seed", "7",
                 "--strategy", "LUI", "--autoscale",
                 "--arrival", "burst", "--queries", "20",
                 "--rate", "4.0", "--report-out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "exact" in out
    import json
    payload = json.loads(out_path.read_text())
    assert payload["completed"] == 20


@pytest.mark.serving
def test_serve_command_rejects_unknown_arrival():
    with pytest.raises(SystemExit):
        main(["serve", "--documents", "10", "--arrival", "flat"])


@pytest.mark.ingest
def test_ingest_command_inline_publishes_and_compacts(capsys, tmp_path):
    out_path = tmp_path / "ingest.json"
    assert main(["ingest", "--documents", "12", "--seed", "7",
                 "--strategy", "LUI", "--instances", "2",
                 "--batch-size", "4", "--rate", "0",
                 "--increments", "3", "--increment-documents", "4",
                 "--report-out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "live handle attached" in out
    assert "compaction e1 -> e2: committed=True" in out
    assert "MISMATCH" not in out
    import json
    payload = json.loads(out_path.read_text())
    assert len(payload["deltas"]) == 3
    assert payload["compactions"][0]["committed"] is True


@pytest.mark.ingest
@pytest.mark.serving
def test_ingest_command_under_serving_traffic(capsys):
    assert main(["ingest", "--documents", "12", "--seed", "7",
                 "--strategy", "LUI", "--instances", "2",
                 "--batch-size", "4", "--queries", "16",
                 "--rate", "2.0", "--increments", "2",
                 "--increment-documents", "4",
                 "--mutation-interval", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "cost tie-out" in out and "exact" in out
    assert "completed 16" in out


def test_resilience_flags_belong_to_serving_subcommands():
    """Only serve and ingest act on spot flags, and only serve on
    ``--failover`` (a live index cannot fail over yet); elsewhere they
    are usage errors rather than silently ignored."""
    for argv in (["demo", "--documents", "10", "--failover", "1:1"],
                 ["ingest", "--documents", "10", "--failover"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
