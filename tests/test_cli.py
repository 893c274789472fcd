"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_cost_command(capsys):
    assert main(["cost", "--year", "2013"]) == 0
    out = capsys.readouterr().out
    assert "SOC-CP design cost in 2013" in out
    assert "$" in out


def test_cost_with_freeze(capsys):
    main(["cost", "--year", "2028", "--freeze", "2013"])
    out = capsys.readouterr().out
    assert "DT frozen at 2013" in out


def test_flow_command(capsys, tmp_path):
    verilog = tmp_path / "out.v"
    def_file = tmp_path / "out.def"
    code = main([
        "flow", "--design", "PHY", "--target", "0.4", "--seed", "3",
        "--write-verilog", str(verilog), "--write-def", str(def_file),
    ])
    out = capsys.readouterr().out
    assert "design=phy" in out
    assert "area=" in out
    assert verilog.exists() and "module phy" in verilog.read_text()
    assert def_file.exists() and "DIEAREA" in def_file.read_text()
    assert code in (0, 1)


def test_flow_verbose_prints_log(capsys):
    main(["flow", "--design", "PHY", "--target", "0.4", "--verbose"])
    out = capsys.readouterr().out
    assert "SP&R flow log" in out


def test_noise_command(capsys):
    assert main(["noise", "--design", "PHY", "--targets", "0.4,0.6", "--seeds", "3"]) == 0
    out = capsys.readouterr().out
    assert "noise growth ratio" in out


def test_doomed_command(capsys):
    assert main(["doomed", "--train", "80", "--test", "60"]) == 0
    out = capsys.readouterr().out
    assert "STOP(s): total error" in out


def test_mab_command(capsys):
    assert main([
        "mab", "--design", "PHY", "--arms", "0.4,0.8", "--iterations", "3",
        "--concurrent", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "recommended target" in out
    assert "executor: jobs=" in out  # the stats line


def test_mab_command_parallel_with_cache(capsys, tmp_path):
    args = ["mab", "--design", "PHY", "--arms", "0.4,0.8", "--iterations", "2",
            "--concurrent", "2", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 0  # second run replays from the disk cache
    out = capsys.readouterr().out
    assert "disk=4" in out


def test_explore_command(capsys):
    code = main(["explore", "--design", "PHY", "--rounds", "1",
                 "--concurrent", "2", "--seed", "1"])
    out = capsys.readouterr().out
    assert "2 runs over 1 rounds" in out
    assert "executor: jobs=2" in out
    assert code == 0


def test_explore_with_stage_cache(capsys):
    code = main(["explore", "--design", "PHY", "--rounds", "1",
                 "--concurrent", "2", "--seed", "1", "--stage-cache"])
    out = capsys.readouterr().out
    assert "stage_misses=" in out  # stage accounting surfaced in the summary
    assert code == 0


def test_metrics_summary_reports_incremental_timing(capsys, tmp_path):
    out_file = tmp_path / "campaign.jsonl"
    assert main(["explore", "--design", "PHY", "--rounds", "1",
                 "--concurrent", "2", "--seed", "1", "--stage-cache",
                 "--metrics-out", str(out_file)]) == 0
    capsys.readouterr()
    assert main(["metrics", "summary", "--in", str(out_file)]) == 0
    out = capsys.readouterr().out
    # the staged path ran real timing, so the sta.* events are nonzero
    # and the summary surfaces the incremental-vs-full digest
    assert "sta.incremental.updates" in out
    assert "timing:" in out
    assert "incremental updates vs" in out
    assert "full propagations" in out


def test_cache_stats_command(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    assert main(["explore", "--design", "PHY", "--rounds", "1",
                 "--concurrent", "2", "--seed", "1", "--stage-cache",
                 "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "2 disk entries" in out
    assert "schema 2: 2 entries (usable)" in out
    assert "stage prefix" in out
    assert "droute_signoff" in out
    assert "work: delivered=" in out


def test_cache_stats_flags_stale_schemas(capsys, tmp_path):
    (tmp_path / "old.json").write_text('{"design": "x", "schema": 1}')
    (tmp_path / "bad.json").write_text("{not json")
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "schema 1: 1 entries (stale -> treated as misses)" in out
    assert "1 unreadable entries" in out
    assert "no cache-stats.json" in out


def test_cache_stats_counts_non_object_files_as_unreadable(capsys, tmp_path):
    for i, payload in enumerate(["null", "42", '"x"', "[1, 2]"]):
        (tmp_path / f"bad{i}.json").write_text(payload)
    (tmp_path / "cache-stats.json").write_text("[1, 2]")
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 disk entries" in out
    assert "4 unreadable entries" in out
    assert "no cache-stats.json" in out


def test_cache_stats_missing_dir(capsys, tmp_path):
    assert main(["cache", "stats", "--dir", str(tmp_path / "nope")]) == 1


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["definitely-not-a-command"])


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("flow", "noise", "doomed", "mab", "cost", "cache"):
        assert command in text


def test_stage_cache_flag_on_campaign_parsers():
    parser = build_parser()
    args = parser.parse_args(["mab", "--stage-cache"])
    assert args.stage_cache is True
    args = parser.parse_args(["explore"])
    assert args.stage_cache is False
