"""Command-line interface: subcommands, headers, exit codes."""

import json

import pytest

from edgeproc.cli import main


@pytest.fixture
def single_edge_cfg(tmp_path):
    p = tmp_path / "single_edge.json"
    p.write_text(json.dumps(
        {"family": "explicit", "edges": [[1, 2, 1.0]]}))
    return str(p)


@pytest.fixture
def plp_cfg(tmp_path):
    p = tmp_path / "plp25.json"
    p.write_text(json.dumps(
        {"family": "power_law_product", "gamma": 2.5, "n_max": 30,
         "normalize": True}))
    return str(p)


def header_of(path):
    return [ln for ln in path.read_text().splitlines() if ln.startswith("# ")]


class TestSimulate:
    def test_single_edge_one_event(self, tmp_path, single_edge_cfg):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--measure", single_edge_cfg,
                   "--horizon-t", "10", "--seed", "7", "--out", str(out)])
        assert rc == 0
        lines = [ln for ln in out.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert lines[0] == "index,time,i,j,new_vertices,new_component"
        assert len(lines) == 2  # header row + exactly one arrival

    def test_discrete_horizon(self, tmp_path, single_edge_cfg):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--measure", single_edge_cfg,
                   "--horizon-n", "3", "--out", str(out)])
        assert rc == 0
        body = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert len(body) == 4

    @pytest.mark.parametrize("flag", [["--replicas", "5"],
                                      ["--threads", "2"],
                                      ["--format", "csv"]])
    def test_unread_flags_rejected(self, tmp_path, single_edge_cfg, flag):
        # simulate writes one trajectory; it takes no replica or thread count
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--measure", single_edge_cfg, "--horizon-t",
                  "1", "--out", str(tmp_path / "traj.csv")] + flag)
        assert exc.value.code == 2

    def test_missing_horizon_is_config_error(self, single_edge_cfg, capsys):
        rc = main(["simulate", "--measure", single_edge_cfg])
        assert rc == 2
        assert "horizon" in capsys.readouterr().err


class TestSeries:
    def test_power_law_verdict(self, tmp_path, plp_cfg):
        out = tmp_path / "series.txt"
        rc = main(["series", "--measure", plp_cfg, "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "verdict = converges-analytic" in text
        assert "partial_sum = " in text


class TestAnalytic:
    def test_report_fields(self, tmp_path, single_edge_cfg):
        out = tmp_path / "report.txt"
        rc = main(["analytic", "--measure", single_edge_cfg,
                   "--horizon-t", "1.0", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        for field in ("expected_vertices", "urn_variance",
                      "vertex_variance_exact"):
            assert field in text


class TestHeaders:
    def test_header_block(self, tmp_path, plp_cfg):
        out = tmp_path / "series.txt"
        main(["series", "--measure", plp_cfg, "--seed", "9",
              "--out", str(out)])
        hdr = "\n".join(header_of(out))
        for key in ("command:", "config_hash:", "seed: 9", "window:",
                    "version:"):
            assert key in hdr

    def test_command_line_is_the_parsed_argv(self, tmp_path, plp_cfg,
                                             monkeypatch):
        monkeypatch.setattr("sys.argv", ["host", "--unrelated", "flag"])
        out = tmp_path / "series.txt"
        main(["series", "--measure", plp_cfg, "--out", str(out)])
        assert header_of(out)[0] == (
            f"# command: series --measure {plp_cfg} --out {out}")


class TestConfigErrors:
    def test_missing_measure(self, capsys):
        rc = main(["series"])
        assert rc == 2
        assert "--measure" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"family": "unknown_family"}')
        rc = main(["series", "--measure", str(p)])
        assert rc == 2
        assert "bad.json" in capsys.readouterr().err


class TestOtherCommands:
    def test_clt(self, tmp_path, tmp_path_factory):
        cfg = tmp_path / "iso.json"
        cfg.write_text(json.dumps(
            {"family": "isolated_edges", "weights": [1.0] * 50}))
        out = tmp_path / "clt.txt"
        rc = main(["clt", "--measure", str(cfg), "--horizon-t", "0.7",
                   "--replicas", "500", "--out", str(out)])
        assert rc == 0
        assert "ks_statistic" in out.read_text()

    def test_urns(self, tmp_path, plp_cfg):
        out = tmp_path / "urns.txt"
        rc = main(["urns", "--measure", plp_cfg, "--out", str(out)])
        assert rc == 0
        assert "partial_product" in out.read_text()

    def test_urns_ignores_zero_mass_edges(self, tmp_path):
        cfg = tmp_path / "explicit.json"
        cfg.write_text(json.dumps({"family": "explicit", "edges": [
            [1, 2, 1.0], [2, 3, 1.0], [3, 9, 0.0]]}))
        out = tmp_path / "urns.txt"
        assert main(["urns", "--measure", str(cfg), "--out", str(out)]) == 0
        assert "partial_product" in out.read_text()

    @pytest.fixture
    def path5_cfg(self, tmp_path):
        p = tmp_path / "path5.json"
        p.write_text(json.dumps({"family": "explicit", "edges": [
            [1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0], [4, 5, 1.0]]}))
        return str(p)

    def test_urns_window_keeps_the_tail(self, tmp_path, path5_cfg):
        # M = (1, 2, 2, 2, 1): the rates past the window stay in the tail
        text = {}
        for w in ("2", "5"):
            out = tmp_path / f"urns{w}.txt"
            assert main(["urns", "--measure", path5_cfg, "--window", w,
                         "--out", str(out)]) == 0
            text[w] = out.read_text()
        for body in text.values():
            assert "factor[1] = 0.125 (closed-form)" in body
        assert "factor[2] = 0.2857142857142857" in text["2"]
        assert "finite scheme" not in text["2"]
        assert "finite scheme" in text["5"]

    @pytest.mark.parametrize("command",
                             ["urns", "complete", "analytic", "series"])
    def test_window_past_the_measure_is_config_error(self, command, tmp_path,
                                                     path5_cfg, capsys):
        # one rule for every subcommand: 1..n_max, and 0 is not "all"
        extra = ["--horizon-t", "1"] if command == "analytic" else []
        out = tmp_path / "report.txt"
        for window in ("6", "0", "-3"):
            assert main([command, "--measure", path5_cfg, "--window", window,
                         "--out", str(out)] + extra) == 2
            assert "--window" in capsys.readouterr().err
        assert not out.exists()

    def test_complete(self, tmp_path, plp_cfg):
        out = tmp_path / "complete.txt"
        rc = main(["complete", "--measure", plp_cfg, "--window", "8",
                   "--out", str(out)])
        assert rc == 0
        assert "verdict = zero-analytic" in out.read_text()

    def test_couple(self, tmp_path, single_edge_cfg):
        out = tmp_path / "trace.csv"
        rc = main(["couple", "--measure", single_edge_cfg,
                   "--horizon-t", "5", "--out", str(out)])
        assert rc == 0
        body = out.read_text().splitlines()
        assert any(ln.startswith("step,clock") for ln in body)


class TestVerify:
    def test_verify_passes(self, capsys):
        rc = main(["verify", "--seed", "1", "--threads", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[FAIL]" not in out
        assert out.count("[PASS]") >= 6

    @pytest.mark.parametrize("flag", [["--suite", "all"],
                                      ["--measure", "x"]])
    def test_unread_flags_rejected(self, flag):
        # verify runs fixed built-in checks: it reads no suite or measure
        with pytest.raises(SystemExit) as exc:
            main(["verify"] + flag)
        assert exc.value.code == 2


@pytest.mark.parametrize("command, flag", [
    ("series", ["--horizon-t", "1"]),
    ("urns", ["--horizon-n", "3"]),
    ("simulate", ["--window", "4"]),
    ("couple", ["--window", "4"]),
    ("clt", ["--horizon-n", "3"]),
])
def test_flags_only_where_read(command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command] + flag)
    assert exc.value.code == 2
