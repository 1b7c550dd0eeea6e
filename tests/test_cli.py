"""Command-line interface: subcommands, headers, exit codes."""

import json
import warnings

import pytest

from edgeproc.cli import main

from conftest import subnormal_block_edges


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

    def test_both_horizons_is_config_error(self, tmp_path, single_edge_cfg,
                                           capsys):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--measure", single_edge_cfg, "--horizon-t",
                   "3", "--horizon-n", "2", "--out", str(out)])
        assert rc == 2
        assert "one of --horizon-t and --horizon-n" in capsys.readouterr().err
        assert not out.exists()

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
        # the seed is recorded where one is read, and only there
        out = tmp_path / "report.txt"

        def keys():
            return [ln[2:].split(":")[0] for ln in header_of(out)]

        assert main(["clt", "--measure", plp_cfg, "--horizon-t", "1",
                     "--replicas", "10", "--seed", "9", "--out", str(out)]) == 0
        assert keys() == ["command", "config_hash", "seed", "window", "version"]
        assert "# seed: 9" in header_of(out)
        assert main(["series", "--measure", plp_cfg, "--out", str(out)]) == 0
        assert keys() == ["command", "config_hash", "window", "version"]

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

    @pytest.mark.parametrize("command", [
        ["series"], ["analytic", "--horizon-t", "1"]])
    def test_infinite_mass_is_config_error(self, command, tmp_path, capsys):
        # Python's json reads Infinity
        p = tmp_path / "inf.json"
        p.write_text('{"family": "explicit", '
                     '"edges": [[1, 2, Infinity], [2, 3, 1.0]]}')
        out = tmp_path / "report.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(command + ["--measure", str(p), "--out", str(out)])
        assert rc == 2 and caught == []
        assert "finite and non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_key_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "no_gamma.json"
        p.write_text(json.dumps({"family": "power_law_product", "n_max": 6}))
        out = tmp_path / "report.txt"
        assert main(["series", "--measure", str(p), "--out", str(out)]) == 2
        assert "'gamma'" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_total_mass_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"family": "explicit",
                                 "edges": [[1, 2, 1e308], [2, 3, 1e308]]}))
        out = tmp_path / "report.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["series", "--measure", str(p), "--out", str(out)])
        assert rc == 2 and caught == []
        assert "overflows float64" in capsys.readouterr().err
        assert not out.exists()

    def test_unread_config_key_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "typo.json"
        p.write_text(json.dumps(
            {"family": "factorial_max", "n_max": 6, "normalise": True}))
        out = tmp_path / "report.txt"
        assert main(["series", "--measure", str(p), "--out", str(out)]) == 2
        assert "'normalise'" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--horizon-t", "1", "--seed", "-1"],
    ["clt", "--horizon-t", "1", "--seed", "-1"],
    ["couple", "--horizon-t", "1", "--seed", "-1"],
    ["verify", "--seed", "-1"],
    ["clt", "--horizon-t", "1", "--replicas", "1"],
    ["simulate", "--horizon-n", "0"],
    ["simulate", "--horizon-t", "0"],
    ["analytic", "--horizon-t", "-1"],
    ["clt", "--horizon-t", "0"],
    ["simulate", "--horizon-t", "nan"],
    ["analytic", "--horizon-t", "nan"],
    ["clt", "--horizon-t", "nan"],
    ["couple", "--horizon-t", "-1"],
    ["couple", "--horizon-t", "0"],
    ["couple", "--horizon-t", "nan"],
    ["couple", "--horizon-t", "inf"],
], ids=" ".join)
def test_bad_numeric_flag_is_config_error(argv, tmp_path, single_edge_cfg,
                                          capsys):
    # the library's ValueError exits 2, as a bad --window does; 1 is kept
    # for a tolerance failure
    out = tmp_path / "out.txt"
    if argv[0] != "verify":
        argv = argv + ["--measure", single_edge_cfg, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


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

    @pytest.mark.parametrize("command", ["urns", "complete", "series"])
    def test_window_past_the_measure_is_config_error(self, command, tmp_path,
                                                     path5_cfg, capsys):
        # one rule for every subcommand: 1..n_max, and 0 is not "all"
        out = tmp_path / "report.txt"
        for window in ("6", "0", "-3"):
            assert main([command, "--measure", path5_cfg, "--window", window,
                         "--out", str(out)]) == 2
            assert "--window" in capsys.readouterr().err
        assert not out.exists()

    def test_complete(self, tmp_path, plp_cfg):
        out = tmp_path / "complete.txt"
        rc = main(["complete", "--measure", plp_cfg, "--window", "8",
                   "--out", str(out)])
        assert rc == 0
        assert "verdict = zero-analytic" in out.read_text()

    def test_complete_with_a_subnormal_pair(self, tmp_path):
        # block 15 goes to tanh-sinh with a ratio of 5e-324 among its rates
        cfg = tmp_path / "subnormal.json"
        cfg.write_text(json.dumps({"family": "explicit",
                                   "edges": subnormal_block_edges()}))
        out = tmp_path / "complete.txt"
        rc = main(["complete", "--measure", str(cfg), "--window", "16",
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert all(f"factor[{b}] = " in text for b in range(1, 16))
        assert "factor[14] = 0 (quadrature)" in text

    def test_couple(self, tmp_path, single_edge_cfg):
        out = tmp_path / "trace.csv"
        rc = main(["couple", "--measure", single_edge_cfg,
                   "--horizon-t", "5", "--out", str(out)])
        assert rc == 0
        body = out.read_text().splitlines()
        assert any(ln.startswith("step,clock") for ln in body)


class TestVerify:
    def test_verify_passes(self, capsys):
        rc = main(["verify", "--seed", "1"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "[PASS] triangle I_e matches 1/3  (z=-0.91)\n"
            "[PASS] path joint I matches closed form  (z=0.59)\n"
            "[PASS] exponential product bound  (peak=0.1481)\n"
            "[PASS] respect factor expansion vs quadrature  (delta=1.73e-18)\n"
            "[PASS] geometric in-order product exact\n"
            "[PASS] coupling rate audit 3p == M_i  (max err=1.11e-16)\n"
            "verify: 0 failure(s)\n")

    @pytest.mark.parametrize("flag", [["--suite", "all"],
                                      ["--measure", "x"],
                                      ["--threads", "2"]])
    def test_unread_flags_rejected(self, flag):
        # verify runs fixed built-in checks: it reads no suite or measure,
        # and its estimates fit one replica block, so no thread count
        with pytest.raises(SystemExit) as exc:
            main(["verify"] + flag)
        assert exc.value.code == 2


@pytest.mark.parametrize("command, flag", [
    ("series", ["--horizon-t", "1"]),
    ("urns", ["--horizon-n", "3"]),
    ("simulate", ["--window", "4"]),
    ("couple", ["--window", "4"]),
    ("clt", ["--horizon-n", "3"]),
    ("analytic", ["--window", "4"]),
    ("analytic", ["--seed", "1"]),
    ("series", ["--seed", "1"]),
    ("urns", ["--seed", "1"]),
    ("complete", ["--seed", "1"]),
    ("clt", ["--threads", "2"]),
])
def test_flags_only_where_read(command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command] + flag)
    assert exc.value.code == 2


# The whole output of each subcommand on one config, bar the "# command:"
# line (it names the paths); written by the code before reports shared a
# renderer.  CSV rows end with CRLF, as the csv module writes them.
PINNED_ARGS = {
    "simulate": ["--horizon-t", "3"],
    "analytic": ["--horizon-t", "1.5"],
    "series": [],
    "clt": ["--horizon-t", "1", "--replicas", "200"],
    "urns": ["--window", "4"],
    "complete": [],
    "couple": ["--horizon-t", "2"],
}
PINNED_BODIES = {
    "simulate": [
        'index,time,i,j,new_vertices,new_component\r\n',
        '1,0.5887785307209231,1,4,2,1\r\n',
        '2,0.9869649345839899,1,2,1,0\r\n',
        '3,2.93255523295413,1,5,1,0\r\n',
    ],
    "analytic": [
        't = 1.5\n',
        'expected_vertices = 1.9782634688794176\n',
        'urn_variance = 0.92938659406280077\n',
        'vertex_variance_lower = 0.92938659406280077\n',
        'vertex_variance_exact = 1.5244103418186901\n',
        'vertex_variance_upper = 2.0224106514772586\n',
    ],
    "series": [
        'partial_sum = 1.0930240574144581\n',
        'terms_used = 15\n',
        'window = 6\n',
        'verdict = converges-analytic\n',
        'verdict_basis = gamma threshold: 2.5 > 2\n',
        'truncation_residue = 0.16105939554578885\n',
    ],
    "clt": [
        't = 1\n',
        'replicas = 200\n',
        'standardized_mean = 0.1257821785288353\n',
        'standardized_variance = 1.0408560427051665\n',
        'standardized_skewness = -0.040121248603550728\n',
        'ks_statistic = 0.33853829099984728\n',
        'normalization_mean = 1.4942711397628969\n',
        'normalization_variance = 1.5328511546976811\n',
        'normalization_kind = exact\n',
        'low_variance_warning = False\n',
    ],
    "urns": [
        'partial_product = 0.023876218723354995\n',
        'blocks_used = 4\n',
        'verdict = inconclusive\n',
        'verdict_basis = no analytic tail argument on this window\n',
        'factor[1] = 0.4246564824160235 (closed-form)\n',
        'factor[2] = 0.4868482072072664 (closed-form)\n',
        'factor[3] = 0.37876492657162686 (closed-form)\n',
        'factor[4] = 0.30490493864994811 (closed-form)\n',
    ],
    "complete": [
        'partial_product = 9.7937943057314929e-17\n',
        'blocks_used = 5\n',
        'verdict = zero-analytic\n',
        'verdict_basis = every factor is at most 1/(1 + 2^-gamma) = 0.849779'
        ' < 1, since the tail always contains the edge {1, n+1}\n',
        'factor[1] = 0.46357911603412344 (subset-expansion)\n',
        'factor[2] = 0.043736605136155494 (subset-expansion)\n',
        'factor[3] = 0.0013908809103422681 (subset-expansion)\n',
        'factor[4] = 2.0559127850497961e-05 (subset-expansion)\n',
        'factor[5] = 1.6892246563915539e-07 (subset-expansion)\n',
    ],
    "couple": [
        'step,clock,chi_kind,chi_value,branch_color,V_size,U_size,V_eq_U\r\n',
        '1,0.1770756189973955,null,,,0,0,1\r\n',
        '2,0.1957494756992538,urn,1,blue,0,1,0\r\n',
        '3,0.33779138263940645,null,,,0,1,0\r\n',
        '4,0.38368432682992093,edge,1-5,orange,2,2,1\r\n',
        '5,0.541414252281283,edge,1-2,yellow,3,3,1\r\n',
        '6,0.6674411548681592,null,,,3,3,1\r\n',
        '7,1.0836780216863318,edge,1-2,pass,3,3,1\r\n',
        '8,1.106017877207079,null,,,3,3,1\r\n',
        '9,1.1957585512974451,null,,,3,3,1\r\n',
        '10,1.294974264810883,edge,1-2,pass,3,3,1\r\n',
        '11,1.3409333815600037,null,,,3,3,1\r\n',
        '12,1.890839735079444,edge,1-2,pass,3,3,1\r\n',
        '13,1.9046610601315404,null,,,3,3,1\r\n',
    ],
}


# the subcommands that read --seed; the others take no seed and record none
SEEDED = {"simulate", "clt", "couple"}


@pytest.mark.parametrize("command", sorted(PINNED_ARGS))
def test_report_bytes_pinned(command, tmp_path):
    cfg = tmp_path / "plp6.json"
    cfg.write_text(json.dumps({"family": "power_law_product", "gamma": 2.5,
                               "n_max": 6, "normalize": True}))
    out = tmp_path / "out"
    seed = ["--seed", "5"] if command in SEEDED else []
    assert main([command, "--measure", str(cfg), "--out", str(out)]
                + seed + PINNED_ARGS[command]) == 0
    window = 4 if command == "urns" else 6
    header = ("# config_hash: cde36868af64937c\n"
              + ("# seed: 5\n" if seed else "")
              + f"# window: {window}\n# version: edgeproc 0.1.0\n")
    first, rest = out.read_bytes().split(b"\n", 1)
    assert first.startswith(b"# command: ")
    assert rest == (header + "".join(PINNED_BODIES[command])).encode()
