import dataclasses
import math
import warnings

import pytest

from phasebound.cli import RunConfig, main
from phasebound.fbound import HierarchyViolationError
import phasebound.cli as cli_module


def read_rows(path):
    comments, header, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line
            else:
                rows.append(line.split(","))
    return comments, header, rows


class TestConfigParsing:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.model_n == 2 and cfg.theta0 == pytest.approx(math.pi / 4)
        assert cfg.sample_sizes() == list(range(1, 101))

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("bogus.key=3\n")
        assert main(["fig1", "--config", str(cfg_file)]) == 2

    def test_bad_value_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("model.N=two\n")
        assert main(["fig1", "--config", str(cfg_file)]) == 2

    def test_file_with_comments_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("# sweep setup\nm.list=1,2,3\nmodel.N=2  # qubits\n")
        out = tmp_path / "o.csv"
        code = main(["fig1", "--config", str(cfg_file), "--m.list", "1,2",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        assert [r[0] for r in rows] == ["1", "2"]

    def test_flag_without_value(self):
        assert main(["fig1", "--m.list"]) == 2

    def test_theta0_outside_domain(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("theta0=3.0\n")
        assert main(["fig1", "--config", str(cfg_file)]) == 2

    def test_family45_prior_without_alpha_is_config_error(self):
        # the CLI always resolves alpha first; a direct call without one names the key
        cfg = RunConfig()
        _, _, grid = cfg.build()
        with pytest.raises(cli_module.ConfigError, match="prior.alpha"):
            cfg.make_prior(grid, None)
        cfg.prior_kind = "flat"
        assert cfg.make_prior(grid, None).kind == "flat"

    def test_even_grid_rejected(self, capsys):
        assert main(["fig1", "--grid.nodes", "100", "--m.list", "1"]) == 2
        assert "odd node count >= 3, got 100" in capsys.readouterr().err

    @pytest.mark.parametrize("command,m_max", [("bounds", "-3"), ("fig1", "-3"), ("fig1", "0")])
    def test_m_max_below_one_rejected(self, tmp_path, capsys, command, m_max):
        out = tmp_path / "o.csv"
        assert main([command, "--m.max", m_max, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fig1", "fig2"])
    def test_non_identifiable_domain_rejected(self, tmp_path, capsys, command):
        # N = 3 on [0, pi/2]: N (b - a) = 3 pi / 2 > pi, so cos(N theta) aliases
        out = tmp_path / "o.csv"
        assert main([command, "--model.N", "3", "--m.list", "1,2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "model.N=3: N*[a, b] = " in err
        assert "[0.0, 1.5707963267948966]" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["fig1"], ["fig2"], ["fig3", "--prior.kind", "flat"],
                                         ["bounds", "--prior.kind", "flat"]])
    def test_straddling_domain_rejected(self, tmp_path, capsys, command):
        # N (b - a) = 3 < pi, but [-0.3, 1.2] holds theta and its mirror -theta:
        # fig2 used to print m * ChRB = 8.4e19, bounds a Barankin bound of 1.4e27
        out = tmp_path / "o.csv"
        assert main([*command, "--domain.a", "-0.3", "--domain.b", "1.2", "--theta0", "0.1",
                     "--m.list", "20", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: domain [-0.3, 1.2] is not identifiable for model.N=2" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["theta0", "domain.a", "domain.b", "prior.alpha"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, key, value):
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fig3", "--m.list", "1", f"--{key}", value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: invalid value for {key}: {value!r}" in err
        assert "Warning" not in err and caught == []
        assert not out.exists()

    @pytest.mark.parametrize("n,b", [(2, math.pi / 2), (3, math.pi / 3)])
    def test_domain_of_width_pi_over_n_accepted(self, tmp_path, n, b):
        out = tmp_path / "o.csv"
        assert main(["fig2", "--model.N", str(n), "--domain.a", "0", "--domain.b", repr(b),
                     "--theta0", repr(b / 2), "--m.list", "1", "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("command", ["fig3", "bounds"])
    def test_flat_prior_echoes_no_alpha(self, tmp_path, command):
        # the flat prior ignores alpha, so a given one is not echoed as if it were used
        given, unset = tmp_path / "given.csv", tmp_path / "unset.csv"
        args = [command, "--prior.kind", "flat", "--m.list", "1", "--grid.nodes", "401"]
        assert main([*args, "--prior.alpha", "5", "--out", str(given)]) == 0
        assert main([*args, "--out", str(unset)]) == 0
        comments, header, rows = read_rows(given)
        assert "# prior.alpha=" in comments
        assert (header, rows) == read_rows(unset)[1:]


class TestFig1:
    def test_header_and_bias(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["fig1", "--m.list", "1,5,10", "--out", str(out)]) == 0
        comments, header, rows = read_rows(out)
        assert header == "m,bias,freq_std,crlb_std,bias_derivative,mFvar"
        assert any(line.startswith("# theta0=") for line in comments)
        assert any("m.list=1,5,10" in line for line in comments)
        by_m = {r[0]: r for r in rows}
        assert abs(float(by_m["10"][1])) < 1e-12
        assert float(by_m["10"][5]) > 1.0  # mFVar above 1 at small m

    def test_large_m_scaled_variance(self, tmp_path):
        out = tmp_path / "fig1b.csv"
        assert main(["fig1", "--m.list", "1000", "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        assert float(rows[0][5]) == pytest.approx(1.0, rel=0.05)


class TestFig2:
    def test_values_and_ordering(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--m.list", "1,2,3,4", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert header == "m,m_crlb,m_chrb,m_echrb,argmax_lambda"
        first = rows[0]
        assert float(first[1]) == pytest.approx(0.25, abs=1e-12)
        assert float(first[2]) == pytest.approx(0.61685, abs=1e-4)
        for r in rows:
            assert float(r[3]) >= float(r[2]) - 1e-9 >= 0.0
            assert float(r[2]) >= float(r[1]) - 1e-9

    def test_theta0_on_the_domain_edge(self, tmp_path):
        # at theta0 = a the ChRB supremum is the CRLB, its lambda -> 0 limit
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--domain.a", "0.1", "--domain.b", "0.2", "--theta0", "0.1",
                     "--m.list", "1,5", "--out", str(out)]) == 0
        rows = read_rows(out)[2]
        assert [r[2] for r in rows] == [r[1] for r in rows] == ["0.25", "0.25"]

    def test_numerical_failure_exit_code(self):
        # theta0 = 0 is a deterministic channel: no admissible offsets
        assert main(["fig2", "--theta0", "0", "--m.list", "1"]) == 3


class TestFig3:
    def test_single_alpha(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--prior.alpha", "1", "--m.list", "1,2",
                     "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert header == "m,m_freq_var,m_crlb_biased,m_bayes_avg_post_var,m_agb"
        for r in rows:
            assert float(r[3]) >= float(r[4]) - 1e-9      # posterior var >= averaged Ghosh
            assert float(r[1]) >= float(r[2]) - 1e-9      # freq var >= biased CRLB

    def test_alpha_battery_writes_four_files(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--m.list", "1", "--out", str(out)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["fig3_alpha-10.csv", "fig3_alpha-100.csv",
                         "fig3_alpha1.csv", "fig3_alpha10.csv"]

    def test_alpha_battery_to_stdout_rejected(self):
        assert main(["fig3", "--m.list", "1"]) == 2

    def test_unresolved_prior_grid_is_config_error(self, tmp_path, capsys):
        # the prior's standard deviation is 0.82 node spacings: m Var came out 16% off
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--prior.alpha", "300000", "--m.list", "1,10",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot build prior: the 2001-node grid does not resolve the alpha=300000" in err
        assert not out.exists()

    def test_ghosh_failure_names_its_cell(self, capsys):
        # on the nodes 0, pi/4 and pi/2 the flat prior's posterior of k = 1 of 2 is zero
        # at both ends and has zero score in the middle: zero information, and the Ghosh
        # numerator (f - 1)^2 is 1
        assert main(["fig3", "--prior.kind", "flat", "--m.list", "2",
                     "--grid.nodes", "3"]) == 3
        assert capsys.readouterr().err == (
            "phasebound: numerical failure: zero posterior information with nonzero "
            "numerator at tally k=1, m=2, flat prior, 3-node grid\n")

    def test_flat_prior_variant(self, tmp_path):
        out = tmp_path / "fig3_flat.csv"
        assert main(["fig3", "--prior.kind", "flat", "--m.list", "1,2",
                     "--out", str(out)]) == 0


class TestFig4:
    def test_columns_and_chain(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--prior.alpha", "10", "--m.list", "1,3",
                     "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert header == "m,m_bayes_var,m_agbr,m_vtb,m_zzb,inv_F"
        for r in rows:
            assert float(r[1]) >= float(r[2]) - 1e-9 >= 0.0
            assert float(r[2]) >= float(r[3]) - 1e-9
            assert float(r[5]) == pytest.approx(0.25, abs=1e-15)

    def test_flat_prior_rejected(self):
        assert main(["fig4", "--prior.kind", "flat", "--m.list", "1"]) == 2

    @pytest.mark.parametrize("m", ["1", "10"])
    @pytest.mark.parametrize("alpha", ["1000", "2000", "5000"])
    def test_unresolved_prior_is_numerical_failure(self, tmp_path, capsys, alpha, m):
        # the 201-node theta0 grid misses 3e-5 (alpha 1000) to 9e-2 (alpha 5000) of the mass
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--prior.alpha", alpha, "--m.list", m, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "201-node theta0 grid" in err and f"alpha={alpha}" in err
        assert not out.exists()


class TestBounds:
    def test_report(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--prior.alpha", "10", "--m.list", "5",
                     "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert header == "quantity,value"
        names = {r[0] for r in rows}
        assert {"crlb", "chrb", "echrb", "barankin", "van_trees",
                "ziv_zakai", "averaged_ghosh"} <= names

    def test_theta0_on_the_domain_edge(self, tmp_path):
        # at theta0 = a the ChRB supremum is the CRLB, its lambda -> 0 limit
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--prior.kind", "flat", "--domain.a", "0.1", "--domain.b", "0.2",
                     "--theta0", "0.1", "--m.list", "3", "--out", str(out)]) == 0
        values = dict(read_rows(out)[2])
        assert values["chrb"] == values["crlb"]
        assert float(values["crlb"]) == pytest.approx(1 / 12, rel=1e-15)

    def test_unset_alpha_echoes_the_alpha_used(self, tmp_path):
        # bounds computes one cell, at alpha = 10 when prior.alpha is unset
        unset, pinned = tmp_path / "unset.csv", tmp_path / "pinned.csv"
        args = ["bounds", "--m.list", "2", "--grid.nodes", "401"]
        assert main([*args, "--out", str(unset)]) == 0
        assert main([*args, "--prior.alpha", "10", "--out", str(pinned)]) == 0
        comments, header, rows = read_rows(unset)
        assert "# prior.alpha=10" in comments
        assert (header, rows) == read_rows(pinned)[1:]

    def test_echoes_the_m_it_computed(self, tmp_path):
        # bounds computes only the last sample size of the sweep, so it echoes only that one
        swept, single = tmp_path / "swept.csv", tmp_path / "single.csv"
        args = ["bounds", "--prior.alpha", "10", "--grid.nodes", "401"]
        assert main([*args, "--m.max", "3", "--out", str(swept)]) == 0
        assert main([*args, "--m.list", "3", "--out", str(single)]) == 0

        def echo(path):
            return [c for c in read_rows(path)[0] if not c.startswith("# output.path=")]

        assert "# m.list=3" in echo(swept)
        assert echo(swept) == echo(single)
        assert read_rows(swept)[1:] == read_rows(single)[1:]


class TestDeterminism:
    def test_byte_identical_across_runs(self, tmp_path, monkeypatch):
        # identical config (including the out path) from different run dirs; fig3 and
        # fig4 rows out of order, so that the reused block buffers hold a larger and
        # then a smaller row before each one
        commands = [["fig2", "--m.list", "1,2,3,4,5,6,7,8"],
                    ["fig3", "--prior.alpha", "10", "--m.list", "100,3,40,7"],
                    ["fig4", "--prior.alpha", "10", "--m.list", "100,3,40,7"]]
        for command in commands:
            args = [*command, "--out", "out.csv"]
            blobs = []
            for i in range(3):
                rundir = tmp_path / f"{command[0]}_run{i}"
                rundir.mkdir()
                monkeypatch.chdir(rundir)
                assert main(args) == 0
                blobs.append((rundir / "out.csv").read_bytes())
            assert blobs[0] == blobs[1] == blobs[2], command[0]


class TestExitCodes:
    def test_hierarchy_violation_maps_to_4(self, monkeypatch):
        def boom(*args):
            raise HierarchyViolationError("synthetic violation")

        # fig2's row producer replaced by one whose rows violate the hierarchy
        spec = dataclasses.replace(cli_module._COMMANDS["fig2"], rows=boom)
        monkeypatch.setitem(cli_module._COMMANDS, "fig2", spec)
        assert main(["fig2", "--m.list", "1"]) == 4

    def test_fig2_chain_violation_names_cell(self, monkeypatch, capsys):
        # fig2 searches its block of m through chrb: inflate every ChRB it returns
        real_chrb = cli_module.chrb

        def inflated_chrb(*args, **kwargs):
            return [dataclasses.replace(report, value=10.0 * report.value)
                    for report in real_chrb(*args, **kwargs)]

        monkeypatch.setattr(cli_module, "chrb", inflated_chrb)
        assert main(["fig2", "--m.list", "3"]) == 4
        err = capsys.readouterr().err
        assert "echrb=" in err and "chrb=" in err and "m=3" in err

    @pytest.mark.parametrize("command", ["fig3", "bounds"])
    def test_fixed_theta0_chain_violation_names_cell(self, monkeypatch, capsys, command):
        # averaged posterior variance >= averaged Ghosh bound at fixed theta0
        real_agb = cli_module.averaged_ghosh
        monkeypatch.setattr(cli_module, "averaged_ghosh",
                            lambda *args: 10.0 * real_agb(*args))
        assert main([command, "--prior.alpha", "10", "--m.list", "3",
                     "--grid.nodes", "401"]) == 4
        err = capsys.readouterr().err
        assert "bayes_avg_posterior_variance_fixed=" in err and "averaged_ghosh=" in err
        assert f"m=3, theta0={math.pi / 4!r}, alpha=10" in err

    @pytest.mark.parametrize("estimator", ["MaximumLikelihoodEstimator", "PosteriorMeanEstimator"])
    def test_bounds_estimator_chain_violation_names_cell(self, monkeypatch, capsys, estimator):
        # bounds asserts variance >= aCRLB >= fVTB for both estimators under a prior
        # that vanishes at the boundaries: inflate one estimator's aCRLB tenfold
        import phasebound.rbound as rbound_module
        real_acrlb = rbound_module.acrlb

        def inflated_acrlb(est, *args):
            return (10.0 if type(est).__name__ == estimator else 1.0) * real_acrlb(est, *args)

        monkeypatch.setattr(rbound_module, "acrlb", inflated_acrlb)
        assert main(["bounds", "--prior.alpha", "10", "--m.list", "3",
                     "--grid.nodes", "401"]) == 4
        err = capsys.readouterr().err
        assert "avg_variance=" in err and "acrlb=" in err
        assert f"m=3, alpha=10, {estimator}" in err

    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_out_maps_to_2(self, tmp_path, capsys, target):
        # a path under a missing directory, or a directory itself, cannot be written
        out = tmp_path / "missing" / "x.csv" if target == "missing_dir" else tmp_path
        assert main(["fig1", "--m.max", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(out) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,args,blocker", [
        ("fig1", ["--m.max", "30"], None),
        ("fig3", ["--m.max", "3", "--grid.nodes", "401"], "b_alpha-10.csv"),
        ("fig2", ["--m.max", "30"], None),
        ("fig4", ["--m.max", "3", "--grid.nodes", "401"], "b_alpha10.csv"),
        ("bounds", ["--m.list", "5", "--grid.nodes", "401"], "b.csv"),
    ])
    def test_out_checked_before_first_row(self, tmp_path, monkeypatch, capsys,
                                          command, args, blocker):
        # fig1 and fig2 under a missing directory; a later file of the fig3 and fig4
        # alpha batteries, and the bounds output itself, blocked by a directory of
        # that name: nothing is computed or written
        counted = {"fig2": "chrb", "fig4": "bayes_chain_report"}.get(command, "frequentist_risk")
        calls = []
        real = getattr(cli_module, counted)

        def counting(*a, **kw):
            calls.append(a)
            return real(*a, **kw)

        monkeypatch.setattr(cli_module, counted, counting)
        if blocker is None:
            out = tmp_path / "missing" / "x.csv"
        else:
            out = tmp_path / "b.csv"
            (tmp_path / blocker).mkdir()
        assert main([command, *args, "--out", str(out)]) == 2
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if blocker is None else [blocker])
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["fig1", "fig3"])
    def test_empty_out_rejected_before_first_row(self, tmp_path, monkeypatch, capsys,
                                                 command, source):
        # an empty --out or output.path= is no path: fig3's default alpha battery would
        # write _alpha-100.csv and its siblings into the working directory
        calls = []
        spec = cli_module._COMMANDS[command]
        monkeypatch.setitem(cli_module._COMMANDS, command, dataclasses.replace(
            spec, rows=lambda *args: calls.append(args) or spec.rows(*args)))
        monkeypatch.chdir(tmp_path)
        if source == "flag":
            args = ["--out", ""]
        else:
            (tmp_path / "c.cfg").write_text("output.path=\n")
            args = ["--config", "c.cfg"]
        assert main([command, "--m.list", "2", *args]) == 2
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if source == "flag"
                                                              else ["c.cfg"])
        assert "config error" in capsys.readouterr().err

    def test_success_to_stdout(self, capsys):
        assert main(["fig1", "--m.list", "1"]) == 0
        captured = capsys.readouterr()
        assert "m,bias,freq_std" in captured.out
