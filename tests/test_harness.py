import dataclasses
import json
import re

import pytest

from pathdecomp import (
    ConfigError,
    ExperimentConfig,
    Violation,
    dump_graph,
    gen_grid,
    run_experiment,
    weighted_diameter,
)
from pathdecomp.cli import build_parser, main
from pathdecomp.generators import WEIGHT_MODES
from pathdecomp.harness import FINDERS, SCHEMES, default_deltas, parse_gen_spec
from pathdecomp import verifier


def quick_cfg(**kw):
    base = dict(gen="grid:4,4", deltas=(3.0,), trials=30, seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


def masked(report_text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', report_text)


class TestConfig:
    def test_needs_exactly_one_source(self):
        with pytest.raises(ConfigError):
            ExperimentConfig()
        with pytest.raises(ConfigError):
            ExperimentConfig(gen="grid:2,2", graph_file="x")

    def test_rejects_bad_gamma(self):
        with pytest.raises(ConfigError):
            quick_cfg(gammas=(0.5,))

    @pytest.mark.parametrize("delta", [0.0, float("inf"), float("nan")])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ConfigError, match=r"^delta must be positive and finite"):
            quick_cfg(deltas=(3.0, delta))

    def test_rejects_bad_trials(self):
        with pytest.raises(ConfigError):
            quick_cfg(trials=0)

    def test_rejects_empty_deltas_and_gammas(self):
        with pytest.raises(ConfigError, match=r"^deltas must not be empty"):
            run_experiment(ExperimentConfig(gen="grid:4,4", deltas=()))
        with pytest.raises(ConfigError, match=r"^gammas must not be empty"):
            run_experiment(quick_cfg(gammas=()))

    def test_rejects_bad_finder_and_scheme(self):
        with pytest.raises(ConfigError):
            quick_cfg(finder="magic")
        with pytest.raises(ConfigError):
            quick_cfg(scheme="fastest")

    def test_frozen(self):
        cfg = quick_cfg()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.trials = 0

    def test_list_fields_are_stored_as_tuples(self):
        gammas = [0.0]
        cfg = quick_cfg(deltas=[2.0], gammas=gammas)
        gammas.append(0.5)
        assert cfg.deltas == (2.0,) and cfg.gammas == (0.0,)
        with pytest.raises(AttributeError):
            cfg.gammas.append(0.5)

    def test_parse_gen_spec(self):
        assert parse_gen_spec("grid:4,7") == ("grid", (4, 7))
        assert parse_gen_spec("ktree:100,3") == ("ktree", (100, 3))
        with pytest.raises(ConfigError):
            parse_gen_spec("grid:4")
        with pytest.raises(ConfigError):
            parse_gen_spec("torus:4,4")

    def test_default_deltas_from_diameter(self):
        g = gen_grid(8, 8)
        assert default_deltas(weighted_diameter(g)) == (14.0 / 8, 14.0 / 4, 14.0 / 2)

    def test_default_deltas_single_vertex(self):
        g = gen_grid(1, 1)
        assert default_deltas(weighted_diameter(g)) == (1.0,)


class TestRunExperiment:
    def test_single_vertex_graph_all_pass(self):
        report = run_experiment(ExperimentConfig(gen="grid:1,1", trials=200, seed=0))
        assert report["pass"] is True
        assert report["graph"]["n"] == 1

    def test_grid_paper_scheme_passes(self):
        report = run_experiment(quick_cfg(trials=200))
        assert report["pass"] is True
        (res,) = report["results"]
        assert res["checks"]["partition"] == "ok"
        assert res["checks"]["diameter"] == "ok"
        assert res["checks"]["recursion_depth"] == "ok"
        assert res["checks"]["threateners"] == "ok"
        assert res["checks"]["padding"] == "ok"

    def test_both_schemes_give_two_results_per_delta(self):
        report = run_experiment(quick_cfg(scheme="both", deltas=(2.0, 4.0), trials=50))
        assert [(r["delta"], r["scheme"]) for r in report["results"]] == [
            (2.0, "paper"), (2.0, "baseline"), (4.0, "paper"), (4.0, "baseline"),
        ]
        assert all("fitted_beta" in r for r in report["results"])

    def test_ktree_report_carries_certificate(self):
        report = run_experiment(ExperimentConfig(gen="ktree:20,2", deltas=(2.0,), trials=30))
        assert report["graph"]["k"] == 2
        assert sorted(report["graph"]["treewidth_certificate"]) == list(range(20))

    def test_deterministic_modulo_timestamp(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run_experiment(quick_cfg(trials=60, out=str(out1)))
        run_experiment(quick_cfg(trials=60, out=str(out2)))
        assert masked(out1.read_text()) == masked(out2.read_text())
        assert out1.read_text() != ""  # sanity: file written

    def test_fail_propagation_with_planted_violation(self, monkeypatch):
        monkeypatch.setattr(
            verifier, "check_partition",
            lambda g, part: Violation("disjointness", "planted"),
        )
        report = run_experiment(quick_cfg(trials=20))
        assert report["pass"] is False
        assert "planted" in report["results"][0]["checks"]["partition"]

    def test_centers_are_chosen_once_per_delta(self, monkeypatch):
        # _run_scheme and estimate_padding both call choose_centers; the
        # second call gets the sequence the graph keeps
        from pathdecomp import decomposer

        calls = []
        real = decomposer._build_centers

        def counted(g, delta, finder):
            calls.append(delta)
            return real(g, delta, finder)

        monkeypatch.setattr(decomposer, "_build_centers", counted)
        rep = run_experiment(quick_cfg(deltas=(2.0, 3.0), scheme="both"))
        assert rep["pass"] and calls == [2.0, 3.0]

    def test_graph_file_source(self, tmp_path):
        f = tmp_path / "g.txt"
        dump_graph(gen_grid(3, 3), f)
        report = run_experiment(
            ExperimentConfig(graph_file=str(f), deltas=(2.0,), trials=30)
        )
        assert report["graph"]["source"] == f"file:{f}"
        assert report["pass"] is True

    def test_missing_graph_file(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(graph_file="/nonexistent/g.txt", trials=5))

    def test_centroid_finder_on_tree(self):
        report = run_experiment(
            ExperimentConfig(gen="ktree:30,1", deltas=(3.0,), trials=50, finder="centroid")
        )
        assert report["pass"] is True


class TestCli:
    def test_choices_come_from_the_library(self):
        (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
        choices = {a.dest: a.choices for a in subparsers.choices["run"]._actions}
        assert list(choices["weights"]) == list(WEIGHT_MODES)
        assert list(choices["finder"]) == list(FINDERS)
        assert list(choices["scheme"]) == list(SCHEMES)

    def test_defaults_come_from_the_config(self):
        opts = vars(build_parser().parse_args(["run", "--gen", "grid:4,4"]))
        del opts["command"]
        assert opts == dataclasses.asdict(ExperimentConfig(gen="grid:4,4"))

    def test_help_shows_a_gamma_default_that_gamma_accepts(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        gamma_help = capsys.readouterr().out.split("--gamma G")[-1].split("--trials")[0]
        # the help wraps lines at whitespace; the default is what follows "(default"
        shown = "".join(gamma_help.split("(default", 1)[1].split()).removesuffix(")")
        out = tmp_path / "r.json"
        rc = main(["run", "--gen", "grid:3,3", "--delta", "2", "--trials", "20",
                   "--gamma", shown, "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["config"]["gammas"] == list(verifier.DEFAULT_GAMMAS)

    def test_run_writes_report_and_exits_zero(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["run", "--gen", "grid:4,4", "--delta", "3", "--trials", "30",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["run", "--gen", "grid:5,5", "--delta", "2,4", "--trials", "40",
                "--seed", "9", "--scheme", "both"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert masked(a.read_text()) == masked(b.read_text())

    def test_dump_partition_files(self, tmp_path):
        out = tmp_path / "r.json"
        prefix = tmp_path / "part"
        rc = main(["run", "--gen", "grid:3,3", "--delta", "2", "--trials", "20",
                   "--out", str(out), "--dump-partition", str(prefix)])
        assert rc == 0
        dumps = list(tmp_path.glob("part.*"))
        assert len(dumps) == 1
        lines = dumps[0].read_text().strip().split("\n")
        assert lines[0].startswith("delta=2.0 seed=0 p_eff=")
        assert "lambda=" in lines[0] and "beta=" in lines[0]
        assert sorted(int(ln.split()[1]) for ln in lines[1:]) == list(range(9))

    def test_gamma_fractions_accepted(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["run", "--gen", "grid:3,3", "--delta", "2", "--trials", "20",
                   "--gamma", "0,1/400,1/100", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["config"]["gammas"] == [0.0, 0.0025, 0.01]

    def test_gamma_out_of_range_is_usage_error(self, capsys):
        rc = main(["run", "--gen", "grid:3,3", "--gamma", "0.5", "--trials", "5"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("option, what", [(["--delta", ""], "delta"),
                                              (["--delta", "2", "--gamma", ""], "gamma")])
    def test_empty_value_is_usage_error(self, capsys, option, what):
        rc = main(["run", "--gen", "grid:3,3", *option, "--trials", "5"])
        assert rc == 2
        assert f"decomp: error: cannot parse {what} value ''" in capsys.readouterr().err

    def test_unreadable_graph_is_usage_error(self, capsys):
        rc = main(["run", "--graph", "/no/such/file", "--trials", "5"])
        assert rc == 2

    @pytest.mark.parametrize("delta", ["inf", "nan"])
    def test_non_finite_delta_is_usage_error(self, capsys, delta):
        rc = main(["run", "--gen", "grid:4,4", "--delta", delta, "--trials", "5"])
        assert rc == 2
        assert f"delta must be positive and finite, got {delta}" in capsys.readouterr().err

    def test_bad_gen_spec_is_usage_error(self):
        assert main(["run", "--gen", "grid:x,y", "--trials", "5"]) == 2

    def test_centroid_on_non_tree_is_usage_error(self, capsys):
        rc = main(["run", "--gen", "grid:4,4", "--finder", "centroid", "--trials", "5"])
        assert rc == 2
        assert "tree" in capsys.readouterr().err

    def test_stdout_when_no_out(self, capsys):
        rc = main(["run", "--gen", "grid:2,2", "--delta", "2", "--trials", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert json.loads(out)["pass"] is True
