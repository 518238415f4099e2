import csv
import io
import json
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

import bettiq
from bettiq import (SingularSystemError, cli, dump_instance, extraction, hoeffding_sample_count,
                    homology)
from helpers import complete_graph, random_graph

README = Path(__file__).resolve().parent.parent / "README.md"


def run(args):
    return cli.main(args)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.json"
    assert run(["generate", "--model", "cycle", "--n", "4", "--out", str(path)]) == 0
    return path


@pytest.fixture
def octa_file(tmp_path):
    path = tmp_path / "octa.json"
    assert run(["generate", "--model", "octahedron", "--out", str(path)]) == 0
    return path


class TestParser:
    ARGVS = [
        ["exact", "--instance", "x.json", "--k", "1", "--convention", "dual"],
        ["estimate", "--instance", "x.json", "--k", "1", "--mode", "sampled", "--eps", "0.2",
         "--seed", "3", "--normalized"],
        ["exact", "--instance", "x.json", "--k", "0"],
        ["resources", "--n", "6", "--k", "1", "--kappa", "4", "--beta", "1"],
        ["estimate", "--instance", "x.json", "--k", "2"],
        ["generate", "--model", "cycle", "--n", "4"],
    ]

    def test_built_once_and_parses_like_a_fresh_parser(self):
        assert cli._parser() is cli._parser()
        for argv in self.ARGVS * 2:
            assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))

    def test_consecutive_mains_with_different_subcommands(self, c4_file, tmp_path):
        dual, est, plain = tmp_path / "dual.json", tmp_path / "est.json", tmp_path / "plain.json"
        k1 = ["--instance", str(c4_file), "--k", "1"]
        assert run(["exact", *k1, "--convention", "dual", "--out", str(dual)]) == 0
        assert run(["estimate", *k1, "--mode", "sampled", "--eps", "0.5", "--seed", "1",
                    "--out", str(est)]) == 0
        assert run(["exact", *k1, "--out", str(plain)]) == 0
        assert json.loads(dual.read_text())["config"]["convention"] == "dual"
        assert json.loads(plain.read_text())["config"]["convention"] == "restricted"
        assert json.loads(est.read_text())["config"]["mode"] == "sampled"
        assert json.loads(plain.read_text())["results"] == json.loads(
            (self._fresh(["exact", *k1], tmp_path / "fresh.json")).read_text())["results"]
        with pytest.raises(SystemExit):  # a missing required option still stops the parse
            run(["exact", "--instance", str(c4_file)])

    @staticmethod
    def _fresh(argv, out):
        args = cli.build_parser().parse_args([*argv, "--out", str(out)])
        assert args.func(args) == 0
        return out


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "--model", "erdos-renyi", "--n", "8", "--p", "0.5", "--seed", "7"]
        assert run(args + ["--out", str(p1)]) == 0
        assert run(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_octahedron_has_12_edges(self, octa_file):
        data = json.loads(octa_file.read_text())
        assert len(data["edges"]) == 12

    def test_annulus_cloud(self, tmp_path):
        path = tmp_path / "cloud.json"
        assert run(["generate", "--model", "annulus-cloud", "--n", "12",
                    "--length-scale", "0.7", "--seed", "2", "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        assert len(data["points"]) == 12 and data["length_scale"] == 0.7

    def test_bad_model_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["generate", "--model", "torus", "--out", str(tmp_path / "x.json")])
        assert err.value.code == 2


class TestExact:
    def test_c4_report(self, c4_file, tmp_path):
        out = tmp_path / "exact.json"
        assert run(["exact", "--instance", str(c4_file), "--k", "1", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())["results"]
        assert rep["beta"] == 1
        assert rep["s_count"] == 4
        assert rep["slot_count"] == 6
        assert rep["kappa_laplacian"] == pytest.approx(2.0)
        # beta_1 = 1 plus the two slots in no block; the threshold counts the same
        assert rep["kernel_dim"] == 3 and rep["threshold_agrees"] is True

    def test_timing_covers_operator_build(self, c4_file, tmp_path, monkeypatch):
        build = extraction.hodge_laplacian

        def slow_build(*args, **kwargs):
            time.sleep(0.3)
            return build(*args, **kwargs)

        monkeypatch.setattr(extraction, "hodge_laplacian", slow_build)
        out = tmp_path / "exact.json"
        assert run(["exact", "--instance", str(c4_file), "--k", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["timing_seconds"] >= 0.3

    def test_builds_level_k_and_ranks_once(self, tmp_path, monkeypatch):
        # one complex, to level k, and one coboundary pass; the report is the rank's
        # beta_k, the spectrum and the threshold check, nothing from level k+1
        graph = random_graph(20, 0.85, 1)
        beta = bettiq.betti_exact(bettiq.build_clique_complex(graph, 2), 2)
        levels, passes = [], []
        build, ranks = extraction.build_clique_complex, homology._boundary_ranks

        def recording_build(source, max_dim):
            levels.append(max_dim)
            return build(source, max_dim)

        def counted_ranks(complex_, top):
            passes.append(top)
            return ranks(complex_, top)

        monkeypatch.setattr(extraction, "build_clique_complex", recording_build)
        monkeypatch.setattr(homology, "_boundary_ranks", counted_ranks)
        path, out = tmp_path / "er.json", tmp_path / "exact.json"
        dump_instance(graph, path)
        assert run(["exact", "--instance", str(path), "--k", "2", "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert levels == [2] and passes == [3]
        assert set(res) == {"beta", "s_count", "slot_count", "kappa_laplacian", "kernel_dim",
                            "threshold_agrees"}
        assert res["beta"] == beta and res["threshold_agrees"] is True

    def test_empty_level_exits_2(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 4, "edges": []}))
        assert run(["exact", "--instance", str(path), "--k", "1"]) == 2

    def test_missing_file_exits_2(self):
        assert run(["exact", "--instance", "nope.json", "--k", "1"]) == 2

    def test_non_integral_vertex_id_exits_2(self, tmp_path, capsys):
        path = tmp_path / "frac.json"
        path.write_text(json.dumps({"n": 4, "edges": [[0, 1.5], [2, 3]]}))
        assert run(["exact", "--instance", str(path), "--k", "0"]) == 2
        assert "vertex id must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [5, [[0, 1]], {"n": 4, "edges": 5}, {"n": 4, "edges": [5]},
                                     {"n": 4, "edges": [[0, 1, 2]]}, {"n": 4, "edges": [[0]]}],
                             ids=["number", "list", "edges-number", "edge-number", "edge-triple",
                                  "edge-single"])
    def test_wrong_shaped_instance_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        assert run(["exact", "--instance", str(path), "--k", "0"]) == 2
        assert "invalid configuration" in capsys.readouterr().err


class TestEstimate:
    def test_exact_mode(self, c4_file, tmp_path):
        out = tmp_path / "est.json"
        assert run(["estimate", "--instance", str(c4_file), "--k", "1",
                    "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["beta_rounded"] == 1
        assert res["p1"] == pytest.approx(2.0, abs=1e-9)
        assert res["beta_oracle"] == 1

    def test_sampled_replay_bit_identical(self, c4_file, tmp_path):
        args = ["estimate", "--instance", str(c4_file), "--k", "1", "--eps", "0.25",
                "--mode", "sampled", "--seed", "11"]
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(args + ["--out", str(o1)]) == 0
        assert run(args + ["--out", str(o2)]) == 0
        r1 = json.loads(o1.read_text())
        r2 = json.loads(o2.read_text())
        assert r1["results"] == r2["results"]
        assert r1["config"] == r2["config"]

    def test_sampled_sample_count(self, c4_file, tmp_path):
        out = tmp_path / "est.json"
        assert run(["estimate", "--instance", str(c4_file), "--k", "1", "--eps", "0.25",
                    "--mode", "sampled", "--seed", "1", "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["samples"] == hoeffding_sample_count(res["delta"], 0.975)

    def test_normalized_octahedron(self, octa_file, tmp_path):
        out = tmp_path / "norm.json"
        assert run(["estimate", "--instance", str(octa_file), "--k", "2", "--normalized",
                    "--delta", "0.05", "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["normalized_betti"] == pytest.approx(0.125, abs=1e-10)
        assert res["eps_measurement"] == pytest.approx(0.05 * 8 / 20)

    def test_trials_emit_csv(self, c4_file, tmp_path):
        out = tmp_path / "multi.json"
        assert run(["estimate", "--instance", str(c4_file), "--k", "1", "--eps", "0.25",
                    "--mode", "sampled", "--seed", "5", "--trials", "3",
                    "--out", str(out)]) == 0
        trials = json.loads(out.read_text())["results"]["trials"]
        assert len(trials) == 3
        csv_path = tmp_path / "multi.trials.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(cli.TRIAL_CSV_COLUMNS)
        assert len(lines) == 4

    def test_trials_csv_stays_beside_the_report_in_a_dotted_directory(self, c4_file, tmp_path):
        (tmp_path / "run.1").mkdir()
        out = tmp_path / "run.1" / "out"
        assert run(["estimate", "--instance", str(c4_file), "--k", "1", "--trials", "2",
                    "--out", str(out)]) == 0
        assert (tmp_path / "run.1" / "out.trials.csv").exists()
        assert not (tmp_path / "run.trials.csv").exists()

    def test_pe_bits_flag(self, c4_file, tmp_path):
        out = tmp_path / "bits.json"
        assert run(["estimate", "--instance", str(c4_file), "--k", "1",
                    "--pe", "bits:4", "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["pe"] == "bits"
        assert res["beta_rounded"] == 1

    def test_custom_pair_matches_default(self, c4_file, tmp_path):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(json.dumps({"m1": [[1, 0], [0, 1]], "m2": [[0, 0], [0, 1]]}))
        out = tmp_path / "custom.json"
        assert run(["estimate", "--instance", str(c4_file), "--k", "1",
                    "--pair", f"custom:{pair_file}", "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["beta_estimate"] == pytest.approx(1.0, abs=1e-9)
        assert res["p1"] == pytest.approx(2.0, abs=1e-9)

    def test_non_finite_custom_pair_exits_2(self, c4_file, tmp_path, capsys):
        pair_file = tmp_path / "pair.json"
        pair_file.write_text('{"m1": [[NaN, 0], [0, 1]], "m2": [[1, 0], [0, 0]]}')
        assert run(["estimate", "--instance", str(c4_file), "--k", "1",
                    "--pair", f"custom:{pair_file}"]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("args,name", [
        (["--eps", "inf", "--mode", "sampled"], "eps"),
        (["--eps", "nan"], "eps"),
        (["--eps", "nan", "--mode", "sampled"], "eps"),
        (["--eps", "1e-10", "--mode", "sampled"], "delta"),
        (["--eps", "1e-160", "--mode", "sampled"], "delta"),
        (["--normalized", "--delta", "inf", "--mode", "sampled"], "delta"),
        (["--normalized", "--delta", "nan"], "delta"),
    ])
    def test_unusable_accuracy_exits_2(self, c4_file, capsys, args, name):
        assert run(["estimate", "--instance", str(c4_file), "--k", "1", "--seed", "1"] + args) == 2
        assert f"error: invalid configuration: {name}" in capsys.readouterr().err

    def test_sampled_without_eps_exits_2(self, c4_file):
        assert run(["estimate", "--instance", str(c4_file), "--k", "1",
                    "--mode", "sampled"]) == 2

    def test_normalized_without_delta_exits_2(self, c4_file):
        assert run(["estimate", "--instance", str(c4_file), "--k", "1",
                    "--normalized"]) == 2

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_nonpositive_trials_exits_2(self, c4_file, trials):
        assert run(["estimate", "--instance", str(c4_file), "--k", "1",
                    "--trials", trials]) == 2

    @pytest.mark.parametrize("args", [
        ["--normalized", "--delta", "0.1", "--mode", "sampled", "--confidence", "0"],
        ["--normalized", "--delta", "0.1", "--mode", "sampled", "--confidence", "-0.5"],
        ["--confidence", "5"],
    ])
    def test_confidence_outside_unit_interval_exits_2(self, c4_file, args):
        assert run(["estimate", "--instance", str(c4_file), "--k", "1"] + args) == 2

    def test_bad_pe_string_exits_2(self, c4_file):
        assert run(["estimate", "--instance", str(c4_file), "--k", "1",
                    "--pe", "magic"]) == 2

    def test_numerical_failure_exits_3(self, c4_file, monkeypatch):
        def boom(*args, **kwargs):
            raise SingularSystemError("forced")

        monkeypatch.setattr(cli, "estimate_betti", boom)
        assert run(["estimate", "--instance", str(c4_file), "--k", "1"]) == 3

    def test_out_of_memory_exits_3(self, c4_file, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise MemoryError("forced")

        monkeypatch.setattr(cli, "estimate_betti", boom)
        assert run(["estimate", "--instance", str(c4_file), "--k", "1"]) == 3
        assert "error: out of memory: forced" in capsys.readouterr().err


class TestResources:
    def test_reference_row(self, tmp_path, capsys):
        assert run(["resources", "--n", "4", "--k", "1", "--kappa", "2",
                    "--beta", "1", "--s-k", "4", "--eps", "0.25"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["this_method_cost"]) == pytest.approx(288.0)
        assert float(row["classical_cost"]) == 6.0
        assert float(row["depth_this_method"]) == 12.0
        assert float(row["depth_prior_quantum"]) == pytest.approx(16 * np.sqrt(1.5) + 8)

    def test_sweep_monotone_slots(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["resources", "--n", "4..12", "--k", "1", "--kappa", "2",
                    "--beta", "1", "--s-k", "dense", "--eps", "0.25",
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        slots = [float(dict(zip(header, ln.split(",")))["slot_count"]) for ln in lines[1:]]
        assert slots == sorted(slots) and len(set(slots)) == len(slots)

    def test_beta_zero_flagged_invalid(self, capsys):
        assert run(["resources", "--n", "4", "--k", "1", "--kappa", "2",
                    "--beta", "0", "--s-k", "4", "--eps", "0.25"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["valid"] == "False"
        assert "beta" in row["error"]

    def test_more_simplices_than_slots_flagged_invalid(self, capsys):
        assert run(["resources", "--n", "5", "--k", "1", "--kappa", "2", "--beta", "1",
                    "--s-k", "11", "--eps", "0.1"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["valid"] == "False"
        assert row["error"] == "|S_k| = 11 exceeds the slot count C = 10"
        assert row["grover_preparation_cost"] == ""

    @pytest.mark.parametrize("name,value", [("kappa", "nan"), ("kappa", "inf"),
                                            ("beta", "nan"), ("beta", "inf")])
    def test_non_finite_kappa_or_beta_flagged_invalid(self, name, value, capsys):
        args = {"kappa": "2", "beta": "1", name: value}
        assert run(["resources", "--n", "6", "--k", "1", "--kappa", args["kappa"],
                    "--beta", args["beta"], "--eps", "0.25"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row = dict(zip(lines[0].split(","), next(csv.reader([lines[1]]))))
        assert row["valid"] == "False"
        assert row["error"] == f"{name} must be positive and finite, got {float(value)}"
        assert row["this_method_cost"] == ""

    def test_header_is_the_report_fields(self, capsys):
        assert run(["resources", "--n", "4", "--k", "1", "--kappa", "2", "--beta", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "n,k,kappa,beta,s_count,slot_count,eps,delta,this_method_cost,prior_quantum_cost,"
            "classical_cost,depth_this_method,depth_prior_quantum,normalized_this_method_cost,"
            "normalized_prior_cost,grover_preparation_cost,planned_measurement_delta,sample_cost,"
            "valid,error")

    def test_empty_range_exits_2(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run(["resources", "--n", "5..3", "--k", "1", "--kappa", "2",
                    "--beta", "1", "--eps", "0.25", "--out", str(out)]) == 2
        assert not out.exists()


class TestTopDimension:
    @pytest.mark.parametrize("command", ["exact", "estimate", "complement"])
    def test_k_equals_n_minus_1(self, command, tmp_path):
        path = tmp_path / "k4.json"
        assert run(["generate", "--model", "complete", "--n", "4", "--out", str(path)]) == 0
        out = tmp_path / "out.json"
        assert run([command, "--instance", str(path), "--k", "3", "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["slot_count"] == 1
        if command == "exact":
            assert res["beta"] == 0 and res["threshold_agrees"] is True
        elif command == "estimate":
            assert res["beta_rounded"] == res["beta_oracle"] == 0
        else:
            assert res["betti_complement_exact"] == 0

    @pytest.mark.parametrize("command", ["exact", "estimate", "complement"])
    @pytest.mark.parametrize("k", [-1, 4])
    def test_k_out_of_range_exits_2(self, command, k, tmp_path, capsys):
        path = tmp_path / "k4.json"
        assert run(["generate", "--model", "complete", "--n", "4", "--out", str(path)]) == 0
        out = tmp_path / "out.json"
        assert run([command, "--instance", str(path), "--k", str(k), "--out", str(out)]) == 2
        assert f"dimension k={k} out of range for n=4" in capsys.readouterr().err
        assert not out.exists()


RANGE_LIBRARY_ENTRY_POINTS = {
    "build_clique_complex": lambda g, k: bettiq.build_clique_complex(g, k),
    "estimate_betti": lambda g, k: bettiq.estimate_betti(g, k),
    "pipeline_context": lambda g, k: bettiq.pipeline_context(g, k),
    "resource_estimate": lambda g, k: bettiq.resource_estimate(g.n, k, 2.0, 1.0, 1),
}


@pytest.mark.parametrize("entry", [*RANGE_LIBRARY_ENTRY_POINTS, "exact", "estimate", "complement",
                                   "resources"])
@pytest.mark.parametrize("n,k", [(4, -1), (4, 4), (0, 0)])
def test_one_range_rule_for_k(entry, n, k, tmp_path, capsys):
    """Every entry point rejects a k outside 0..n-1 in the same words, before
    building anything; n = 0 has no valid k at all."""
    graph = complete_graph(n)
    if entry in RANGE_LIBRARY_ENTRY_POINTS:
        with pytest.raises(ValueError) as info:
            RANGE_LIBRARY_ENTRY_POINTS[entry](graph, k)
        message = str(info.value)
    elif entry == "resources":
        assert run(["resources", f"--n={n}", f"--k={k}", "--kappa", "2", "--beta", "1"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["valid"] == "False"
        message = row["error"]
    else:
        path, out = tmp_path / "g.json", tmp_path / "out.json"
        dump_instance(graph, path)
        assert run([entry, "--instance", str(path), "--k", str(k), "--out", str(out)]) == 2
        assert not out.exists()
        message = capsys.readouterr().err
    assert f"dimension k={k} out of range for n={n}" in message


class TestComplement:
    def test_c4_table(self, c4_file, tmp_path):
        out = tmp_path / "comp.json"
        assert run(["complement", "--instance", str(c4_file), "--k", "1",
                    "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["p1_restricted"] == pytest.approx(2.0, abs=1e-9)
        assert res["betti_complement_exact"] == 0
        assert res["dual_matches_block_kernel"]

    def test_complete_graph_complement_empty(self, tmp_path):
        path = tmp_path / "k4.json"
        assert run(["generate", "--model", "complete", "--n", "4", "--out", str(path)]) == 0
        out = tmp_path / "comp.json"
        assert run(["complement", "--instance", str(path), "--k", "1",
                    "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["complement_slot_count"] == 0
        assert res["p1_restricted"] == 0.0


class TestReportEnvelope:
    @pytest.mark.parametrize("args", [
        ["exact"],
        ["estimate"],
        ["estimate", "--mode", "sampled", "--eps", "0.25", "--trials", "2"],
        ["complement", "--pe", "bits:2"],
    ])
    def test_every_report_has_the_same_envelope(self, args, c4_file, tmp_path):
        out = tmp_path / "report.json"
        assert run(args + ["--instance", str(c4_file), "--k", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"config", "results", "timing_seconds", "versions"}
        assert report["versions"] == {"bettiq": bettiq.__version__, "numpy": np.__version__}
        assert report["config"]["command"] == args[0]

    @pytest.mark.parametrize("args", [
        ["exact", "--convention", "dual"],
        ["estimate"],
        ["estimate", "--mode", "sampled", "--eps", "0.25", "--pe", "bits:2", "--trials", "2"],
        ["estimate", "--normalized", "--delta", "0.1", "--mode", "sampled", "--seed", "7"],
        ["complement", "--pe", "bits:2"],
    ])
    def test_config_echoes_every_parsed_option_but_out(self, args, c4_file, tmp_path):
        out = tmp_path / "report.json"
        argv = args + ["--instance", str(c4_file), "--k", "1", "--out", str(out)]
        assert run(argv) == 0
        report = json.loads(out.read_text())
        expected = vars(cli._parser().parse_args(argv))
        del expected["func"], expected["out"]
        if args[0] == "estimate":  # the master seed's entropy, drawn when --seed is unset
            results = report["results"]
            seed = (results["trials"][0] if "trials" in results else results)["seed"]
            expected["seed"] = report["config"]["seed"] if seed is None else seed["entropy"]
            assert isinstance(expected["seed"], int)
        assert report["config"] == expected


def readme_cli_lines():
    """The `bettiq ...` lines of README's command-line quick start."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("bettiq ")]


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert [argv[1] for argv in lines] == [
        "generate", "exact", "estimate", "estimate", "estimate", "resources", "complement"]
    for argv in lines:
        assert run(argv[1:]) == 0, argv
    assert (tmp_path / "multi.trials.csv").exists()


def test_readme_library_quick_start_runs():
    """README's first python block runs, and each line it annotates with a
    bare integer comment evaluates to that integer."""
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    annotated = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        words = comment.split()
        if code.strip() and words and words[0].isdigit():
            annotated[code.strip()] = int(words[0])
    assert annotated == {"betti_exact(c, 2)": 1, "est.beta_rounded": 1}
    for expr, value in annotated.items():
        assert eval(expr, namespace) == value, expr
